package streamer

import "repro/internal/telemetry"

// Instrument pre-registers the engine's instruments in t's registry.
// A nil Set leaves every handle nil and the engine silent. The by-name
// lookups run once, at setup, so they live outside the hot file.
func (e *Engine) Instrument(t *telemetry.Set) {
	r := t.Reg()
	e.tel = streamTelemetry{
		transfers:   r.Counter("streamer.transfers"),
		bytes:       r.Counter("streamer.bytes"),
		reallocs:    r.Counter("streamer.reallocations"),
		allocatedBW: r.Gauge("streamer.allocated_mbps"),
	}
	e.tel.allocatedBW.Set(e.allocated)
}

// dffix holds detflow true positives inside a deterministic package:
// host-derived values (imported through hostinfo's function and method
// summaries, through a local second hop, and through a func value)
// flowing into
// telemetry (instruments, spans, the event log) and trace sinks, plus a
// direct host-state read.
package dffix

import (
	"os"
	"time"

	"repro/internal/hostinfo"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func record(h *telemetry.Histogram, sp *telemetry.Spans) {
	up := hostinfo.Uptime()            // want "host-derived"
	h.Observe(up)                      // want "flows into"
	hostinfo.Record(sp, up)            // want "flows into"
	h.Observe(time.Now().UnixNano())   // want "flows into"
	_, _ = os.LookupEnv("REPRO_DEBUG") // want "reads host state"
}

// uptime2 launders the host clock through a second hop: only
// hostinfo.Uptime's summary says its result is tainted.
func uptime2() int64 {
	return hostinfo.Uptime() // want "host-derived"
}

func chain(h *telemetry.Histogram) {
	h.Observe(uptime2()) // want "flows into"
}

func viaFuncValue(h *telemetry.Histogram) {
	f := hostinfo.Uptime
	v := f()
	h.Observe(v) // want "flows into"
}

func misses(r *trace.Recorder) {
	r.OnDeadlineMiss(1, uptime2(), 0) // want "flows into"
}

func logged(l *telemetry.EventLog) {
	l.Record(uptime2(), "fault.storm", "burst at host time") // want "flows into"
}

type clock struct{}

func (clock) now() int64 {
	return hostinfo.Uptime() // want "host-derived"
}

// viaMethodValue binds the method, calls it later: the taint travels
// with the bound value.
func viaMethodValue(h *telemetry.Histogram) {
	var c clock
	f := c.now
	v := f()
	h.Observe(v) // want "flows into"
}

// viaImportedMethod crosses the package boundary through methods, on a
// value receiver and on a pointer receiver.
func viaImportedMethod(h *telemetry.Histogram, sp *telemetry.Spans) {
	var host hostinfo.Host
	boot := host.Boot() // want "host-derived"
	h.Observe(boot)     // want "flows into"
	host.Mark(sp, boot) // want "flows into"
}

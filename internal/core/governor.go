package core

import (
	"fmt"

	"repro/internal/telemetry"
	"repro/internal/ticks"
)

// EnableOverloadGovernor starts the overload governor: a periodic
// sampler that watches the kernel's interrupt-time counters and, when
// the measured interrupt load exceeds the configured §5.2 reserve,
// applies the excess as pressure on the Resource Manager. The Manager
// then recomputes grants — consulting the Policy Box, shedding
// resource-list levels in policy order — so an interrupt storm turns
// into a recorded degradation decision instead of silent deadline
// misses. When the load falls back under the reserve the pressure is
// lifted the same way.
//
// The governor samples every interval ticks (a non-positive interval
// selects 10 ms). Pressure is quantized to whole CPU percents: the
// Manager's SetPressure deduplicates on value, so quantization keeps a
// steady overload from regranting every window over measurement
// noise. The governor draws no randomness and runs entirely on kernel
// events, so enabling it is deterministic for a given seed.
func (d *Distributor) EnableOverloadGovernor(interval ticks.Ticks) {
	if interval <= 0 {
		interval = 10 * ticks.PerMillisecond
	}
	// The reserve the admission arithmetic already set aside; load up
	// to this fraction is planned for and must not trigger pressure.
	reserve := ticks.FracOne.Sub(d.rm.Available())

	var lastNow, lastIRQ ticks.Ticks
	var tick func()
	tick = func() {
		st := d.kernel.Stats()
		window, irq := st.Now-lastNow, st.InterruptTicks-lastIRQ
		lastNow, lastIRQ = st.Now, st.InterruptTicks
		d.governorSamples.Inc()
		if window > 0 {
			load := ticks.Frac{Num: int64(irq), Den: int64(window)}
			// Almost every sample finds the load within the reserve: the
			// comparison cross-multiplies, and only an overload pays for
			// the reduced difference.
			if load.Cmp(reserve) > 0 {
				// Round the excess up to a whole percent: never shed
				// less than the measured overload.
				excess := load.Sub(reserve)
				pct := (excess.Num*100 + excess.Den - 1) / excess.Den
				d.governorSpans.Instant(st.Now, "governor", "apply-pressure", telemetry.NoTask, 0, "")
				d.rm.SetPressure(st.Now, ticks.FracPercent(pct), fmt.Sprintf(
					"interrupt load %d%% over reserve", pct))
			} else {
				d.rm.SetPressure(st.Now, ticks.FracZero, "interrupt load within reserve")
			}
		}
		d.kernel.After(interval, tick)
	}
	d.kernel.After(interval, tick)
}

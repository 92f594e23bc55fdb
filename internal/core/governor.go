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
// events, so enabling it is deterministic for a given seed. Enable it
// once per build of the Distributor: its state is the Distributor's.
func (d *Distributor) EnableOverloadGovernor(interval ticks.Ticks) {
	if interval <= 0 {
		interval = 10 * ticks.PerMillisecond
	}
	// The reserve the admission arithmetic already set aside; load up
	// to this fraction is planned for and must not trigger pressure.
	d.gov = governor{d: d, interval: interval, reserve: ticks.FracOne.Sub(d.rm.Available())}
	d.kernel.AfterCall(interval, &d.gov, 0, 0, 0)
}

// governor is the overload governor's state, kept in its Distributor
// and re-armed as a typed kernel event: a sample allocates nothing.
type governor struct {
	d                          *Distributor
	interval, lastNow, lastIRQ ticks.Ticks
	reserve                    ticks.Frac
}

// HandleEvent takes one sample and arms the next.
func (g *governor) HandleEvent(int32, int32, ticks.Ticks) {
	d := g.d
	st := d.kernel.Stats()
	window, irq := st.Now-g.lastNow, st.InterruptTicks-g.lastIRQ
	g.lastNow, g.lastIRQ = st.Now, st.InterruptTicks
	d.governorSamples.Inc()
	if window > 0 {
		load := ticks.Frac{Num: int64(irq), Den: int64(window)}
		// Almost every sample finds the load within the reserve: the
		// comparison cross-multiplies, and only an overload pays for
		// the reduced difference.
		if load.Cmp(g.reserve) > 0 {
			// Round the excess up to a whole percent: never shed
			// less than the measured overload.
			excess := load.Sub(g.reserve)
			pct := (excess.Num*100 + excess.Den - 1) / excess.Den
			d.governorSpans.Instant(st.Now, "governor", "apply-pressure", telemetry.NoTask, 0, "")
			d.rm.SetPressure(st.Now, ticks.FracPercent(pct), overloadReason(pct))
		} else {
			d.rm.SetPressure(st.Now, ticks.FracZero, "interrupt load within reserve")
		}
	}
	d.kernel.AfterCall(g.interval, g, 0, 0, 0)
}

// overloadReasons holds the apply-pressure reason of every whole
// percent up to 100, so a sample formats nothing (the Manager drops the
// reason of a pressure it already applies).
var overloadReasons = func() (r [101]string) {
	for pct := range r {
		r[pct] = fmt.Sprintf(overloadFormat, pct)
	}
	return r
}()

const overloadFormat = "interrupt load %d%% over reserve"

// overloadReason is the reason for pressure of pct percent. A sample
// can find more than 100: a handler's service counts as interrupt time
// when it starts, and a sample can fire while it runs.
func overloadReason(pct int64) string {
	if pct < int64(len(overloadReasons)) {
		return overloadReasons[pct]
	}
	return fmt.Sprintf(overloadFormat, pct)
}

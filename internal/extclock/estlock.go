package extclock

import (
	"repro/internal/ticks"
)

// EstimatingPhaseLock is the realistic form of the §5.4 recipe: the
// application cannot ask the external clock for its drift; it can
// only read both clocks "at some interval" and infer the skew. This
// lock keeps a running drift estimate from paired readings and
// predicts the next boundary from it, exactly as the paper
// prescribes:
//
//	"The application must read both the TCI and the external clock at
//	some interval. The difference between the external clock readings
//	is determined. From that, the expected difference in the TCI
//	clock is computed. The actual difference in the TCI clock
//	readings can be used to calculate the skew."
//
// Compared with PhaseLock (which inverts the clock model directly,
// something only the simulator can do), the estimator converges after
// one sample interval and tracks drift changes with first-order lag.
type EstimatingPhaseLock struct {
	extPeriod ticks.Ticks
	nominal   ticks.Ticks

	// rate is the estimated external-ticks-per-system-tick, smoothed
	// with an exponential moving average to ride out reading jitter.
	rate    float64
	alpha   float64
	lastSys ticks.Ticks
	lastExt ticks.Ticks
	primed  bool
}

// NewEstimatingPhaseLock builds a lock for a task with the given
// nominal period tracking boundaries every extPeriod external ticks.
// smoothing in (0,1] weights the newest rate sample; 1 disables
// smoothing. A good default is 0.5.
func NewEstimatingPhaseLock(extPeriod, nominal ticks.Ticks, smoothing float64) (*EstimatingPhaseLock, error) {
	if nominal <= 0 || extPeriod <= 0 {
		return nil, errBadPeriod
	}
	if smoothing <= 0 || smoothing > 1 {
		smoothing = 0.5
	}
	return &EstimatingPhaseLock{
		extPeriod: extPeriod,
		nominal:   nominal,
		rate:      1.0, // assume no drift until measured
		alpha:     smoothing,
	}, nil
}

// Observe feeds one paired reading of the system clock and the
// external clock, updating the drift estimate. A reading that does not
// advance the system clock is ignored.
func (l *EstimatingPhaseLock) Observe(sys, ext ticks.Ticks) {
	if !l.primed {
		l.lastSys, l.lastExt, l.primed = sys, ext, true
		return
	}
	dSys := sys - l.lastSys
	dExt := ext - l.lastExt
	if dSys <= 0 {
		return
	}
	sample := float64(dExt) / float64(dSys)
	l.rate = l.rate*(1-l.alpha) + sample*l.alpha
	l.lastSys, l.lastExt = sys, ext
}

// Rate reports the current drift estimate in PPM.
func (l *EstimatingPhaseLock) Rate() float64 { return (l.rate - 1) * 1e6 }

// Insertion predicts, from the latest reading and the drift estimate,
// the idle cycles to insert so the next period starts on the next
// external boundary. periodStart is the current period's start;
// extNow is the external reading taken at sysNow. The result is never
// negative.
func (l *EstimatingPhaseLock) Insertion(periodStart, sysNow ticks.Ticks, extNow ticks.Ticks) ticks.Ticks {
	nominalEnd := periodStart + l.nominal
	// Predict the external reading at the nominal end, then the
	// system time of the next boundary after it.
	extAtEnd := float64(extNow) + float64(nominalEnd-sysNow)*l.rate
	k := int64(extAtEnd) / int64(l.extPeriod)
	nextBoundaryExt := float64((k + 1) * int64(l.extPeriod))
	// Convert back: system ticks until that boundary from nominalEnd.
	dExt := nextBoundaryExt - extAtEnd
	if dExt < 0 {
		return 0
	}
	ins := ticks.Ticks(dExt / l.rate)
	if ins < 0 {
		return 0
	}
	return ins
}

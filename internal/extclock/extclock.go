// Package extclock models the clock-synchronization problem of §5.4.
//
// Periods on the MAP1000 are scheduled against the TCI 27 MHz clock,
// but many applications are paced by some other crystal — a second
// MPEG transport stream's clock, or the Display Refresh Controller.
// Clocks driven by different crystals drift relative to each other,
// sometimes fast and sometimes slow. The paper's remedy is the
// InsertIdleCycles interface: a task may postpone (never pull in) the
// start of its next period, and uses paired readings of the two
// clocks to estimate the skew it must compensate.
//
// This package provides the drifting Clock model, a PhaseLock helper
// that computes the insertion needed each period to stay aligned with
// an external boundary, and EstimatingPhaseLock, which does the same
// from the §5.4 skew estimation recipe.
package extclock

import (
	"errors"
	"math"

	"repro/internal/ticks"
)

var errBadPeriod = errors.New("extclock: non-positive period")

// Clock is an external clock observed from the scheduling (system)
// clock. A positive drift means the external clock runs fast relative
// to the system clock; drift may change over time ("Sometimes it
// drifts faster, sometimes slower, depending on the source of the
// MPEG input stream").
type Clock struct {
	offset   ticks.Ticks // external reading at system time 0
	segments []Segment
}

// Segment is one stretch of constant drift. UntilSys is exclusive;
// the final segment should use UntilSys = math.MaxInt64 (see
// Forever).
type Segment struct {
	UntilSys ticks.Ticks
	DriftPPM float64
}

// Forever marks the final segment's end.
const Forever = ticks.Ticks(math.MaxInt64)

// New builds a constant-drift clock.
func New(driftPPM float64, offset ticks.Ticks) *Clock {
	return NewVariable(offset, Segment{UntilSys: Forever, DriftPPM: driftPPM})
}

// NewVariable builds a clock whose drift changes across segments.
// Segments must be in increasing UntilSys order and end with Forever.
func NewVariable(offset ticks.Ticks, segs ...Segment) *Clock {
	if len(segs) == 0 {
		panic("extclock: need at least one segment")
	}
	for i := 1; i < len(segs); i++ {
		if segs[i].UntilSys <= segs[i-1].UntilSys {
			panic("extclock: segments out of order")
		}
	}
	if segs[len(segs)-1].UntilSys != Forever {
		panic("extclock: final segment must extend Forever")
	}
	return &Clock{offset: offset, segments: segs}
}

// rate converts ppm to external-ticks-per-system-tick.
func rate(ppm float64) float64 { return 1 + ppm*1e-6 }

// ReadAt reports the external clock reading at system time sys.
func (c *Clock) ReadAt(sys ticks.Ticks) ticks.Ticks {
	ext := float64(c.offset)
	var prev ticks.Ticks
	for _, s := range c.segments {
		end := s.UntilSys
		if end > sys {
			end = sys
		}
		if end > prev {
			ext += float64(end-prev) * rate(s.DriftPPM)
		}
		prev = s.UntilSys
		if prev >= sys {
			break
		}
	}
	return ticks.Ticks(math.Round(ext))
}

// SysAt reports the earliest system time at which the external clock
// reads at least ext. It inverts ReadAt by bisection (drift is
// monotonic, so readings are strictly increasing).
func (c *Clock) SysAt(ext ticks.Ticks) ticks.Ticks {
	if ext <= c.offset {
		return 0
	}
	lo, hi := ticks.Ticks(0), ticks.Ticks(1)
	for c.ReadAt(hi) < ext {
		lo = hi
		hi *= 2
		if hi <= 0 { // overflow guard; unreachable for sane inputs
			panic("extclock: SysAt overflow")
		}
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		if c.ReadAt(mid) < ext {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// BoundaryAfter reports the earliest system time strictly after sys
// at which the external clock crosses a multiple of period (in
// external ticks).
func (c *Clock) BoundaryAfter(sys ticks.Ticks, period ticks.Ticks) ticks.Ticks {
	if period <= 0 {
		panic("extclock: BoundaryAfter needs positive period")
	}
	ext := c.ReadAt(sys)
	k := ext / period
	next := (k + 1) * period
	at := c.SysAt(next)
	for at <= sys {
		next += period
		at = c.SysAt(next)
	}
	return at
}

// PhaseLock computes, each period, the idle cycles a task must insert
// to start its next period on the next external boundary. Because
// InsertIdleCycles can only postpone, the task's nominal period must
// be no longer than the shortest system-time distance between
// external boundaries; the lock stretches every period to fit.
type PhaseLock struct {
	clk       *Clock
	extPeriod ticks.Ticks // boundary spacing in external ticks
	nominal   ticks.Ticks // task's nominal period in system ticks
}

// NewPhaseLock builds a phase lock for a task with the given nominal
// period tracking boundaries every extPeriod external ticks.
func NewPhaseLock(clk *Clock, extPeriod, nominal ticks.Ticks) (*PhaseLock, error) {
	if nominal <= 0 || extPeriod <= 0 {
		return nil, errBadPeriod
	}
	return &PhaseLock{clk: clk, extPeriod: extPeriod, nominal: nominal}, nil
}

// Insertion reports how many idle cycles to insert at a period that
// started at periodStart so that the next period begins on the next
// external boundary at or after the nominal end. The result is never
// negative (periods cannot be pulled in).
func (p *PhaseLock) Insertion(periodStart ticks.Ticks) ticks.Ticks {
	nominalEnd := periodStart + p.nominal
	boundary := p.clk.BoundaryAfter(nominalEnd-1, p.extPeriod)
	ins := boundary - nominalEnd
	if ins < 0 {
		return 0
	}
	return ins
}

// PhaseErrorAt reports the distance from sys to the nearest external
// boundary (in system ticks), for measuring lock quality.
func (p *PhaseLock) PhaseErrorAt(sys ticks.Ticks) ticks.Ticks {
	next := p.clk.BoundaryAfter(sys-1, p.extPeriod)
	if next == sys {
		return 0
	}
	after := next - sys
	// Previous boundary: floor the external reading to a multiple of
	// the period and convert back to system time.
	k := p.clk.ReadAt(sys) / p.extPeriod
	prev := p.clk.SysAt(k * p.extPeriod)
	before := sys - prev
	if before < 0 || after < before {
		return after
	}
	return before
}

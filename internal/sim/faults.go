package sim

import (
	"fmt"

	"repro/internal/ticks"
)

// StallInfo describes a tripped livelock guard: the virtual instant at
// which the same-tick event budget was exhausted and how many events
// had executed at that instant. A stalled kernel stops dispatching;
// callers detect the condition with Stalled and report it instead of
// hanging.
type StallInfo struct {
	At     ticks.Ticks // instant at which the budget was exhausted
	Events int         // events that had executed at that instant
}

// String is the sentence a stalled sweep cell or fleet node reports.
func (s StallInfo) String() string {
	return fmt.Sprintf("kernel livelock guard tripped at t=%d after %d same-tick events", int64(s.At), s.Events)
}

// Stalled reports whether the livelock guard has tripped, and the
// stall details if so. It is a read-only probe.
func (k *Kernel) Stalled() (StallInfo, bool) {
	if k.stall == nil {
		return StallInfo{}, false
	}
	return *k.stall, true
}

// TimerFault models imperfect timer-interrupt delivery: events are
// delivered late by a bounded uniform amount and/or coalesced onto a
// coarse boundary (both rounded so that delivery is never earlier than
// asked). It draws from its own RNG substream, so installing it never
// perturbs the kernel's main cost stream — the unfaulted portion of a
// trace is byte-identical with and without the fault armed.
type TimerFault struct {
	rng      *RNG
	maxLate  ticks.Ticks // uniform lateness in [0, maxLate]; 0 = exact
	coalesce ticks.Ticks // round delivery up to a multiple; 0 = off
}

// NewTimerFault builds a timer-delivery fault from a substream seed
// (callers derive it with SplitSeed so the draw sequence is decoupled
// from every other stream in the run). maxLate bounds the per-event
// uniform lateness; coalesce, when positive, rounds delivery times up
// to the next multiple of that granularity, modelling batched timer
// interrupts. Negative arguments are treated as zero.
func NewTimerFault(seed uint64, maxLate, coalesce ticks.Ticks) *TimerFault {
	if maxLate < 0 {
		maxLate = 0
	}
	if coalesce < 0 {
		coalesce = 0
	}
	return &TimerFault{rng: NewRNG(seed), maxLate: maxLate, coalesce: coalesce}
}

// adjust maps a requested delivery time to the faulted delivery time.
// The result is never earlier than asked: lateness is non-negative and
// coalescing rounds up. When maxLate is zero no random draw happens,
// keeping the substream position a pure function of the late events.
func (f *TimerFault) adjust(at ticks.Ticks) ticks.Ticks {
	if f.maxLate > 0 {
		at += ticks.Ticks(f.rng.Uint64() % uint64(f.maxLate+1))
	}
	if f.coalesce > 0 {
		if rem := at % f.coalesce; rem != 0 {
			at += f.coalesce - rem
		}
	}
	return at
}

// SetTimerFault installs (or, with nil, removes) a timer-delivery
// fault. Subsequently scheduled events are perturbed; events already
// queued keep their times.
func (k *Kernel) SetTimerFault(f *TimerFault) { k.timerFault = f }

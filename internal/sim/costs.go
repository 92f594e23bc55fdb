package sim

import (
	"fmt"
	"math"

	"repro/internal/ticks"
)

// SwitchKind distinguishes the two context-switch classes of §5.6 and
// §6.1. A voluntary (synchronous) switch happens when a task yields,
// blocks, or completes its period work: only the 14 caller-saved
// registers (times two banks) need saving. An involuntary switch is
// forced by a timer interrupt and must additionally save the 64
// system registers.
type SwitchKind int

const (
	// Voluntary is a synchronous switch initiated by the running task.
	Voluntary SwitchKind = iota
	// Involuntary is an asynchronous, timer-forced switch.
	Involuntary
)

func (k SwitchKind) String() string {
	if k == Voluntary {
		return "voluntary"
	}
	return "involuntary"
}

// MarshalText encodes the kind by its String name, the form exported
// traces carry.
func (k SwitchKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText decodes a String name; any other text is an error
// naming it.
func (k *SwitchKind) UnmarshalText(text []byte) error {
	for _, c := range [...]SwitchKind{Voluntary, Involuntary} {
		if c.String() == string(text) {
			*k = c
			return nil
		}
	}
	return fmt.Errorf("sim: unknown switch kind %q", text)
}

// CostDist describes the cost distribution of one switch class as a
// minimum plus a Weibull-distributed excess. Min, Median and Mean are
// in microseconds and match the paper's Table in §6.1:
//
//	voluntary:   min 11.5, median 18.3, mean 20.7 µs
//	involuntary: min 16.9, median 28.2, mean 35.0 µs
//
// The Weibull shape is solved at construction so that both the median
// and the mean of the modelled distribution equal the paper's.
type CostDist struct {
	Min, Median, Mean float64 // microseconds

	shape, scale float64 // derived Weibull parameters for the excess

	// table maps a draw straight to its tick count (costtable.go).
	// calibrate creates it from (Min, shape, scale) as they are then;
	// copies of the distribution share it. A distribution that was
	// never calibrated has none and evaluates costTicks per draw.
	table *tickTable
}

// calibrate solves for the Weibull shape k such that
// median/mean of the excess distribution equals
// (Median-Min)/(Mean-Min), then sets the scale to hit the mean.
// The ratio for Weibull is (ln 2)^(1/k) / Gamma(1+1/k), monotonic in
// k over the region of interest, so bisection converges quickly.
func (c *CostDist) calibrate() {
	c.shape, c.scale = 1, 0 // degenerate: constant cost
	em := c.Median - c.Min
	eu := c.Mean - c.Min
	if em > 0 && eu > 0 {
		target := em / eu
		ratio := func(k float64) float64 {
			return math.Pow(math.Ln2, 1/k) / math.Gamma(1+1/k)
		}
		lo, hi := 0.2, 8.0
		for i := 0; i < 80; i++ {
			mid := (lo + hi) / 2
			if ratio(mid) < target {
				lo = mid
			} else {
				hi = mid
			}
		}
		c.shape = (lo + hi) / 2
		c.scale = eu / math.Gamma(1+1/c.shape)
	}
	c.table = &tickTable{min: c.Min, scale: c.scale, shape: c.shape}
}

// SwitchCosts is the context-switch cost model for a simulation run.
type SwitchCosts struct {
	// Deterministic, when true, charges exactly the Mean cost for
	// every switch. Schedule-shape experiments (Figures 3-5) use this
	// so traces are bit-for-bit reproducible; the §6.1 experiment
	// uses the stochastic model.
	Deterministic bool

	Vol, Invol CostDist

	// CacheRefillUS models §5.6's second-order preemption cost:
	// "Besides the context switch overhead, the cache state may also
	// be lost." It is charged when a task resumes after an
	// *involuntary* preemption — a task that yielded at a safe point
	// ("the application writer controls what information is in the
	// caches") resumes warm. Zero disables the model.
	CacheRefillUS float64
}

// paperCosts is calibrated once at init: the bisection runs ~80
// Gamma/Pow evaluations per distribution, which is pure overhead when
// a sweep constructs thousands of kernels.
var paperCosts = func() SwitchCosts {
	sc := SwitchCosts{
		Vol:   CostDist{Min: 11.5, Median: 18.3, Mean: 20.7},
		Invol: CostDist{Min: 16.9, Median: 28.2, Mean: 35.0},
	}
	sc.Vol.calibrate()
	sc.Invol.calibrate()
	return sc
}()

// PaperSwitchCosts returns the cost model calibrated to §6.1.
func PaperSwitchCosts() SwitchCosts {
	return paperCosts
}

// ZeroSwitchCosts returns a model in which context switches are free.
// Property tests use it so that invariants can be checked against the
// pure EDF arithmetic without cost noise.
func ZeroSwitchCosts() SwitchCosts {
	return SwitchCosts{Deterministic: true}
}

// Sample draws the cost of one switch of the given kind, in ticks. A
// stochastic sample consumes exactly one Uint64 from rng.
func (s *SwitchCosts) Sample(kind SwitchKind, rng *RNG) ticks.Ticks {
	d := &s.Vol
	if kind == Involuntary {
		d = &s.Invol
	}
	if s.Deterministic {
		return usToTicks(d.Mean)
	}
	u := rng.draw()
	if d.table == nil {
		return costTicks(d.Min, d.scale, d.shape, u)
	}
	return d.table.at(u)
}

// costTicks is the switch-cost model: the cost in ticks of the
// drawBits-bit uniform draw u under a distribution of minimum min µs
// plus a Weibull(shape, scale) excess. It is the only place a draw
// becomes a cost — tickTable is built from it, falls back to it, and
// is tested against it. The conversion keeps the product and the sum
// separately rounded on every platform (no fused multiply-add).
func costTicks(min, scale, shape float64, u uint64) ticks.Ticks {
	return usToTicks(min + float64(weibullQuantile(unitFloat(u), shape, scale)))
}

// CacheRefill reports the cold-cache penalty in ticks.
func (s *SwitchCosts) CacheRefill() ticks.Ticks {
	if s.CacheRefillUS <= 0 {
		return 0
	}
	return usToTicks(s.CacheRefillUS)
}

func usToTicks(us float64) ticks.Ticks {
	// The switch-cost model is specified in fractional microseconds
	// (Table 2) and Weibull samples are inherently float; this is the
	// single audited site where they round into ticks, with an explicit
	// round-half-away so the result is platform-independent.
	//rdlint:allow tickunits single audited µs→ticks rounding site for the float cost model
	return ticks.Ticks(math.Round(us * float64(ticks.PerMicrosecond)))
}

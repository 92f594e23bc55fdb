// Package ticks provides the 27 MHz time base used throughout the ETI
// Resource Distributor.
//
// The paper (§4.1) specifies that periods and CPU requirements in a
// resource list are expressed in units of 27 MHz ticks: the rate of the
// MPEG TCI transport clock. One tick is therefore 1/27,000,000 of a
// second (~37 ns). The MAP1000 core runs at 200 MHz, so one tick spans
// 200/27 core cycles.
//
// All scheduler arithmetic in this repository is integer arithmetic on
// Ticks so that simulations are exactly reproducible.
package ticks

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"time"
)

// Ticks is a duration or instant measured in 27 MHz clock ticks.
// As an instant it counts ticks since the start of the simulation.
type Ticks int64

// Clock rates on the MAP1000.
const (
	// PerSecond is the tick rate: 27,000,000 ticks per second.
	PerSecond Ticks = 27_000_000

	// PerMillisecond is the number of ticks in one millisecond.
	PerMillisecond Ticks = PerSecond / 1_000

	// PerMicrosecond is the number of ticks in one microsecond.
	PerMicrosecond Ticks = PerSecond / 1_000_000

	// CoreHz is the MAP1000 core clock rate in Hz (200 MHz).
	CoreHz int64 = 200_000_000

	// CoreCyclesPerTick is how many 200 MHz core cycles elapse in
	// one 27 MHz tick, times the denominator CoreCyclesDenom.
	// 200e6/27e6 = 200/27, kept as a ratio for exact arithmetic.
	CoreCyclesNum   int64 = 200
	CoreCyclesDenom int64 = 27
)

// Period bounds from §4.1: "The minimum period is 500 µSec, and the
// maximum is 159 seconds."
const (
	// MinPeriod is the smallest admissible resource-list period.
	MinPeriod Ticks = 500 * PerMicrosecond // 13,500 ticks

	// MaxPeriod is the largest admissible resource-list period.
	MaxPeriod Ticks = 159 * PerSecond
)

// FromDuration converts a time.Duration to Ticks, rounding to nearest.
func FromDuration(d time.Duration) Ticks {
	// Split to avoid overflow: d.Nanoseconds()*27 fits in int64 for
	// durations under ~10.8 years, far beyond MaxPeriod.
	ns := d.Nanoseconds()
	return Ticks((ns*27 + 500) / 1000)
}

// FromMicroseconds converts microseconds to Ticks exactly.
func FromMicroseconds(us int64) Ticks { return Ticks(us) * PerMicrosecond }

// FromMilliseconds converts milliseconds to Ticks exactly.
func FromMilliseconds(ms int64) Ticks { return Ticks(ms) * PerMillisecond }

// FromSeconds converts whole seconds to Ticks exactly.
func FromSeconds(s int64) Ticks { return Ticks(s) * PerSecond }

// Duration converts t to a time.Duration, rounding to nearest ns.
func (t Ticks) Duration() time.Duration {
	ns := (int64(t)*1000 + 13) / 27 // 1000/27 ns per tick, rounded
	return time.Duration(ns)
}

// Microseconds reports t in microseconds, rounded to nearest.
func (t Ticks) Microseconds() int64 {
	return (int64(t) + int64(PerMicrosecond)/2) / int64(PerMicrosecond)
}

// MicrosecondsF reports t in microseconds as a float.
func (t Ticks) MicrosecondsF() float64 {
	return float64(t) / float64(PerMicrosecond)
}

// Milliseconds reports t in milliseconds, rounded to nearest.
func (t Ticks) Milliseconds() int64 {
	return (int64(t) + int64(PerMillisecond)/2) / int64(PerMillisecond)
}

// MillisecondsF reports t in milliseconds as a float.
func (t Ticks) MillisecondsF() float64 {
	return float64(t) / float64(PerMillisecond)
}

// Seconds reports t in seconds as a float.
func (t Ticks) Seconds() float64 { return float64(t) / float64(PerSecond) }

// CoreCycles reports how many 200 MHz core cycles elapse in t ticks,
// rounded to nearest.
func (t Ticks) CoreCycles() int64 {
	return (int64(t)*CoreCyclesNum + CoreCyclesDenom/2) / CoreCyclesDenom
}

// FromCoreCycles converts 200 MHz core cycles to Ticks, rounding to
// nearest.
func FromCoreCycles(cycles int64) Ticks {
	return Ticks((cycles*CoreCyclesDenom + CoreCyclesNum/2) / CoreCyclesNum)
}

// String renders t with an adaptive unit for human-readable traces.
func (t Ticks) String() string {
	n, unit := int64(t), "t"
	switch {
	case t == 0:
		return "0t"
	case t%PerSecond == 0:
		n, unit = int64(t/PerSecond), "s"
	case t%PerMillisecond == 0:
		n, unit = int64(t/PerMillisecond), "ms"
	case t%PerMicrosecond == 0:
		n, unit = int64(t/PerMicrosecond), "us"
	}
	var buf [24]byte
	return string(append(strconv.AppendInt(buf[:0], n, 10), unit...))
}

// Min returns the smaller of a and b.
func Min(a, b Ticks) Ticks {
	if a < b {
		return a
	}
	return b
}

// Max returns the larger of a and b.
func Max(a, b Ticks) Ticks {
	if a > b {
		return a
	}
	return b
}

// Rate is a dimensionless CPU fraction (CPU requirement / period),
// the quantity the paper's "Rate (computed)" column reports.
// It is stored as a float for reporting but all admission arithmetic
// uses the exact Frac form below.
type Rate float64

// RateOf computes cpu/period as a Rate. It panics if period <= 0,
// since a non-positive period is a programming error everywhere in
// this codebase (resource lists are validated at construction).
func RateOf(cpu, period Ticks) Rate {
	if period <= 0 {
		panic("ticks: RateOf with non-positive period")
	}
	return Rate(float64(cpu) / float64(period))
}

// Percent reports the rate as a percentage.
func (r Rate) Percent() float64 { return float64(r) * 100 }

// String renders the rate as the paper's tables do, e.g. "33.3 %".
func (r Rate) String() string { return fmt.Sprintf("%.1f%%", r.Percent()) }

// Frac is an exact rational CPU fraction used for admission-control
// sums, avoiding float rounding at the admission boundary. The
// denominator is always positive.
type Frac struct {
	Num, Den int64
}

// FracOf returns the exact fraction cpu/period in lowest terms.
func FracOf(cpu, period Ticks) Frac {
	if period <= 0 {
		panic("ticks: FracOf with non-positive period")
	}
	f := Frac{int64(cpu), int64(period)}
	return f.reduce()
}

// mag is |x| as a uint64; it is exact for math.MinInt64 (2^63), where
// -x would wrap back to itself.
func mag(x int64) uint64 {
	if x < 0 {
		return -uint64(x)
	}
	return uint64(x)
}

// gcd is the binary (Stein) gcd of |a| and |b|, and 1 when both are
// zero. Shifts and subtractions only: the Euclidean form costs a
// hardware division per step, three times per Add. The result fits an
// int64 whenever either argument is a positive int64, which reduce's
// positive denominator guarantees.
func gcd(a, b int64) int64 {
	u, v := mag(a), mag(b)
	if u == 0 || v == 0 {
		if u|v == 0 {
			return 1
		}
		return int64(u | v)
	}
	shift := bits.TrailingZeros64(u | v)
	u >>= bits.TrailingZeros64(u)
	for v != 0 {
		v >>= bits.TrailingZeros64(v)
		if u > v {
			u, v = v, u
		}
		v -= u
	}
	return int64(u << shift)
}

func (f Frac) reduce() Frac {
	if f.Den == 0 {
		// Normalize the zero value Frac{} to the zero fraction so an
		// uninitialised accumulator behaves like FracZero.
		return Frac{0, 1}
	}
	g := gcd(f.Num, f.Den)
	return Frac{f.Num / g, f.Den / g}
}

// Add returns f+g in lowest terms. The common case — positive
// denominators whose cross-products fit an int64 — multiplies the
// terms as given and reduces once. When those products overflow, Add
// reduces both terms first to gain headroom and tries again; the sum
// is the same rational either way, so both routes return the same
// canonical fraction. Only if the reduced products still overflow does
// it fall back to a common denominator of the reduced terms scaled
// into a 1e12 fixed-point grid, which is more than enough resolution
// for admission (1 part in 10^12). Admission sums involve at most a
// few dozen terms with denominators bounded by MaxPeriod, so the grid
// is out of reach of realistic task sets.
func (f Frac) Add(g Frac) Frac {
	if f.Den > 0 && g.Den > 0 {
		if f.Den == g.Den && mag(f.Num)|mag(g.Num)|uint64(f.Den) < 1<<31 {
			// Same denominator, and small enough that the general
			// cross-multiply below could not overflow: it would
			// compute (f.Num+g.Num)·Den / Den², the same fraction.
			return Frac{f.Num + g.Num, f.Den}.reduce()
		}
		if s, d, ok := crossSum(f, g); ok {
			return Frac{s, d}.reduce()
		}
	}
	f, g = f.reduce(), g.reduce()
	if s, d, ok := crossSum(f, g); ok {
		return Frac{s, d}.reduce()
	}
	// Fixed-point fallback.
	const grid = 1_000_000_000_000
	fn := fixedPoint(f, grid)
	gn := fixedPoint(g, grid)
	return Frac{fn + gn, grid}.reduce()
}

// crossSum is the unreduced f+g = (f.Num·g.Den + g.Num·f.Den) /
// (f.Den·g.Den), or ok=false if any step overflows an int64.
func crossSum(f, g Frac) (num, den int64, ok bool) {
	n1, ok1 := mulOK(f.Num, g.Den)
	n2, ok2 := mulOK(g.Num, f.Den)
	d, ok3 := mulOK(f.Den, g.Den)
	s, ok4 := addOK(n1, n2)
	return s, d, ok1 && ok2 && ok3 && ok4
}

// Sub returns f-g exactly (with the same fallback as Add).
func (f Frac) Sub(g Frac) Frac { return f.Add(Frac{-g.Num, g.Den}) }

func fixedPoint(f Frac, grid int64) int64 {
	// round(f.Num/f.Den * grid)
	q := f.Num / f.Den
	r := f.Num % f.Den
	if p, ok := mulOK(r, grid); ok {
		// Round half away from zero, symmetrically, so that
		// fixedPoint(-f) == -fixedPoint(f) and Sub stays the exact
		// negation of Add.
		h := f.Den / 2
		if p < 0 {
			return q*grid + (p-h)/f.Den
		}
		return q*grid + (p+h)/f.Den
	}
	// Denominator too large for exact scaling: round in floating
	// point. math.Round is symmetric, so Sub stays the exact negation
	// of Add and comparisons remain consistent.
	return q*grid + int64(math.Round(float64(r)/float64(f.Den)*float64(grid)))
}

// mulOK returns a·b and whether it fits an int64. The product is
// formed in 128 bits from the magnitudes, so the one case a quotient
// test misses — MinInt64 · -1, where Go's wrapped product divides back
// to the operand — is reported as the overflow it is.
func mulOK(a, b int64) (int64, bool) {
	hi, lo := bits.Mul64(mag(a), mag(b))
	if (a < 0) != (b < 0) {
		// Negative product: magnitudes up to 2^63 are representable.
		return -int64(lo), hi == 0 && lo <= 1<<63
	}
	return int64(lo), hi == 0 && lo <= math.MaxInt64
}

func addOK(a, b int64) (int64, bool) {
	s := a + b
	if (b > 0 && s < a) || (b < 0 && s > a) {
		return 0, false
	}
	return s, true
}

// Cmp compares f to g: -1 if f<g, 0 if equal, +1 if f>g. The answer
// is exact for every pair: denominators are positive, so f ? g is
// f.Num·g.Den ? g.Num·f.Den, and the two products are formed in 128
// bits. Cmp never goes through Add, so no admission decision can pass
// through Add's grid fallback. A zero denominator is the zero value
// Frac{}, read as the zero fraction the way reduce reads it.
func (f Frac) Cmp(g Frac) int {
	fn, gn := f.Num, g.Num
	if f.Den == 0 {
		fn = 0
	}
	if g.Den == 0 {
		gn = 0
	}
	if fn == 0 || gn == 0 || (fn < 0) != (gn < 0) {
		// A zero side or opposite signs: the numerators decide alone.
		return cmp.Compare(fn, gn)
	}
	// Same sign, neither zero: compare the magnitudes of the cross
	// products, and mirror the answer for a negative pair.
	ahi, alo := bits.Mul64(mag(fn), uint64(g.Den))
	bhi, blo := bits.Mul64(mag(gn), uint64(f.Den))
	c := cmp.Compare(ahi, bhi)
	if c == 0 {
		c = cmp.Compare(alo, blo)
	}
	if fn < 0 {
		return -c
	}
	return c
}

// LessOrEqual reports whether f <= g.
func (f Frac) LessOrEqual(g Frac) bool { return f.Cmp(g) <= 0 }

// Float reports f as a float64.
func (f Frac) Float() float64 { return float64(f.Num) / float64(f.Den) }

// Rate converts f to a reporting Rate.
func (f Frac) Rate() Rate { return Rate(f.Float()) }

// FracZero is the zero fraction.
var FracZero = Frac{0, 1}

// FracOne is the fraction 1 (100 % of the CPU).
var FracOne = Frac{1, 1}

// FracPercent returns p% as a Frac, e.g. FracPercent(4) = 1/25.
func FracPercent(p int64) Frac { return Frac{p, 100}.reduce() }

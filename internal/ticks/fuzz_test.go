package ticks

import (
	"math"
	"math/big"
	"testing"
)

// Native fuzz targets; their seed corpora also run under plain
// `go test`. Fuzz with e.g.:
//
//	go test -fuzz FuzzFracAdd -fuzztime 30s ./internal/ticks

// FuzzFracAdd checks the exact-fraction arithmetic that admission
// control leans on. For any positive denominators: Add commutes and
// returns lowest terms over a positive denominator. For admission
// rates in [0,1] additionally: the identity, (a+b)-b == a — exactly,
// unless a sum fell back to Add's 1e12 grid, and then to within the
// grid's resolution (Cmp is exact and no longer hides the difference) —
// and agreement with float arithmetic to fixed-point tolerance.
func FuzzFracAdd(f *testing.F) {
	f.Add(int64(1), int64(3), int64(1), int64(2))
	f.Add(int64(27_000), int64(270_000), int64(300_000), int64(900_000))
	f.Add(int64(1), int64(4_293_000_000), int64(1), int64(3))
	// The two cases a quotient-test mulOK and a signed Euclid got wrong:
	// MinInt64·-1 wraps to MinInt64 (and divides back to the operand),
	// and |MinInt64| is not an int64.
	f.Add(int64(math.MinInt64), int64(1), int64(-1), int64(1))
	f.Add(int64(math.MinInt64), int64(6), int64(math.MinInt64), int64(4))
	f.Add(int64(1), int64(1<<31-1), int64(1), int64(1<<61-1)) // coprime: the sum lands on the grid
	f.Fuzz(func(t *testing.T, an, ad, bn, bd int64) {
		if ad <= 0 || bd <= 0 {
			t.Skip()
		}
		a := Frac{an, ad}
		b := Frac{bn, bd}
		ab := a.Add(b)
		ba := b.Add(a)
		if ab != ba {
			t.Fatalf("Add not commutative: %v vs %v", ab, ba)
		}
		if ab.Den <= 0 || gcd(ab.Num, ab.Den) != 1 {
			t.Fatalf("%v + %v = %v, not in lowest terms over a positive denominator", a, b, ab)
		}
		if an < 0 || bn < 0 || an > ad || bn > bd {
			return // the rest holds for admission fractions: rates in [0,1]
		}
		if z := a.Add(FracZero); z.Cmp(a.reduce()) != 0 {
			t.Fatalf("a+0 = %v, want %v", z, a)
		}
		if d := ab.Sub(b); d.Cmp(a) != 0 {
			_, _, sumFits := crossSum(a.reduce(), b.reduce())
			_, _, diffFits := crossSum(ab, Frac{-b.Num, b.Den}.reduce())
			if diff := d.Float() - a.Float(); (sumFits && diffFits) || diff < -4e-12 || diff > 4e-12 {
				t.Fatalf("(a+b)-b = %v, want %v (exact: %v)", d, a, sumFits && diffFits)
			}
		}
		want := a.Float() + b.Float()
		got := ab.Float()
		if diff := got - want; diff < -1e-6 || diff > 1e-6 {
			t.Fatalf("float mismatch: %v vs %v", got, want)
		}
	})
}

// addRef is Frac.Add as it stood before the unreduced fast path:
// reduce both terms, cross-multiply, reduce, else the 1e12 grid. Add
// must return exactly this for every input — the fast path is a
// cheaper route to the same canonical fraction, never a different
// answer.
func addRef(f, g Frac) Frac {
	f, g = f.reduce(), g.reduce()
	if n1, ok1 := mulOK(f.Num, g.Den); ok1 {
		if n2, ok2 := mulOK(g.Num, f.Den); ok2 {
			if d, ok3 := mulOK(f.Den, g.Den); ok3 {
				s, ok4 := addOK(n1, n2)
				if ok4 {
					return Frac{s, d}.reduce()
				}
			}
		}
	}
	const grid = 1_000_000_000_000
	fn := fixedPoint(f, grid)
	gn := fixedPoint(g, grid)
	return Frac{fn + gn, grid}.reduce()
}

// FuzzFracAddMatchesRef is the differential check for the fast paths
// in Frac.Add: unreduced inputs, negative numerators, denominators
// near the int64 limit, the zero value Frac{}.
func FuzzFracAddMatchesRef(f *testing.F) {
	f.Add(int64(1), int64(3), int64(1), int64(2))
	f.Add(int64(27_000), int64(270_000), int64(300_000), int64(900_000)) // unreduced
	f.Add(int64(-7), int64(12), int64(5), int64(18))                     // negative numerator
	f.Add(int64(0), int64(0), int64(3), int64(4))                        // Frac{} accumulator
	f.Add(int64(0), int64(0), int64(0), int64(0))
	f.Add(int64(5), int64(1<<31-1), int64(9), int64(1<<31-1))               // equal denominators at the shortcut's edge
	f.Add(int64(5), int64(1<<31), int64(9), int64(1<<31))                   // ... and just past it
	f.Add(int64(1<<31), int64(3), int64(-(1 << 31)), int64(3))              // equal denominators, wide numerators
	f.Add(int64(6), int64(3_037_000_500*2), int64(4), int64(3_037_000_500)) // unreduced product overflows, reduced fits
	f.Add(int64(1), int64(1<<31-1), int64(1), int64(1<<61-1))               // coprime: both overflow, grid fallback
	f.Add(int64(1), int64(math.MaxInt64), int64(1), int64(math.MaxInt64))
	f.Add(int64(math.MaxInt64), int64(1), int64(math.MaxInt64), int64(1)) // numerator sum overflows
	f.Add(int64(math.MinInt64), int64(1), int64(-1), int64(1))
	f.Fuzz(func(t *testing.T, an, ad, bn, bd int64) {
		if ad < 0 || bd < 0 {
			t.Skip() // a Frac's denominator is never negative
		}
		a, b := Frac{an, ad}, Frac{bn, bd}
		if got, want := a.Add(b), addRef(a, b); got != want {
			t.Fatalf("%v + %v = %v, reference %v", a, b, got, want)
		}
		if got, want := a.Sub(b), addRef(a, Frac{-bn, bd}); got != want {
			t.Fatalf("%v - %v = %v, reference %v", a, b, got, want)
		}
	})
}

// ratOf is f as a math/big rational, the reference Cmp is held to: it
// shares no code with Frac. The zero value Frac{} is the zero fraction.
func ratOf(f Frac) *big.Rat {
	if f.Den == 0 {
		return new(big.Rat)
	}
	return new(big.Rat).SetFrac(big.NewInt(f.Num), big.NewInt(f.Den))
}

// FuzzFracCmpMatchesBig holds Frac.Cmp — every admission decision — to
// math/big over the whole int64 range: unreduced terms, MinInt64
// numerators, the zero value, and cross products far past 64 bits.
func FuzzFracCmpMatchesBig(f *testing.F) {
	f.Add(int64(1), int64(3), int64(1), int64(2))
	f.Add(int64(27_000), int64(270_000), int64(300_000), int64(3_000_000)) // equal, unreduced
	f.Add(int64(-7), int64(12), int64(5), int64(18))
	f.Add(int64(-7), int64(12), int64(-5), int64(18))
	f.Add(int64(0), int64(0), int64(3), int64(4)) // Frac{}
	f.Add(int64(0), int64(0), int64(0), int64(7))
	f.Add(int64(9), int64(0), int64(-1), int64(7))                      // a zero denominator reads as zero whatever the numerator
	f.Add(int64(1<<62-1), int64(1<<62), int64(1<<62-3), int64(1<<62-2)) // differ by 2^-123: far below the 1e12 grid
	f.Add(int64(math.MinInt64), int64(1), int64(math.MinInt64), int64(2))
	f.Add(int64(math.MinInt64), int64(math.MaxInt64), int64(-1), int64(1))
	f.Add(int64(math.MaxInt64), int64(math.MaxInt64-1), int64(math.MaxInt64-1), int64(math.MaxInt64-2))
	f.Fuzz(func(t *testing.T, an, ad, bn, bd int64) {
		if ad < 0 || bd < 0 {
			t.Skip() // a Frac's denominator is never negative
		}
		a, b := Frac{an, ad}, Frac{bn, bd}
		want := ratOf(a).Cmp(ratOf(b))
		if got := a.Cmp(b); got != want {
			t.Fatalf("%v Cmp %v = %d, math/big says %d", a, b, got, want)
		}
		if got := b.Cmp(a); got != -want {
			t.Fatalf("%v Cmp %v = %d, math/big says %d", b, a, got, -want)
		}
		if got := a.LessOrEqual(b); got != (want <= 0) {
			t.Fatalf("%v LessOrEqual %v = %v, math/big Cmp says %d", a, b, got, want)
		}
	})
}

// TestFracCmpBelowTheGrid is the regression case for Cmp going through
// Sub: both cross products overflow an int64 and the two fractions
// differ by 2^-123, which Add's 1e12 grid rounds to equality.
func TestFracCmpBelowTheGrid(t *testing.T) {
	a, b := Frac{1<<62 - 1, 1 << 62}, Frac{1<<62 - 3, 1<<62 - 2} // 1 - 1/2^62 > 1 - 1/(2^62-2)
	if _, ok := mulOK(a.Num, b.Den); ok {
		t.Fatal("the case no longer overflows an int64 cross product")
	}
	if d := a.Sub(b); d.Num != 0 {
		t.Fatalf("a-b = %v: the grid now resolves this pair, pick a closer one", d)
	}
	want := ratOf(a).Cmp(ratOf(b))
	if got := a.Cmp(b); got != want || got == 0 {
		t.Fatalf("%v Cmp %v = %d, math/big says %d", a, b, got, want)
	}
	if a.LessOrEqual(b) || !b.LessOrEqual(a) {
		t.Fatalf("LessOrEqual disagrees with Cmp on %v, %v", a, b)
	}
}

// FuzzTickConversions checks microsecond/millisecond round trips.
func FuzzTickConversions(f *testing.F) {
	f.Add(int64(0))
	f.Add(int64(500))
	f.Add(int64(159_000_000))
	f.Fuzz(func(t *testing.T, us int64) {
		if us < 0 || us > 200_000_000 {
			t.Skip()
		}
		tk := FromMicroseconds(us)
		if got := tk.Microseconds(); got != us {
			t.Fatalf("us round trip: %d -> %v -> %d", us, tk, got)
		}
		d := tk.Duration()
		back := FromDuration(d)
		if diff := back - tk; diff < -1 || diff > 1 {
			t.Fatalf("duration round trip: %v -> %v -> %v", tk, d, back)
		}
	})
}

package ticks

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestConversionsRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		tk   Ticks
		d    time.Duration
	}{
		{"one second", PerSecond, time.Second},
		{"one millisecond", PerMillisecond, time.Millisecond},
		{"one microsecond", PerMicrosecond, time.Microsecond},
		{"mpeg 30Hz period", 900_000, time.Second / 30},
		{"min period", MinPeriod, 500 * time.Microsecond},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := FromDuration(c.d); got != c.tk {
				t.Errorf("FromDuration(%v) = %v, want %v", c.d, got, c.tk)
			}
			// Duration() may round by ≤1ns.
			got := c.tk.Duration()
			diff := got - c.d
			if diff < -time.Nanosecond || diff > time.Nanosecond {
				t.Errorf("(%v).Duration() = %v, want %v±1ns", c.tk, got, c.d)
			}
		})
	}
}

func TestPaperUnitExamples(t *testing.T) {
	// §4.1: MPEG at 30 fps requests period 900,000 ticks.
	if p := PerSecond / 30; p != 900_000 {
		t.Errorf("30 fps period = %d ticks, want 900000", p)
	}
	// §4.1: 72 Hz display refresh gives 375,000 ticks.
	if p := PerSecond / 72; p != 375_000 {
		t.Errorf("72 Hz period = %d ticks, want 375000", p)
	}
	// §4.1: MPEG needing 1/3 CPU picks CPU requirement 300,000 in a
	// 900,000 period.
	r := RateOf(300_000, 900_000)
	if r.Percent() < 33.2 || r.Percent() > 33.4 {
		t.Errorf("rate = %v, want ~33.3%%", r)
	}
}

func TestPeriodBounds(t *testing.T) {
	if MinPeriod != 13_500 {
		t.Errorf("MinPeriod = %d ticks, want 13500 (500us at 27MHz)", MinPeriod)
	}
	if MaxPeriod != 159*27_000_000 {
		t.Errorf("MaxPeriod = %d, want 159s of ticks", MaxPeriod)
	}
}

func TestCoreCycles(t *testing.T) {
	// One second of ticks is 200M core cycles.
	if c := PerSecond.CoreCycles(); c != CoreHz {
		t.Errorf("1s of ticks = %d core cycles, want %d", c, CoreHz)
	}
	// 27 ticks = 200 cycles exactly.
	if c := Ticks(27).CoreCycles(); c != 200 {
		t.Errorf("27 ticks = %d cycles, want 200", c)
	}
	if tk := FromCoreCycles(200); tk != 27 {
		t.Errorf("200 cycles = %v ticks, want 27", tk)
	}
}

func TestCoreCyclesRoundTripApprox(t *testing.T) {
	f := func(us uint16) bool {
		tk := FromMicroseconds(int64(us))
		back := FromCoreCycles(tk.CoreCycles())
		d := back - tk
		return d >= -1 && d <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestString holds the strconv rendering byte-equal to the fmt one it
// replaced, at zero, at exact multiples of each unit, at values that
// are multiples of none, at negative values and at the extremes.
func TestString(t *testing.T) {
	viaFmt := func(tk Ticks) string {
		switch {
		case tk == 0:
			return "0t"
		case tk%PerSecond == 0:
			return fmt.Sprintf("%ds", int64(tk/PerSecond))
		case tk%PerMillisecond == 0:
			return fmt.Sprintf("%dms", int64(tk/PerMillisecond))
		case tk%PerMicrosecond == 0:
			return fmt.Sprintf("%dus", int64(tk/PerMicrosecond))
		default:
			return fmt.Sprintf("%dt", int64(tk))
		}
	}
	cases := []struct {
		tk   Ticks
		want string
	}{
		{0, "0t"},
		{PerSecond, "1s"},
		{-120 * PerSecond, "-120s"},
		{3 * PerMillisecond, "3ms"},
		{-1500 * PerMillisecond, "-1500ms"},
		{500 * PerMicrosecond, "500us"},
		{-PerMicrosecond, "-1us"},
		{100, "100t"},
		{1, "1t"},
		{-1, "-1t"},
		{PerSecond + 1, "27000001t"},
		{math.MaxInt64, "9223372036854775807t"},
		{math.MinInt64, "-9223372036854775808t"},
		{math.MaxInt64 / PerSecond * PerSecond, "341606371735s"},
	}
	for _, c := range cases {
		if got := c.tk.String(); got != c.want || got != viaFmt(c.tk) {
			t.Errorf("(%d).String() = %q, want %q (fmt renders %q)", int64(c.tk), got, c.want, viaFmt(c.tk))
		}
	}
}

func TestMinMax(t *testing.T) {
	if Min(3, 5) != 3 || Min(5, 3) != 3 {
		t.Error("Min wrong")
	}
	if Max(3, 5) != 5 || Max(5, 3) != 5 {
		t.Error("Max wrong")
	}
}

func TestFracExactness(t *testing.T) {
	// Table 4 grant set: 10% + 52% + 33% must not round up to >=1
	// nor erroneously pass if it were over.
	modem := FracOf(27_000, 270_000) // 10%
	g3d := FracOf(143_156, 275_300)  // 52%
	mpeg := FracOf(270_000, 810_000) // 33.3%
	sum := modem.Add(g3d).Add(mpeg)
	if !sum.LessOrEqual(FracOne) {
		t.Errorf("Table 4 grant set sum %v > 1; should fit", sum.Float())
	}
	if sum.Float() < 0.95 || sum.Float() > 1.0 {
		t.Errorf("Table 4 sum = %v, want ~0.953", sum.Float())
	}
}

func TestFracBoundaryIsExact(t *testing.T) {
	// Ten tasks of exactly 10% each sum to exactly 1, not 0.9999…
	sum := FracZero
	for i := 0; i < 10; i++ {
		sum = sum.Add(FracOf(27_000, 270_000))
	}
	if sum.Cmp(FracOne) != 0 {
		t.Errorf("10 x 10%% = %v/%v, want exactly 1", sum.Num, sum.Den)
	}
	// One more 1-tick task must push it over.
	over := sum.Add(FracOf(1, MaxPeriod))
	if over.LessOrEqual(FracOne) {
		t.Error("sum just over 1 still admitted")
	}
}

func TestFracAddCommutesAndAssociates(t *testing.T) {
	f := func(a, b, c uint16) bool {
		// Build small positive fracs from arbitrary inputs.
		fa := FracOf(Ticks(a%997+1), Ticks(a%89+11))
		fb := FracOf(Ticks(b%997+1), Ticks(b%89+11))
		fc := FracOf(Ticks(c%997+1), Ticks(c%89+11))
		ab := fa.Add(fb)
		ba := fb.Add(fa)
		if ab.Cmp(ba) != 0 {
			return false
		}
		l := fa.Add(fb).Add(fc)
		r := fa.Add(fb.Add(fc))
		return l.Cmp(r) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestFracSub(t *testing.T) {
	a := FracOf(1, 2)
	b := FracOf(1, 3)
	d := a.Sub(b)
	if d.Cmp(FracOf(1, 6)) != 0 {
		t.Errorf("1/2 - 1/3 = %v/%v, want 1/6", d.Num, d.Den)
	}
}

func TestFracPercent(t *testing.T) {
	if p := FracPercent(4); p.Float() != 0.04 {
		t.Errorf("FracPercent(4) = %v, want 0.04", p.Float())
	}
}

func TestFracOverflowFallback(t *testing.T) {
	// Two fractions with huge co-prime denominators force the
	// fixed-point fallback; the result must still be very close.
	a := Frac{1, (1 << 31) - 1} // prime denominator
	b := Frac{1, (1 << 61) - 1} // Mersenne prime denominator
	sum := a.Add(b)
	want := a.Float() + b.Float()
	got := sum.Float()
	// The fallback grid has absolute resolution 1e-12.
	if diff := got - want; diff < -2e-12 || diff > 2e-12 {
		t.Errorf("overflow fallback sum = %v, want %v±2e-12", got, want)
	}
}

func TestMulOKAndGCDAtInt64Limits(t *testing.T) {
	const min, max = math.MinInt64, math.MaxInt64
	for _, c := range []struct {
		a, b, want int64
		ok         bool
	}{
		{min, -1, 0, false}, // 2^63 is not an int64; Go's min/-1 == min hid this from a quotient test
		{-1, min, 0, false},
		{min, 1, min, true},
		{1 << 62, -2, min, true}, // -2^63 is
		{1 << 62, 2, 0, false},
		{min, min, 0, false},
		{max, 1, max, true},
		{max, -1, -max, true},
		{max, 2, 0, false},
		{3_037_000_499, 3_037_000_499, 3_037_000_499 * 3_037_000_499, true},
		{3_037_000_500, 3_037_000_500, 0, false},
		{0, min, 0, true},
		{-6, 7, -42, true},
		{-6, -7, 42, true},
	} {
		got, ok := mulOK(c.a, c.b)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("mulOK(%d, %d) = %d, %v; want %d, %v", c.a, c.b, got, ok, c.want, c.ok)
		}
	}
	for _, c := range []struct{ a, b, want int64 }{
		{min, 6, 2}, // |MinInt64| = 2^63: a signed Euclid left it negative
		{min, 1 << 40, 1 << 40},
		{min, max, 1},
		{-12, 18, 6},
		{12, 18, 6},
		{0, 5, 5},
		{5, 0, 5},
		{0, 0, 1},
		{270_000, 27_000, 27_000},
		{max, max, max},
	} {
		if got := gcd(c.a, c.b); got != c.want {
			t.Errorf("gcd(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	if got, want := (Frac{min, 6}).reduce(), (Frac{min / 2, 3}); got != want {
		t.Errorf("Frac{MinInt64, 6}.reduce() = %v, want %v", got, want)
	}
}

func TestRateOfPanicsOnBadPeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("RateOf(1,0) did not panic")
		}
	}()
	RateOf(1, 0)
}

func TestMicrosecondsRounding(t *testing.T) {
	// 13 ticks is ~0.48us, rounds to 0; 14 ticks ~0.52us rounds to 1.
	if Ticks(13).Microseconds() != 0 {
		t.Error("13 ticks should round to 0us")
	}
	if Ticks(14).Microseconds() != 1 {
		t.Error("14 ticks should round to 1us")
	}
}

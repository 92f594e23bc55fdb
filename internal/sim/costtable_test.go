package sim

import (
	"testing"

	"repro/internal/ticks"
)

// tableDists are the distributions the table is checked on: the two
// the paper model uses, a hand-made steep one (shape ≈ 0.55, about two
// steps per bucket and far more towards the tail) and a degenerate one
// (no steps at all).
func tableDists() map[string]CostDist {
	paper := PaperSwitchCosts()
	steep := CostDist{Min: 2, Median: 6, Mean: 14}
	steep.calibrate()
	flat := CostDist{Min: 5, Median: 5, Mean: 5}
	flat.calibrate()
	return map[string]CostDist{
		"voluntary":   paper.Vol,
		"involuntary": paper.Invol,
		"steep":       steep,
		"degenerate":  flat,
	}
}

// formula is the oracle: costTicks with the distribution's own
// parameters, bypassing the table.
func formula(d CostDist, u uint64) ticks.Ticks {
	return costTicks(d.Min, d.scale, d.shape, u)
}

func TestSampleMatchesFormula(t *testing.T) {
	draws := 2_500_000 // × 4 distributions = 10⁷
	if testing.Short() {
		draws /= 10
	}
	const maxDraw = 1<<drawBits - 1
	for name, d := range tableDists() {
		d := d
		t.Run(name, func(t *testing.T) {
			check := func(u uint64) {
				t.Helper()
				if got, want := d.table.at(u), formula(d, u); got != want {
					t.Fatalf("draw %d: table says %d ticks, costTicks %d", u, got, want)
				}
			}

			// Seeded draws through Sample itself, against the formula on
			// a twin generator: same value, and the generator has moved
			// by exactly the one draw the formula took.
			sc := SwitchCosts{Vol: d}
			a, b := NewRNG(42), NewRNG(42)
			for i := 0; i < draws; i++ {
				got := sc.Sample(Voluntary, a)
				u := b.Uint64() >> (64 - drawBits)
				if want := formula(d, u); got != want {
					t.Fatalf("sample %d (draw %d) = %d ticks, costTicks %d", i, u, got, want)
				}
				if *a != *b {
					t.Fatalf("sample %d consumed other than one Uint64", i)
				}
			}

			// Every step's neighbourhood: the draws right at it (answered
			// by the fallback) and the first ones on either side that the
			// table answers itself.
			steps := d.table.steps[1 : len(d.table.steps)-1]
			for _, s := range steps {
				for off := int64(-64); off <= 64; off++ {
					check(uint64(s + off))
				}
				for _, off := range []int64{guardBand - 1, guardBand, guardBand + 1} {
					check(uint64(s + off))
					if s > off {
						check(uint64(s - off))
					}
				}
			}

			// The ends of the draw range and of the tabulated part.
			for _, u := range []uint64{0, 1, guardBand, maxDraw - 1, maxDraw} {
				check(u)
			}
			for off := uint64(0); off <= 64; off++ {
				check(tableEnd - guardBand - off)
				check(tableEnd - guardBand + off)
				check(tableEnd - off)
				check(tableEnd + off)
			}

			// The table covers what it claims: rank at the last tabulated
			// draw accounts for every step.
			if got, want := d.table.base+ticks.Ticks(len(steps)), formula(d, tableEnd); got != want {
				t.Errorf("base + %d steps = %d ticks, costTicks(tableEnd) = %d", len(steps), got, want)
			}
			if name == "degenerate" && len(steps) != 0 {
				t.Errorf("constant distribution has %d steps", len(steps))
			}
		})
	}
}

// TestStepNoiseFarInsideGuardBand measures the premise the guard band
// rests on. costTicks may wobble around a crossing by its own float
// error; it must have settled on the right side long before a draw is
// guardBand away. Probing every step at ±2^k shows it already has at
// 2^10 draws, a margin of 2^14 under the band.
func TestStepNoiseFarInsideGuardBand(t *testing.T) {
	for name, d := range tableDists() {
		tb := d.table
		tb.once.Do(tb.build)
		steps := tb.steps[1 : len(tb.steps)-1]
		for i, s := range steps {
			v := tb.base + ticks.Ticks(i+1) // the cost step i reaches
			for k := 10; k <= 24; k++ {
				off := int64(1) << k
				if up := formula(d, uint64(s+off)); up < v {
					t.Errorf("%s: step %d at draw %d: costTicks still %d < %d at +2^%d", name, i, s, up, v, k)
				}
				if s >= off {
					if down := formula(d, uint64(s-off)); down >= v {
						t.Errorf("%s: step %d at draw %d: costTicks already %d >= %d at -2^%d", name, i, s, down, v, k)
					}
				}
			}
		}
	}
}

// TestFallbackRate pins how often a paper-model sample takes the
// formula instead of the table: the tail bucket (2^-12) plus the guard
// bands (steps · 2^25 / 2^53) — a few in ten thousand.
func TestFallbackRate(t *testing.T) {
	paper := PaperSwitchCosts()
	for _, d := range []CostDist{paper.Vol, paper.Invol} {
		tb := d.table
		tb.once.Do(tb.build)
		steps := float64(len(tb.steps) - 2)
		rate := 1.0/(1<<tableBits) + steps*2*guardBand/(1<<drawBits)
		if rate > 3e-4 {
			t.Errorf("%d steps: fallback rate %.2e, want under 3e-4", len(tb.steps)-2, rate)
		}
	}
}

func FuzzSwitchSample(f *testing.F) {
	for _, u := range []uint64{0, 1, guardBand, tableEnd - guardBand, tableEnd, 1<<drawBits - 1, 0x123456789abcd} {
		f.Add(u, false)
		f.Add(u, true)
	}
	paper := PaperSwitchCosts()
	f.Fuzz(func(t *testing.T, u uint64, involuntary bool) {
		u &= 1<<drawBits - 1
		d := paper.Vol
		if involuntary {
			d = paper.Invol
		}
		if got, want := d.table.at(u), formula(d, u); got != want {
			t.Fatalf("draw %d involuntary=%v: table says %d ticks, costTicks %d", u, involuntary, got, want)
		}
	})
}

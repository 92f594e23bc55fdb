package rm

import (
	"testing"

	"repro/internal/policy"
	"repro/internal/task"
)

// TestCorrelationMatrix pins the §6.3 three-pass correlation on a
// matrix of exact scenarios: given stored policies and task menus,
// the grant levels must come out precisely as the algorithm
// specifies (pass 1 above-entries; pass 2 demotions least-important
// first, newest first on ties; pass 3 residual promotion
// most-important first).
func TestCorrelationMatrix(t *testing.T) {
	type taskSpec struct {
		name   string
		levels []int // percent of a 10ms period, max to min
	}
	type want struct {
		name string
		pct  int // expected granted percent
	}
	cases := []struct {
		name    string
		shares  map[string]int // stored policy (empty = invented)
		reserve int64
		tasks   []taskSpec
		want    []want
		passes  int
	}{
		{
			name: "pass1-above-fits",
			// Targets 50/30; above entries 50 and 30 exist and fit.
			shares: map[string]int{"a": 50, "b": 30},
			tasks: []taskSpec{
				{"a", []int{90, 50, 10}},
				{"b", []int{90, 30, 10}},
			},
			// Pass 3 then promotes "a" (highest share) to 70%... but
			// there is no 70 entry: next is 90, which does not fit
			// (90+30 > 100). b's 90 does not fit either. So pass 1
			// stands, leftover 20% unpromotable.
			want:   []want{{"a", 50}, {"b", 30}},
			passes: 1,
		},
		{
			name:   "pass2-demotes-least-important",
			shares: map[string]int{"a": 60, "b": 35},
			tasks: []taskSpec{
				// Above(60) = 70; above(35) = 40: 110% does not fit.
				{"a", []int{70, 55, 20}},
				{"b", []int{40, 25, 10}},
			},
			// b (smaller share) demotes first: 70+25 = 95 fits.
			// Pass 3: leftover 5, no entry step fits (a: 70->nothing
			// higher than 70 except none; b: 25->40 needs +15).
			want:   []want{{"a", 70}, {"b", 25}},
			passes: 2,
		},
		{
			name:   "pass3-promotes-most-important",
			shares: map[string]int{"a": 45, "b": 20},
			tasks: []taskSpec{
				// Above(45) = 50; above(20) = 20. Sum 70 fits; 30%
				// leftover promotes a (higher share) to 80.
				{"a", []int{80, 50, 10}},
				{"b", []int{60, 20, 5}},
			},
			want:   []want{{"a", 80}, {"b", 20}},
			passes: 3,
		},
		{
			name:   "invented-even-split-three",
			shares: nil, // invented: 33% each
			tasks: []taskSpec{
				{"a", []int{90, 40, 30, 10}},
				{"b", []int{90, 40, 30, 10}},
				{"c", []int{90, 40, 30, 10}},
			},
			// Above(33) = 40 each = 120 > 100: demote newest (c) to
			// 30: 110; then b to 30: 100 fits. Pass 3: leftover 0.
			want:   []want{{"a", 40}, {"b", 30}, {"c", 30}},
			passes: 2,
		},
		{
			name:    "reserve-shrinks-available",
			shares:  map[string]int{"a": 60, "b": 36},
			reserve: 10,
			tasks: []taskSpec{
				{"a", []int{60, 30}},
				{"b", []int{36, 18}},
			},
			// 60+36 = 96 > 90 available: b demotes to 18 (78 fits).
			want:   []want{{"a", 60}, {"b", 18}},
			passes: 2,
		},
		{
			name:   "min-floor-when-target-below-min",
			shares: map[string]int{"a": 5, "b": 80},
			tasks: []taskSpec{
				// a's minimum (20) exceeds its 5% target: it still
				// receives the minimum (admission guaranteed it).
				// "Above" the 5% target already resolves to the 20%
				// floor, so the set fits in pass 1.
				{"a", []int{50, 20}},
				{"b", []int{80, 40}},
			},
			want:   []want{{"a", 20}, {"b", 80}},
			passes: 1,
		},
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			box := policy.NewBox()
			if c.shares != nil {
				shares := policy.Ranking{}
				for n, s := range c.shares {
					shares[box.Register(n)] = s
				}
				if err := box.SetDefault(policy.Policy{Shares: shares}); err != nil {
					t.Fatal(err)
				}
			}
			m := New(Config{Box: box, InterruptReservePercent: c.reserve})
			ids := map[string]task.ID{}
			for _, spec := range c.tasks {
				id, err := m.RequestAdmittance(newTask(spec.name, task.UniformLevels(270_000, "F", spec.levels...)))
				if err != nil {
					t.Fatalf("admit %s: %v", spec.name, err)
				}
				ids[spec.name] = id
			}
			gs := m.Grants()
			for _, w := range c.want {
				got := gs.Of(ids[w.name]).Entry.Rate().Percent()
				if int(got+0.5) != w.pct {
					t.Errorf("%s granted %.1f%%, want %d%%", w.name, got, w.pct)
				}
			}
			if op := m.LastOp(); op.Passes != c.passes {
				t.Errorf("passes = %d, want %d (op %+v)", op.Passes, c.passes, op)
			}
			if !gs.TotalFrac().LessOrEqual(m.Available()) {
				t.Error("grant set exceeds available")
			}
		})
	}
}

package rm

import (
	"testing"

	"repro/internal/ticks"
)

// Pressure narrows the capacity the grant computation distributes:
// tasks shed resource-list levels, deterministically, and the decision
// is recorded. Lifting the pressure restores the original grants.
func TestPressureShedsGrantsAndRestores(t *testing.T) {
	m := New(Config{})
	a, err := m.RequestAdmittance(mpegTask()) // max 1/3, min 1/6
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.RequestAdmittance(graphics3DTask()) // max 80%, min 10%
	if err != nil {
		t.Fatal(err)
	}

	before := m.Grants()
	if before.Of(a).Level != 0 && before.Of(b).Level != 0 {
		// One of the two must be shed already (max sum > 100%): fine,
		// the test cares about the delta under pressure.
		t.Logf("baseline already on the policy path: levels %d/%d", before.Of(a).Level, before.Of(b).Level)
	}
	baseSum := before.Of(a).Entry.Frac().Add(before.Of(b).Entry.Frac())

	// Withhold 40% of the CPU.
	m.SetPressure(1000, ticks.FracPercent(40), "test: interrupt storm")
	during := m.Grants()
	sum := during.Of(a).Entry.Frac().Add(during.Of(b).Entry.Frac())
	if !sum.LessOrEqual(m.capacityForGrants()) {
		t.Errorf("degraded grants sum %.4f exceeds degraded capacity %.4f",
			sum.Float(), m.capacityForGrants().Float())
	}
	if sum.Cmp(baseSum) >= 0 {
		t.Errorf("pressure did not shed anything: %.4f -> %.4f", baseSum.Float(), sum.Float())
	}
	// Minimums survive: §4.1's guarantee is not negotiable.
	if during.Of(a).Entry.Frac().Cmp(mpegTask().List.MinFrac()) < 0 {
		t.Error("task a granted below its admitted minimum")
	}
	if during.Of(b).Entry.Frac().Cmp(graphics3DTask().List.MinFrac()) < 0 {
		t.Error("task b granted below its admitted minimum")
	}

	evs := m.DegradationEvents()
	if len(evs) != 1 {
		t.Fatalf("recorded %d degradation events, want 1", len(evs))
	}
	ev := evs[0]
	if ev.At != 1000 || ev.Reason != "test: interrupt storm" {
		t.Errorf("event = %+v, want At=1000 and the given reason", ev)
	}
	if !ev.PolicyConsulted {
		t.Error("shed decision did not consult the Policy Box")
	}
	if ev.Generation != 1 {
		t.Errorf("generation %d, want 1", ev.Generation)
	}

	// Re-asserting the same pressure is a no-op (governors re-assert
	// every sample interval).
	m.SetPressure(2000, ticks.FracPercent(40), "test: still storming")
	if got := len(m.DegradationEvents()); got != 1 {
		t.Errorf("re-asserting identical pressure logged %d events, want 1", got)
	}

	// Lifting the pressure restores the original grant set.
	m.SetPressure(3000, ticks.FracZero, "test: storm over")
	after := m.Grants()
	if after.Of(a) != before.Of(a) || after.Of(b) != before.Of(b) {
		t.Errorf("grants not restored after pressure lifted: %+v vs %+v", after, before)
	}
	if got := len(m.DegradationEvents()); got != 2 {
		t.Errorf("%d degradation events after lift, want 2", got)
	}
}

// The minSum floor: pressure can never push capacity below the
// admission running sum, so every admitted minimum stays deliverable
// no matter how hard the governor squeezes.
func TestPressureFlooredAtAdmittedMinimums(t *testing.T) {
	m := New(Config{})
	for i := 0; i < 4; i++ {
		// min 1/6 each => minSum 4/6
		if _, err := m.RequestAdmittance(newTask(string(rune('a'+i)), mpegTask().List)); err != nil {
			t.Fatal(err)
		}
	}
	m.SetPressure(0, ticks.FracPercent(99), "test: crush")
	if got, want := m.capacityForGrants(), m.MinSum(); got.Cmp(want) != 0 {
		t.Errorf("capacity under 99%% pressure = %.4f, want the minSum floor %.4f",
			got.Float(), want.Float())
	}
	gs := m.Grants()
	if gs.Len() != 4 {
		t.Fatalf("grant set has %d entries, want 4", gs.Len())
	}
	sum := ticks.FracZero
	for _, id := range gs.IDs() {
		g := gs.Of(id)
		if g.Entry.Frac().Cmp(mpegTask().List.MinFrac()) < 0 {
			t.Errorf("task %d granted %.4f, below its minimum", id, g.Entry.Frac().Float())
		}
		sum = sum.Add(g.Entry.Frac())
	}
	if !sum.LessOrEqual(m.Available()) {
		t.Errorf("granted sum %.4f exceeds schedulable CPU", sum.Float())
	}
	ev := m.DegradationEvents()[0]
	if ev.Applied.Cmp(ev.Requested) >= 0 {
		t.Errorf("applied reduction %.4f not clamped below requested %.4f",
			ev.Applied.Float(), ev.Requested.Float())
	}
}

// Admission is immune to pressure: the schedulable fraction for the
// O(1) admission test stays Available() so a task that fits the
// paper's contract is never bounced by a transient fault.
func TestPressureDoesNotAffectAdmission(t *testing.T) {
	m := New(Config{})
	m.SetPressure(0, ticks.FracPercent(90), "test: heavy pressure, empty system")
	if _, err := m.RequestAdmittance(mpegTask()); err != nil {
		t.Errorf("admission under pressure failed: %v", err)
	}
}

// TestPressureRampAccounting drives SetPressure through ramp
// sequences — staircases up, recoveries down, governor-style
// re-assertions — and checks the degradation ledger's contract:
// generations advance monotonically, every *distinct* pressure
// transition is recorded exactly once (re-asserting the current value
// is a no-op), and every record carries the timestamp, reason and
// post-floor applied reduction of its decision. Nothing is lost,
// nothing is duplicated.
func TestPressureRampAccounting(t *testing.T) {
	type step struct {
		at  ticks.Ticks
		pct int // pressure in percent; repeats model governor re-assertion
	}
	cases := []struct {
		name       string
		steps      []step
		wantEvents int // distinct transitions
	}{
		{
			name:       "staircase-up",
			steps:      []step{{100, 10}, {200, 20}, {300, 30}, {400, 40}},
			wantEvents: 4,
		},
		{
			name:       "ramp-up-then-recover",
			steps:      []step{{100, 25}, {200, 50}, {300, 25}, {400, 0}},
			wantEvents: 4,
		},
		{
			name:       "governor-reassertion-is-noop",
			steps:      []step{{100, 30}, {110, 30}, {120, 30}, {200, 45}, {210, 45}, {300, 0}},
			wantEvents: 3,
		},
		{
			name:       "sawtooth",
			steps:      []step{{100, 40}, {200, 0}, {300, 40}, {400, 0}, {500, 40}},
			wantEvents: 5,
		},
		{
			name:       "zero-start-is-noop",
			steps:      []step{{100, 0}, {200, 0}, {300, 15}},
			wantEvents: 1,
		},
		{
			name:       "negative-clamps-to-zero",
			steps:      []step{{100, 20}, {200, -5}, {300, -5}},
			wantEvents: 2, // -5 clamps to 0: one real lift, then a no-op
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := New(Config{})
			if _, err := m.RequestAdmittance(mpegTask()); err != nil {
				t.Fatal(err)
			}
			if _, err := m.RequestAdmittance(graphics3DTask()); err != nil {
				t.Fatal(err)
			}
			baseGen := int64(len(m.DegradationEvents()))
			for _, s := range tc.steps {
				p := ticks.FracPercent(int64(s.pct))
				if s.pct < 0 {
					p = ticks.Frac{Num: int64(s.pct), Den: 100}
				}
				m.SetPressure(s.at, p, tc.name)
			}
			evs := m.DegradationEvents()
			if len(evs) != tc.wantEvents {
				t.Fatalf("recorded %d degradation events, want %d: %+v", len(evs), tc.wantEvents, evs)
			}
			// One generation per recorded event, strictly increasing.
			prevGen := baseGen
			prevAt := ticks.Ticks(-1)
			for i, ev := range evs {
				if ev.Generation <= prevGen {
					t.Errorf("event %d: generation %d not monotone (prev %d)", i, ev.Generation, prevGen)
				}
				if ev.Generation != prevGen+1 {
					t.Errorf("event %d: generation %d skipped a revision (prev %d): a shed went unrecorded",
						i, ev.Generation, prevGen)
				}
				if ev.At < prevAt {
					t.Errorf("event %d: timestamp %d before predecessor %d", i, ev.At, prevAt)
				}
				if ev.Reason != tc.name {
					t.Errorf("event %d: reason %q, want %q", i, ev.Reason, tc.name)
				}
				if ev.Applied.Cmp(ev.Requested) > 0 {
					t.Errorf("event %d: applied %.4f exceeds requested %.4f",
						i, ev.Applied.Float(), ev.Requested.Float())
				}
				if ev.Applied.Num < 0 {
					t.Errorf("event %d: negative applied reduction %.4f", i, ev.Applied.Float())
				}
				prevGen, prevAt = ev.Generation, ev.At
			}
			// The ramp always ends with known pressure in force.
			last := tc.steps[len(tc.steps)-1].pct
			if last < 0 {
				last = 0
			}
			if m.Pressure().Cmp(ticks.FracPercent(int64(last))) != 0 {
				t.Errorf("final pressure %.4f, want %d%%", m.Pressure().Float(), last)
			}
		})
	}
}

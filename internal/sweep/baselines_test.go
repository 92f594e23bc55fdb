package sweep

import (
	"reflect"
	"testing"

	"repro/internal/ticks"
)

func baselineScenarioNames() []string { return expandFamilies([]string{BaselineFamily}) }

// TestBaselineFamilyExpansion checks that the matrix scenario name
// "baseline" expands to exactly the baseline-* scenarios, in registry
// order, and composes with explicitly named scenarios.
func TestBaselineFamilyExpansion(t *testing.T) {
	members := baselineScenarioNames()
	if len(members) < 3 {
		t.Fatalf("expected at least 3 baseline scenarios, found %v", members)
	}

	specs, err := (Matrix{
		Scenarios:  []string{"settop", BaselineFamily},
		CostModels: []string{"zero"},
		Policies:   []string{PolicyInvent},
		Seeds:      []uint64{1},
		Horizon:    100 * ticks.PerMillisecond,
	}).Specs()
	if err != nil {
		t.Fatal(err)
	}
	want := append([]string{"settop"}, members...)
	var got []string
	for _, s := range specs {
		got = append(got, s.Scenario)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("family expansion = %v, want %v", got, want)
	}
}

// TestBaselineScenariosDeterministic replays every baseline scenario
// under every policy it supports: same spec, byte-identical metrics,
// no errors. The lottery policy is the interesting case — its draws
// must come entirely from the run's own seeded substream.
func TestBaselineScenariosDeterministic(t *testing.T) {
	for _, sc := range baselineScenarioNames() {
		scen, ok := scenarioByName(sc)
		if !ok {
			t.Fatalf("scenario %q not registered", sc)
		}
		for _, pol := range scen.Policies {
			spec := RunSpec{Scenario: sc, CostModel: "paper", Policy: pol,
				Seed: 11, Horizon: 400 * ticks.PerMillisecond}
			a, b := runFresh(spec), runFresh(spec)
			if a.Err != "" {
				t.Fatalf("%s/%s: %s", sc, pol, a.Err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s/%s: replay diverged:\n a: %+v\n b: %+v", sc, pol, a, b)
			}
		}
	}
}

// TestBaselineComparatorsDiscriminate reproduces the §3.5 claim at
// sweep level: under identical 120-165%% offered load, the RD column
// records zero unplanned loss (honest shedding, menu denial) while
// every proportional-share comparator loses work by accident of
// timing. If the comparators ever stop losing, the experiment no
// longer discriminates and the family is worthless as a baseline.
func TestBaselineComparatorsDiscriminate(t *testing.T) {
	const horizon = 900 * ticks.PerMillisecond
	for _, sc := range []string{"baseline-media", "baseline-overload"} {
		ref := runFresh(RunSpec{Scenario: sc, CostModel: "paper", Policy: PolicyInvent,
			Seed: 3, Horizon: horizon})
		if ref.Err != "" {
			t.Fatalf("%s/invent: %s", sc, ref.Err)
		}
		if ref.Loss != 0 {
			t.Errorf("%s/invent: RD reference lost %d units, want 0", sc, ref.Loss)
		}
		for _, pol := range []string{PolicyBaselineFairShare, PolicyBaselineLottery,
			PolicyBaselineStride, PolicyBaselineCFS} {
			m := runFresh(RunSpec{Scenario: sc, CostModel: "paper", Policy: pol,
				Seed: 3, Horizon: horizon})
			if m.Err != "" {
				t.Fatalf("%s/%s: %s", sc, pol, m.Err)
			}
			if m.Loss == 0 {
				t.Errorf("%s/%s: comparator lost nothing under overload; experiment does not discriminate", sc, pol)
			}
			if m.CompletedPeriods == 0 {
				t.Errorf("%s/%s: comparator completed no periods — scheduler not running?", sc, pol)
			}
		}
	}
}

// TestBaselineStreamerPoliciesDiffer pins that the allocator axis is
// live: the contended-streamer scenario must move bytes under every
// policy, and max-min fair must produce a different outcome than the
// metered reference (if all three collapse to the same numbers the
// policy knob is dead wiring).
func TestBaselineStreamerPoliciesDiffer(t *testing.T) {
	const horizon = 900 * ticks.PerMillisecond
	out := make(map[string]RunMetrics)
	for _, pol := range []string{PolicyInvent, PolicyStreamerMaxMin, PolicyStreamerMaxThru} {
		m := runFresh(RunSpec{Scenario: "baseline-streamer", CostModel: "paper", Policy: pol,
			Seed: 3, Horizon: horizon})
		if m.Err != "" {
			t.Fatalf("%s: %s", pol, m.Err)
		}
		if m.Telemetry.CounterValue("streamer.bytes") == 0 {
			t.Errorf("%s: no DMA bytes moved", pol)
		}
		if m.Opportunities == 0 {
			t.Errorf("%s: no frames submitted", pol)
		}
		out[pol] = m
	}
	a, b := out[PolicyInvent], out[PolicyStreamerMaxMin]
	ab, bb := a.Telemetry.CounterValue("streamer.bytes"), b.Telemetry.CounterValue("streamer.bytes")
	if a.Loss == b.Loss && ab == bb {
		t.Errorf("metered and max-min produced identical loss=%d bytes=%d; allocator axis is dead", a.Loss, ab)
	}
}

// TestStreamerRunAllocsIndependentOfHorizon: on a warm worker a
// baseline-streamer run allocates what it keeps, not something per DMA
// frame, so doubling the horizon may add only the growth of a queue's
// backing. (A frame once cost a transfer, a completion closure and its
// onDone closure: ≈ 1 300 allocations a run at 2 s, ≈ 2 500 at 4 s.)
func TestStreamerRunAllocsIndependentOfHorizon(t *testing.T) {
	for _, pol := range []string{PolicyInvent, PolicyStreamerMaxMin, PolicyStreamerMaxThru} {
		w := newWorker()
		allocs := func(horizon ticks.Ticks) float64 {
			spec := RunSpec{Scenario: "baseline-streamer", CostModel: "paper", Policy: pol, Seed: 5, Horizon: horizon}
			return testing.AllocsPerRun(3, func() {
				if m := runOne(spec, w); m.Err != "" {
					t.Fatalf("%s: %s", pol, m.Err)
				}
			})
		}
		short, long := allocs(2*ticks.PerSecond), allocs(4*ticks.PerSecond)
		if long > short+8 {
			t.Errorf("%s: a warm 4 s run allocates %.0f times, a 2 s run %.0f: allocation grows with the frame count", pol, long, short)
		}
		t.Logf("%s: %.0f allocations at 2 s, %.0f at 4 s", pol, short, long)
	}
}

package sweep

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/ticks"
)

func faultScenarioNames() []string { return expandFamilies([]string{FaultFamily}) }

// TestFaultFamilyExpansion checks that the matrix scenario name
// "fault" expands to exactly the fault-* scenarios, in registry
// order, and composes with explicitly named scenarios.
func TestFaultFamilyExpansion(t *testing.T) {
	members := faultScenarioNames()
	if len(members) < 5 {
		t.Fatalf("expected at least 5 fault scenarios, found %v", members)
	}

	specs, err := (Matrix{
		Scenarios:  []string{"settop", FaultFamily},
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

// TestFaultScenariosAreViolationFree is the family's acceptance
// contract: every injector-enabled run completes without error and
// reports zero guarantee violations for its admitted well-behaved
// tasks — each fault is either contained or every consequence is a
// recorded miss or degradation, never a silent breach. FaultsInjected
// proves the injectors actually fired rather than trivially passing.
func TestFaultScenariosAreViolationFree(t *testing.T) {
	for _, sc := range faultScenarioNames() {
		for _, cm := range []string{"zero", "paper"} {
			for seed := uint64(1); seed <= 4; seed++ {
				m := runFresh(RunSpec{Scenario: sc, CostModel: cm, Policy: PolicyInvent,
					Seed: seed, Horizon: 300 * ticks.PerMillisecond})
				if m.Err != "" {
					t.Fatalf("%s/%s seed %d failed: %s", sc, cm, seed, m.Err)
				}
				if m.Violations != 0 {
					t.Errorf("%s/%s seed %d: %d guarantee violations", sc, cm, seed, m.Violations)
				}
				if m.FaultsInjected == 0 {
					t.Errorf("%s/%s seed %d: no faults fired; the scenario is vacuous", sc, cm, seed)
				}
				if m.Opportunities == 0 {
					t.Errorf("%s/%s seed %d: baseline workload ran no periods", sc, cm, seed)
				}
			}
		}
	}
}

// TestFaultScenariosDeterministic replays each fault scenario and
// demands identical metrics: all injector randomness comes from
// SplitSeed substreams of the run seed, so a spec is a replay key.
func TestFaultScenariosDeterministic(t *testing.T) {
	for _, sc := range faultScenarioNames() {
		spec := RunSpec{Scenario: sc, CostModel: "paper", Policy: PolicyInvent,
			Seed: 9, Horizon: 300 * ticks.PerMillisecond}
		a, b := runFresh(spec), runFresh(spec)
		if a.Err != "" || b.Err != "" {
			t.Fatalf("%s failed: %q / %q", sc, a.Err, b.Err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s same-spec runs diverged:\n%+v\n%+v", sc, a, b)
		}
	}
}

// TestStormDegradationIsRecordedPolicyDecision drives the fault-storm
// scenario directly and inspects the Manager's degradation log: the
// governor must respond to the storm by applying pressure (grants
// shed via the policy machinery) and lifting it when the storm
// passes, with every change recorded — and the run must still close
// with zero guarantee violations.
func TestStormDegradationIsRecordedPolicyDecision(t *testing.T) {
	e, err := newEnv(RunSpec{Scenario: "fault-storm", CostModel: "zero", Policy: PolicyInvent,
		Seed: 5, Horizon: 300 * ticks.PerMillisecond}, newWorker())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.sc.run(e); err != nil {
		t.Fatal(err)
	}

	evs := e.d.Manager().DegradationEvents()
	if len(evs) == 0 {
		t.Fatal("storm over the reserve recorded no degradation decisions")
	}
	var applied, lifted bool
	for _, ev := range evs {
		if ev.Reason == "" {
			t.Errorf("degradation at t=%d carries no reason", int64(ev.At))
		}
		if ev.Requested.Num > 0 {
			applied = true
		} else {
			lifted = true
		}
	}
	if !applied {
		t.Error("no pressure was ever applied")
	}
	if !lifted {
		t.Error("pressure was never lifted after the storm passed")
	}
	if n := e.flog.CountKind("fault.storm"); n == 0 {
		t.Error("no storm bursts logged")
	}

	if e.m.Violations != 0 {
		t.Errorf("degraded run has %d guarantee violations; degradation must be a recorded decision, not a breach", e.m.Violations)
		for _, ev := range e.flog.Events() {
			if strings.HasPrefix(ev.Kind, "invariant.") {
				t.Log(ev.Detail)
			}
		}
	}
}

// TestPolicyFaultNeverMutatesOnReject scans the fault-policy scenario
// for the one event kind that marks a real bug: a rejected Load that
// still changed the Box.
func TestPolicyFaultNeverMutatesOnReject(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		e, err := newEnv(RunSpec{Scenario: "fault-policy", CostModel: "zero", Policy: PolicyInvent,
			Seed: seed, Horizon: 300 * ticks.PerMillisecond}, newWorker())
		if err != nil {
			t.Fatal(err)
		}
		if err := e.sc.run(e); err != nil {
			t.Fatal(err)
		}
		if n := e.flog.CountKind("fault.policy-mutated"); n != 0 {
			t.Errorf("seed %d: %d rejected Loads mutated the box:\n%s", seed, n, e.flog.String())
		}
	}
}

package sweep

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/fleet"
	"repro/internal/ticks"
)

// TestArenaReuseMatchesFresh drives one arena through the sequence a
// sweep worker can meet — fleet-crash on 120 nodes, fleet-spill on 16,
// fleet-surge on 48, fleet-crash on 120 again, so the fleet shrinks and
// regrows and nodes crash, dump and restart in recycled shells — under
// every placement and cost model, and holds each run to the same spec
// run in an arena of its own: equal RunMetrics, equal sweep JSON, and
// equal flight dumps, the dumps read only after the arena has moved on
// to later clusters.
func TestArenaReuseMatchesFresh(t *testing.T) {
	type outcome struct {
		m      RunMetrics
		report *fleet.Report
	}
	run := func(spec RunSpec, w *worker) outcome {
		e, err := newEnv(spec, w)
		if err == nil {
			err = e.sc.run(e)
		}
		if err != nil || e.m.Err != "" {
			t.Fatalf("%+v: %v %s", spec, err, e.m.Err)
		}
		return outcome{e.m, e.report}
	}

	var specs []RunSpec
	for _, cm := range []string{"zero", "paper"} {
		for _, pol := range []string{PolicyFleetFirstFit, PolicyFleetLeastLoaded, PolicyFleetRRHash} {
			for _, sc := range []string{"fleet-crash", "fleet-spill", "fleet-surge", "fleet-crash"} {
				specs = append(specs, RunSpec{
					Index: len(specs), Scenario: sc, CostModel: cm, Policy: pol,
					Seed: uint64(1 + len(specs)), Horizon: 600 * ticks.PerMillisecond,
				})
			}
		}
	}

	w := newWorker()
	reused, fresh := make([]outcome, len(specs)), make([]outcome, len(specs))
	for i, spec := range specs {
		reused[i] = run(spec, w)
		fresh[i] = run(spec, newWorker())
	}

	resR, resF := newResult(), newResult()
	var dumps, restarts int
	for i, spec := range specs {
		if !reflect.DeepEqual(reused[i].m, fresh[i].m) {
			t.Errorf("run %d (%s/%s/%s): metrics differ from a fresh arena's\n reused: %+v\n  fresh: %+v",
				i, spec.Scenario, spec.CostModel, spec.Policy, reused[i].m, fresh[i].m)
		}
		dr, err := json.Marshal(reused[i].report.FlightDumps)
		if err != nil {
			t.Fatal(err)
		}
		df, err := json.Marshal(fresh[i].report.FlightDumps)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dr, df) {
			t.Errorf("run %d (%s/%s/%s): flight dumps differ from a fresh arena's (%d vs %d bytes)",
				i, spec.Scenario, spec.CostModel, spec.Policy, len(dr), len(df))
		}
		dumps += len(reused[i].report.FlightDumps)
		restarts += int(reused[i].report.Restarts)
		resR.add(spec, &reused[i].m)
		resF.add(spec, &fresh[i].m)
	}
	if dumps == 0 || restarts == 0 {
		t.Fatalf("the sequence produced %d dumps and %d restarts; it must exercise both", dumps, restarts)
	}
	resR.TotalRuns, resF.TotalRuns = len(specs), len(specs)
	if !bytes.Equal(resultJSONBytes(t, resR), resultJSONBytes(t, resF)) {
		t.Error("sweep JSON over the reused arena differs from the fresh-arena JSON")
	}
}

// TestSweepFleetWorkerInvariance: which worker's arena a fleet cell is
// built in, and what that arena built before, depends on the worker
// count and on scheduling; the aggregated JSON may depend on neither.
// Under -race it also shows that no two workers touch one arena.
func TestSweepFleetWorkerInvariance(t *testing.T) {
	assertWorkerInvariant(t, Matrix{
		Scenarios:  []string{FleetFamily},
		CostModels: []string{"paper"},
		Seeds:      SeedRange(1, 3),
		Horizon:    300 * ticks.PerMillisecond,
	}, 1, 3)
}

// TestWorkerReuseMatchesFresh interleaves the four families, so one
// worker's registry is handed from a paper-core run to a fault run (the
// checker's and the injectors' instruments appear), to a comparator
// (a bare kernel: most names retire), to a fleet run (which leaves it
// alone) and back, and a name one scenario registers must not leak
// into the next one's snapshot. Every run must equal the same spec run
// in storage of its own, and the aggregated JSON must not depend on how
// many workers shared the runs out.
func TestWorkerReuseMatchesFresh(t *testing.T) {
	m := Matrix{
		Scenarios: []string{
			"settop", "fault-crash", "baseline-media", "fleet-spill",
			"studio", "fault-storm", "baseline-streamer", "fleet-surge",
			"quiescent", "fault-policy", "baseline-overload", "media",
		},
		CostModels: []string{"paper"},
		Seeds:      SeedRange(1, 2),
		Horizon:    300 * ticks.PerMillisecond,
	}
	specs, err := m.Specs()
	if err != nil {
		t.Fatal(err)
	}
	// Seed-major, so consecutive runs are of different scenarios.
	w := newWorker()
	for _, seed := range m.Seeds {
		for _, spec := range specs {
			if spec.Seed != seed {
				continue
			}
			reused, fresh := runOne(spec, w), runFresh(spec)
			if reused.Err != "" {
				t.Fatalf("%+v: %s", spec, reused.Err)
			}
			if !reflect.DeepEqual(reused, fresh) {
				t.Errorf("%s/%s seed %d: metrics on a reused worker differ from a fresh one's\n reused: %+v\n  fresh: %+v",
					spec.Scenario, spec.Policy, spec.Seed, reused, fresh)
			}
		}
	}
	assertWorkerInvariant(t, m, 1, 2, 3)
}

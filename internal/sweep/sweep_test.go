package sweep

import (
	"bytes"
	"flag"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/ticks"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// smallMatrix covers every scenario with enough seeds to cross a
// chunk-free aggregation but stay fast.
func smallMatrix() Matrix {
	return Matrix{
		Scenarios:  ScenarioNames(),
		CostModels: []string{"zero", "paper"},
		Policies:   AllPolicies(),
		Seeds:      SeedRange(1, 4),
		Horizon:    300 * ticks.PerMillisecond,
	}
}

// runFresh is runOne in storage nothing else has built in.
func runFresh(spec RunSpec) RunMetrics { return runOne(spec, newWorker()) }

func resultJSONBytes(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWorkerCountInvariance is the tentpole contract: the aggregated
// JSON must be byte-identical whatever the worker pool size, because
// workers only fill an index-addressed slice and aggregation runs
// afterwards in fixed-size chunks merged in spec order.
func TestWorkerCountInvariance(t *testing.T) {
	assertWorkerInvariant(t, smallMatrix(), 1, 3, 8)
}

// assertWorkerInvariant runs m at each worker count and fails unless
// every run succeeds and all the aggregated JSON is byte-identical.
func assertWorkerInvariant(t *testing.T, m Matrix, workerCounts ...int) {
	t.Helper()
	var ref []byte
	for _, workers := range workerCounts {
		res, err := Run(m, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if n := res.Errors(); n != 0 {
			t.Fatalf("workers=%d: %d failed runs: %s", workers, n, res.Table())
		}
		got := resultJSONBytes(t, res)
		if ref == nil {
			ref = got
			continue
		}
		if !bytes.Equal(ref, got) {
			t.Fatalf("workers=%d JSON differs from workers=%d (%d vs %d bytes)", workers, workerCounts[0], len(got), len(ref))
		}
	}
}

// TestConcurrentSameSeedIsolation runs the same spec on many
// goroutines at once and demands identical metrics from each. Under
// `go test -race` this is the kernel-isolation audit: any shared
// mutable state between concurrently running kernels shows up as a
// race or a divergent result.
func TestConcurrentSameSeedIsolation(t *testing.T) {
	for _, sc := range Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			spec := RunSpec{
				Scenario:  sc.Name,
				CostModel: "paper",
				Policy:    sc.Policies[0],
				Seed:      42,
				Horizon:   200 * ticks.PerMillisecond,
			}

			const n = 8
			out := make([]RunMetrics, n)
			var wg sync.WaitGroup
			wg.Add(n)
			for i := 0; i < n; i++ {
				go func(i int) {
					defer wg.Done()
					out[i] = runFresh(spec)
				}(i)
			}
			wg.Wait()
			for i := 0; i < n; i++ {
				if out[i].Err != "" {
					t.Fatalf("run %d failed: %s", i, out[i].Err)
				}
				if !reflect.DeepEqual(out[0], out[i]) {
					t.Fatalf("concurrent same-seed runs diverged:\n run 0: %+v\n run %d: %+v", out[0], i, out[i])
				}
			}
		})
	}
}

// TestStressScenarioDeterministic pins the seed-jittered generator:
// same spec, same metrics; different seed, different workload (the
// jitter really derives from the seed).
func TestStressScenarioDeterministic(t *testing.T) {
	spec := RunSpec{Scenario: "stress", CostModel: "paper", Policy: PolicyInvent,
		Seed: 7, Horizon: 400 * ticks.PerMillisecond}
	a, b := runFresh(spec), runFresh(spec)
	if a.Err != "" || b.Err != "" {
		t.Fatalf("stress run failed: %q / %q", a.Err, b.Err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same stress spec diverged:\n%+v\n%+v", a, b)
	}
	spec.Seed = 8
	c := runFresh(spec)
	if c.Err != "" {
		t.Fatalf("stress run failed: %q", c.Err)
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical stress metrics; the generator ignores the seed")
	}
}

// TestSpecsExpansion checks matrix validation and the policy filter.
func TestSpecsExpansion(t *testing.T) {
	if _, err := (Matrix{Scenarios: []string{"nope"}, Seeds: []uint64{1}}).Specs(); err == nil {
		t.Error("unknown scenario accepted")
	}
	if _, err := (Matrix{CostModels: []string{"nope"}, Seeds: []uint64{1}}).Specs(); err == nil {
		t.Error("unknown cost model accepted")
	}
	if _, err := (Matrix{Policies: []string{"nope"}, Seeds: []uint64{1}}).Specs(); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := (Matrix{}).Specs(); err == nil {
		t.Error("matrix without seeds accepted")
	}

	// overload supports only the invented policy: asking for all
	// three must produce exactly one cell's worth of specs.
	specs, err := (Matrix{
		Scenarios:  []string{"overload"},
		CostModels: []string{"zero"},
		Seeds:      SeedRange(1, 3),
	}).Specs()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 {
		t.Fatalf("expected 3 specs (policy filter), got %d", len(specs))
	}
	for i, s := range specs {
		if s.Policy != PolicyInvent {
			t.Errorf("spec %d policy = %q, want %q", i, s.Policy, PolicyInvent)
		}
		if s.Index != i {
			t.Errorf("spec %d carries Index %d", i, s.Index)
		}
		if s.Horizon != DefaultHorizon {
			t.Errorf("spec %d horizon = %v, want default %v", i, s.Horizon, DefaultHorizon)
		}
	}

	// A policy no requested scenario supports expands to zero runs.
	if _, err := (Matrix{
		Scenarios: []string{"overload"},
		Policies:  []string{PolicyAudioFirst},
		Seeds:     []uint64{1},
	}).Specs(); err == nil {
		t.Error("empty expansion accepted")
	}

	// A name given twice would run its cells twice and double their
	// run counts; the error must name the repeat.
	for _, m := range []struct {
		repeat string
		Matrix
	}{
		{"media", Matrix{Scenarios: []string{"media", "media"}}},
		{"fault-overrun", Matrix{Scenarios: []string{FaultFamily, "fault-overrun"}}},
		{"fleet-spill", Matrix{Scenarios: []string{"fleet-spill", "settop", FleetFamily}}},
		{"paper", Matrix{CostModels: []string{"paper", "zero", "paper"}}},
		{PolicyInvent, Matrix{Policies: []string{PolicyInvent, PolicyInvent}}},
	} {
		m.Seeds = []uint64{1}
		_, err := m.Specs()
		if err == nil {
			t.Errorf("matrix naming %q twice accepted", m.repeat)
		} else if !strings.Contains(err.Error(), strconv.Quote(m.repeat)) {
			t.Errorf("repeat of %q reported as %q, which does not name it", m.repeat, err)
		}
	}
}

// TestDefaultExpansion pins what a sweep cell is: a matrix that names
// nothing expands to exactly these 80 (scenario, cost model, policy)
// triples in this order — each scenario crossed with the values of its
// one axis that it stages, and nothing from any other axis.
func TestDefaultExpansion(t *testing.T) {
	box := []string{PolicyInvent, PolicyAudioFirst, PolicyVideoFirst}
	comparators := []string{PolicyInvent, PolicyBaselineFairShare, PolicyBaselineLottery,
		PolicyBaselineStride, PolicyBaselineCFS}
	allocators := []string{PolicyInvent, PolicyStreamerMaxMin, PolicyStreamerMaxThru}
	placements := []string{PolicyFleetFirstFit, PolicyFleetLeastLoaded, PolicyFleetRRHash}
	invent := []string{PolicyInvent}
	want := []struct {
		scenario string
		axis     Axis
		policies []string
	}{
		{"settop", AxisPolicyBox, []string{PolicyInvent, PolicyVideoFirst}},
		{"media", AxisPolicyBox, box},
		{"overload", AxisPolicyBox, invent},
		{"quiescent", AxisPolicyBox, box},
		{"studio", AxisPolicyBox, box},
		{"stress", AxisPolicyBox, invent},
		{"baseline-media", AxisComparator, comparators},
		{"baseline-overload", AxisComparator, comparators},
		{"baseline-streamer", AxisAllocator, allocators},
		{"fault-overrun", AxisPolicyBox, invent},
		{"fault-crash", AxisPolicyBox, invent},
		{"fault-storm", AxisPolicyBox, invent},
		{"fault-jitter", AxisPolicyBox, invent},
		{"fault-policy", AxisPolicyBox, invent},
		{"fleet-spill", AxisPlacement, placements},
		{"fleet-surge", AxisPlacement, placements},
		{"fleet-crash", AxisPlacement, placements},
	}
	var wantKeys []Key
	for _, w := range want {
		sc, ok := scenarioByName(w.scenario)
		if !ok {
			t.Fatalf("scenario %q not registered", w.scenario)
		}
		if sc.Axis != w.axis {
			t.Errorf("%s varies the %s axis, want %s", w.scenario, sc.Axis, w.axis)
		}
		for _, p := range sc.Policies {
			if !slices.Contains(sc.Axis.Values(), p) {
				t.Errorf("%s advertises %q, which is not on its %s axis %v", w.scenario, p, sc.Axis, sc.Axis.Values())
			}
		}
		if sc.Family != "" && !strings.HasPrefix(sc.Name, sc.Family+"-") {
			t.Errorf("%s declares family %q but does not carry its prefix", sc.Name, sc.Family)
		}
		for _, cm := range []string{"zero", "paper"} {
			for _, p := range w.policies {
				wantKeys = append(wantKeys, Key{w.scenario, cm, p})
			}
		}
	}
	if len(wantKeys) != 80 {
		t.Fatalf("the table above lists %d cells, want 80", len(wantKeys))
	}

	specs, err := (Matrix{Seeds: []uint64{1}}).Specs()
	if err != nil {
		t.Fatal(err)
	}
	var got []Key
	for _, s := range specs {
		got = append(got, Key{s.Scenario, s.CostModel, s.Policy})
	}
	if !reflect.DeepEqual(got, wantKeys) {
		t.Fatalf("default expansion = %d cells\n%v\nwant %d cells\n%v", len(got), got, len(wantKeys), wantKeys)
	}

	// The axis is enforced on single runs too, not only by expansion.
	if m := runFresh(RunSpec{Scenario: "fleet-spill", CostModel: "zero", Policy: PolicyInvent,
		Seed: 1, Horizon: 50 * ticks.PerMillisecond}); m.Err == "" {
		t.Error("fleet-spill ran under invent, the first-fit alias the placement axis no longer has")
	}
	if m := runFresh(RunSpec{Scenario: "media", CostModel: "zero", Policy: PolicyFleetRRHash,
		Seed: 1, Horizon: 50 * ticks.PerMillisecond}); m.Err == "" {
		t.Error("media ran under rr-hash, a placement it never reads")
	}
}

// TestTableAlignment pins the column sizing: the three name columns
// are as wide as the longest registered name, so every row — here the
// 17- and 18-character baseline names next to 5-character ones — puts
// its first number under the same header.
func TestTableAlignment(t *testing.T) {
	res, err := Run(Matrix{
		Scenarios: []string{"stress", "baseline-overload", "fleet-spill"},
		Policies:  []string{PolicyInvent, PolicyBaselineFairShare, PolicyFleetLeastLoaded},
		Seeds:     []uint64{1},
		Horizon:   100 * ticks.PerMillisecond,
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The fourth column (runs; spill in the fleet supplement) is
	// right-aligned in header and rows alike, so it ends at the same
	// offset in both exactly when the three name columns line up.
	fourthEnds := func(line string) int {
		f := strings.Fields(line)
		return strings.Index(line, " "+f[3]+" ") + 1 + len(f[3])
	}
	var header string
	rows := 0
	for _, line := range strings.Split(res.Table(), "\n") {
		switch {
		case line == "":
		case strings.HasPrefix(line, "scenario ") || strings.HasPrefix(line, "fleet "):
			header = line
		default:
			rows++
			if fourthEnds(line) != fourthEnds(header) {
				t.Errorf("row sheared against its header:\n%s\n%s", header, line)
			}
		}
	}
	if rows != 2*4+2 {
		t.Errorf("checked %d rows, want 8 cells plus 2 fleet rows:\n%s", rows, res.Table())
	}
}

// TestWriteJSONGolden pins the rdsweep/v7 bytes of a tiny matrix that
// crosses every family and every axis, so a refactor of the harness or
// the report checks byte identity with go test. Regenerate after an
// intended change with: go test ./internal/sweep -run Golden -update
func TestWriteJSONGolden(t *testing.T) {
	res, err := Run(Matrix{
		Scenarios: []string{"settop", "baseline-overload", "baseline-streamer", "fault-storm", "fleet-spill"},
		Policies: []string{PolicyInvent, PolicyVideoFirst, PolicyBaselineLottery,
			PolicyStreamerMaxMin, PolicyFleetLeastLoaded},
		Seeds:   []uint64{1},
		Horizon: 120 * ticks.PerMillisecond,
	}, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := resultJSONBytes(t, res)
	const path = "testdata/sweep-v7.golden.json"
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("WriteJSON differs from %s (%d vs %d bytes); if intended, rerun with -update", path, len(got), len(want))
	}
}

// TestRunMatchesSerialAggregation pins the fixed-chunk algebra: a
// parallel Run must equal aggregating the same runOne outputs
// serially with the engine's own chunk size. (Merging under a
// *different* partition may legitimately differ in float tails —
// float addition is not associative — which is exactly why aggChunk
// is a constant and never derived from the worker count.)
func TestRunMatchesSerialAggregation(t *testing.T) {
	m := Matrix{
		Scenarios:  []string{"settop", "overload"},
		CostModels: []string{"paper"},
		Policies:   []string{PolicyInvent},
		Seeds:      SeedRange(1, 5),
		Horizon:    100 * ticks.PerMillisecond,
	}
	specs, err := m.Specs()
	if err != nil {
		t.Fatal(err)
	}
	want := newResult()
	for lo := 0; lo < len(specs); lo += aggChunk {
		hi := lo + aggChunk
		if hi > len(specs) {
			hi = len(specs)
		}
		part := newResult()
		for i := lo; i < hi; i++ {
			m := runFresh(specs[i])
			part.add(specs[i], &m)
		}
		want.Merge(part)
	}
	want.TotalRuns = len(specs)

	got, err := Run(m, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	a, b := resultJSONBytes(t, want), resultJSONBytes(t, got)
	if !bytes.Equal(a, b) {
		t.Fatal("parallel Run differs from serial fixed-chunk aggregation")
	}
}

// TestResultMergeCellOrder checks that merging preserves
// first-appearance cell order and accumulates counts per cell.
func TestResultMergeCellOrder(t *testing.T) {
	spec := func(sc string, seed uint64) RunSpec {
		return RunSpec{Scenario: sc, CostModel: "zero", Policy: PolicyInvent, Seed: seed}
	}
	a := newResult()
	a.add(spec("settop", 1), &RunMetrics{Misses: 1, Opportunities: 10})
	a.add(spec("media", 1), &RunMetrics{})
	b := newResult()
	b.add(spec("overload", 1), &RunMetrics{Err: "boom"})
	b.add(spec("settop", 2), &RunMetrics{Loss: 2, Opportunities: 10})
	a.Merge(b)

	cells := a.Cells()
	if len(cells) != 3 {
		t.Fatalf("got %d cells, want 3", len(cells))
	}
	order := []string{"settop", "media", "overload"}
	for i, want := range order {
		if cells[i].Scenario != want {
			t.Errorf("cell %d = %s, want %s", i, cells[i].Scenario, want)
		}
	}
	for i, q := range quantities {
		if n := cells[0].PerRun[i].N(); cells[0].Runs != 2 || n != 2 {
			t.Errorf("settop cell: runs=%d, %d samples of %s, want 2/2", cells[0].Runs, n, q.key)
		}
	}
	if cells[2].Errors != 1 || cells[2].FirstError != "boom" {
		t.Errorf("overload cell did not keep the error: %+v", cells[2])
	}
	if a.Errors() != 1 {
		t.Errorf("total errors = %d, want 1", a.Errors())
	}
}

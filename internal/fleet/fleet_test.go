package fleet_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/task"
	"repro/internal/telemetry"
	"repro/internal/ticks"
)

const ms = ticks.PerMillisecond

// steadyBody builds bodies that consume their span forever — a task
// that holds its guarantee until the cluster (or a crash) takes it.
func steadyBody() func() task.Body {
	return func() task.Body {
		return task.BodyFunc(func(ctx task.RunContext) task.RunResult {
			return task.RunResult{Used: ctx.Span, Op: task.OpYield, Completed: true}
		})
	}
}

// finiteBody builds bodies that exit after n periods.
func finiteBody(n int) func() task.Body {
	return func() task.Body {
		left := n
		return task.BodyFunc(func(ctx task.RunContext) task.RunResult {
			if ctx.NewPeriod {
				left--
				if left < 0 {
					return task.RunResult{Op: task.OpExit}
				}
			}
			return task.RunResult{Used: ctx.Span, Op: task.OpYield, Completed: true}
		})
	}
}

func mustSubmit(t *testing.T, c *fleet.Cluster, a fleet.Admission) {
	t.Helper()
	if err := c.Submit(a); err != nil {
		t.Fatalf("submit %s: %v", a.Name, err)
	}
}

func mustNew(t *testing.T, cfg fleet.Config) *fleet.Cluster {
	t.Helper()
	c, err := fleet.New(cfg)
	if err != nil {
		t.Fatalf("new cluster: %v", err)
	}
	return c
}

// run builds a representative faulted fleet — governors armed, a
// roaming crash/restart injector, a correlated storm fan, staggered
// multi-level arrivals — and returns its report. Used by the
// worker-invariance and determinism tests.
func run(t *testing.T, seed uint64, workers int) *fleet.Report {
	t.Helper()
	return runIn(t, new(fleet.Arena), seed, workers, 0)
}

// runIn is run with the fleet built in arena a and its black boxes
// keeping flightSpans spans (0: the default).
func runIn(t *testing.T, a *fleet.Arena, seed uint64, workers, flightSpans int) *fleet.Report {
	t.Helper()
	c, err := fleet.NewIn(a, fleet.Config{
		Nodes:                   12,
		Seed:                    seed,
		Workers:                 workers,
		Placement:               fleet.LeastLoaded,
		InterruptReservePercent: 2,
		GovernorInterval:        10 * ms,
		Invariants:              true,
		FlightSpans:             flightSpans,
	})
	if err != nil {
		t.Fatalf("new cluster: %v", err)
	}
	var alog telemetry.EventLog
	err = fault.ArmFleet(c, seed, &alog,
		fault.NodeCrash{Node: -1, At: 40 * ms, Cycles: 3, MeanUp: 60 * ms, MeanDown: 25 * ms},
		fault.NodeStorm{
			Storm:     fault.Storm{At: 60 * ms, Bursts: 4, Every: 15 * ms, Count: 10, Service: 400 * ticks.PerMicrosecond},
			FirstNode: 0, Nodes: 4, Stagger: 5 * ms,
		})
	if err != nil {
		t.Fatalf("arm fleet: %v", err)
	}
	for i := 0; i < 40; i++ {
		mustSubmit(t, c, fleet.Admission{
			At:   ticks.Ticks(i%12) * 8 * ms,
			Name: "ft" + string(rune('a'+i%26)) + string(rune('a'+i/26)),
			List: task.UniformLevels(10*ms, "Fleet", 24, 12),
			Body: steadyBody(),
		})
	}
	return c.Run(400 * ms)
}

// The fleet analogue of rdsweep's worker-invariance contract: the
// report (counters, latency percentiles, aggregate fractions) and
// the merged event log are byte-identical for any worker count.
func TestWorkerCountInvariance(t *testing.T) {
	var refSummary, refLog string
	for _, workers := range []int{1, 3, 8} {
		rep := run(t, 42, workers)
		if len(rep.Stalled) != 0 {
			t.Fatalf("workers=%d: stalled nodes: %v", workers, rep.Stalled)
		}
		checkTallies(t, rep)
		sum, log := rep.Summary(), rep.Log.String()
		if refSummary == "" {
			refSummary, refLog = sum, log
			continue
		}
		if sum != refSummary {
			t.Errorf("workers=%d summary diverged:\n got %s\nwant %s", workers, sum, refSummary)
		}
		if log != refLog {
			t.Errorf("workers=%d event log diverged", workers)
		}
	}
}

// checkTallies holds every Report field that is read from a counter to
// the merged snapshot's value for that counter's name: a fact is
// tallied once, and the report and the manifest cannot disagree on it.
// The run must have exercised the crash pipeline end to end.
func checkTallies(t *testing.T, rep *fleet.Report) {
	t.Helper()
	if rep.Crashes == 0 || rep.Restarts == 0 || rep.Recovered == 0 || rep.Periods == 0 {
		t.Fatalf("run too quiet to check the tallies on: %s", rep.Summary())
	}
	for _, f := range []struct {
		counter string
		field   int64
	}{
		{"sched.deadline.misses", rep.Misses},
		{"sched.period.rollovers", rep.Periods},
		{"fleet.placed", rep.Placed},
		{"fleet.spillovers", rep.Spillovers},
		{"fleet.retries", rep.Retries},
		{"fleet.rejected", rep.Rejected},
		{"fleet.migrations", rep.Migrations},
		{"fleet.node_crashes", rep.Crashes},
		{"fleet.node_restarts", rep.Restarts},
		{"fleet.lost_to_crash", rep.LostToCrash},
		{"fleet.recovered", rep.Recovered},
		{"fleet.lost_recorded", rep.LostRecorded},
	} {
		if got := rep.Telemetry.CounterValue(f.counter); got != f.field {
			t.Errorf("report says %d where counter %s says %d", f.field, f.counter, got)
		}
	}
}

// An arena hands a cluster recorders of the ring size its Config asks
// for, whatever size the cluster before it used: ring size is the one
// thing about a black box a dump shows.
func TestArenaFollowsRingSize(t *testing.T) {
	a := new(fleet.Arena)
	wide := runIn(t, a, 42, 1, 0)
	narrow := runIn(t, a, 42, 1, 8)
	fresh := runIn(t, new(fleet.Arena), 42, 1, 8)
	if len(narrow.FlightDumps) == 0 {
		t.Fatal("the faulted fleet dumped no black box")
	}
	for i, d := range narrow.FlightDumps {
		if len(d.Spans) != 8 {
			t.Fatalf("dump %d carries %d spans from an 8-span ring", i, len(d.Spans))
		}
	}
	if !reflect.DeepEqual(narrow.FlightDumps, fresh.FlightDumps) || narrow.Summary() != fresh.Summary() {
		t.Fatal("an 8-span fleet built after a default one differs from a fresh 8-span fleet")
	}
	if again := runIn(t, a, 42, 1, 0); !reflect.DeepEqual(again.FlightDumps, wide.FlightDumps) {
		t.Fatal("a default fleet built after an 8-span one differs from the first default fleet")
	}
}

// Same seed, same fleet; different seed, different fleet.
func TestClusterDeterminism(t *testing.T) {
	a, b := run(t, 7, 4), run(t, 7, 4)
	if a.Summary() != b.Summary() || a.Log.String() != b.Log.String() {
		t.Fatalf("same-seed fleets diverged:\n a: %s\n b: %s", a.Summary(), b.Summary())
	}
	c := run(t, 8, 4)
	if a.Summary() == c.Summary() {
		t.Fatal("different seeds produced identical fleets — the seed is not reaching the run")
	}
}

// The faulted reference fleet must keep the conservation contract:
// crashes really happen, every lost guarantee is re-placed or
// recorded, and the invariant checkers find nothing.
func TestFaultedFleetConservation(t *testing.T) {
	rep := run(t, 42, 4)
	if rep.Crashes == 0 || rep.Restarts == 0 {
		t.Fatalf("crash injector never fired: %s", rep.Summary())
	}
	if rep.LostToCrash == 0 {
		t.Fatalf("crashes hit only empty nodes across the whole run: %s", rep.Summary())
	}
	if rep.LostToCrash != rep.Recovered+rep.LostRecorded {
		t.Fatalf("conservation broken: %d lost != %d recovered + %d recorded",
			rep.LostToCrash, rep.Recovered, rep.LostRecorded)
	}
	if rep.Violations != 0 {
		t.Fatalf("%d invariant violation(s):\n%s", rep.Violations, rep.Log.String())
	}
	if rep.FaultsInjected == 0 {
		t.Fatal("no fault events recorded")
	}
}

// A crash on a loaded node re-admits every guarantee elsewhere when
// the siblings have room, and the recovery latency is measured.
func TestCrashRecoveryReplacesGuarantees(t *testing.T) {
	c := mustNew(t, fleet.Config{Nodes: 4, Seed: 1, Workers: 2, Invariants: true})
	var alog telemetry.EventLog
	if err := fault.ArmFleet(c, 1, &alog,
		fault.NodeCrash{Node: 0, At: 50 * ms, Cycles: 1, MeanUp: 200 * ms, MeanDown: 30 * ms}); err != nil {
		t.Fatalf("arm: %v", err)
	}
	for i := 0; i < 8; i++ {
		mustSubmit(t, c, fleet.Admission{
			At:   0,
			Name: "g" + string(rune('0'+i)),
			List: task.SingleLevel(10*ms, 2*ms, "Fleet"), // 20% each
			Body: steadyBody(),
		})
	}
	rep := c.Run(200 * ms)
	if len(rep.Stalled) != 0 {
		t.Fatalf("stalled: %v", rep.Stalled)
	}
	// First-fit packs node 0 to its admission ceiling (5 tasks at 20%
	// min), so the crash must strand exactly that many guarantees.
	if rep.Crashes != 1 || rep.Restarts != 1 {
		t.Fatalf("crash cycle did not execute: %s", rep.Summary())
	}
	if rep.LostToCrash != 5 {
		t.Fatalf("lost %d guarantees to the crash, want 5:\n%s", rep.LostToCrash, rep.Log.String())
	}
	if rep.Recovered != 5 || rep.LostRecorded != 0 {
		t.Fatalf("want all 5 re-placed on siblings, got %d recovered, %d recorded lost:\n%s",
			rep.Recovered, rep.LostRecorded, rep.Log.String())
	}
	if rep.RecoveryMS.N() != 5 {
		t.Fatalf("recovery latency samples = %d, want 5", rep.RecoveryMS.N())
	}
	if rep.Violations != 0 {
		t.Fatalf("%d violation(s):\n%s", rep.Violations, rep.Log.String())
	}
}

// When the whole fleet is full, denials spill across siblings, the
// retry loop backs off a bounded number of times, and the admission
// ends as a recorded fleet-wide rejection — never a silent drop.
func TestSpilloverBackoffAndRejection(t *testing.T) {
	c := mustNew(t, fleet.Config{
		Nodes: 2, Seed: 3, Workers: 1,
		Retry: fleet.RetryPolicy{MaxAttempts: 3, Base: 5 * ms, Max: 40 * ms},
	})
	for i := 0; i < 5; i++ {
		mustSubmit(t, c, fleet.Admission{
			At:   0,
			Name: "w" + string(rune('0'+i)),
			List: task.SingleLevel(10*ms, 4*ms, "Fleet"), // 40% each; 2 fit per node
			Body: steadyBody(),
		})
	}
	rep := c.Run(150 * ms)
	if rep.Placed != 4 {
		t.Fatalf("placed %d, want 4: %s", rep.Placed, rep.Summary())
	}
	if rep.Spillovers != 2 {
		t.Fatalf("spillovers %d, want 2 (tasks 3 and 4 land on node 1 after node 0 denies): %s",
			rep.Spillovers, rep.Summary())
	}
	if rep.Rejected != 1 {
		t.Fatalf("rejected %d, want 1: %s", rep.Rejected, rep.Summary())
	}
	if rep.Retries != 2 {
		t.Fatalf("retries %d, want 2 (3 attempts = 2 backoffs): %s", rep.Retries, rep.Summary())
	}
	if n := rep.Log.CountKind("fleet.reject"); n != 1 {
		t.Fatalf("fleet.reject events = %d, want 1:\n%s", n, rep.Log.String())
	}
	if n := rep.Log.CountKind("fleet.backoff"); n != 2 {
		t.Fatalf("fleet.backoff events = %d, want 2:\n%s", n, rep.Log.String())
	}
}

// A denied admission retried after capacity frees up lands on its
// retry — the backoff loop is a real second chance, not a formality.
func TestRetrySucceedsWhenCapacityFrees(t *testing.T) {
	c := mustNew(t, fleet.Config{
		Nodes: 1, Seed: 5, Workers: 1,
		Retry: fleet.RetryPolicy{MaxAttempts: 6, Base: 10 * ms, Max: 40 * ms},
	})
	// Fills the node, exits after 3 periods (~30 ms).
	mustSubmit(t, c, fleet.Admission{
		At: 0, Name: "hog", List: task.SingleLevel(10*ms, 9*ms, "Fleet"), Body: finiteBody(3),
	})
	// Denied at t=0; must land on a backoff retry once the hog exits.
	mustSubmit(t, c, fleet.Admission{
		At: 0, Name: "patient", List: task.SingleLevel(10*ms, 5*ms, "Fleet"), Body: steadyBody(),
	})
	rep := c.Run(300 * ms)
	if rep.Placed != 2 {
		t.Fatalf("placed %d, want both eventually: %s\n%s", rep.Placed, rep.Summary(), rep.Log.String())
	}
	if rep.Retries == 0 {
		t.Fatalf("patient admission was never retried: %s", rep.Summary())
	}
	if rep.Rejected != 0 {
		t.Fatalf("rejected %d, want 0: %s", rep.Rejected, rep.Summary())
	}
}

// Placement policies really change where load lands.
func TestPlacementPoliciesDiffer(t *testing.T) {
	place := func(p fleet.Placement) string {
		c := mustNew(t, fleet.Config{Nodes: 6, Seed: 9, Workers: 2, Placement: p})
		names := []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot"}
		for _, name := range names {
			mustSubmit(t, c, fleet.Admission{
				At: 0, Name: name, List: task.SingleLevel(10*ms, 2*ms, "Fleet"), Body: steadyBody(),
			})
		}
		rep := c.Run(50 * ms)
		if rep.Placed != int64(len(names)) {
			t.Fatalf("%v: placed %d of %d", p, rep.Placed, len(names))
		}
		var b strings.Builder
		rep.Log.All(func(ev telemetry.LogEvent) bool {
			b.WriteString(ev.Kind)
			b.WriteByte(';')
			return true
		})
		return b.String()
	}
	_ = place(fleet.FirstFit)
	// First-fit piles everything on node 0 (2 ms of 10 ms each, all
	// fit); rr-hash scatters by name. Compare via per-node counts.
	loadSpread := func(p fleet.Placement) int {
		c := mustNew(t, fleet.Config{Nodes: 6, Seed: 9, Workers: 2, Placement: p})
		names := []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot"}
		for _, name := range names {
			mustSubmit(t, c, fleet.Admission{
				At: 0, Name: name, List: task.SingleLevel(10*ms, 2*ms, "Fleet"), Body: steadyBody(),
			})
		}
		c.Run(50 * ms)
		used := 0
		for i := 0; i < 6; i++ {
			if d := c.Node(i); d != nil && d.Manager().NTasks() > 0 {
				used++
			}
		}
		return used
	}
	if got := loadSpread(fleet.FirstFit); got != 2 {
		t.Errorf("first-fit used %d nodes, want 2 (5 tasks fit node 0, the 6th spills)", got)
	}
	if got := loadSpread(fleet.LeastLoaded); got != 6 {
		t.Errorf("least-loaded used %d nodes, want all 6", got)
	}
	if got := loadSpread(fleet.RoundRobinHash); got < 3 {
		t.Errorf("rr-hash used %d nodes, want a spread (>= 3)", got)
	}
}

// A node whose governor sheds under an interrupt storm becomes a
// migration source: its most recent fleet placement moves to a
// pressure-free sibling, the target pays the transfer charge, and
// nothing is lost.
func TestMigrationUnderGovernorPressure(t *testing.T) {
	c := mustNew(t, fleet.Config{
		Nodes:                   2,
		Seed:                    11,
		Workers:                 1,
		InterruptReservePercent: 2,
		GovernorInterval:        5 * ms,
		MigrationCost:           200 * ticks.PerMicrosecond,
		Invariants:              true,
	})
	var alog telemetry.EventLog
	if err := fault.ArmFleet(c, 11, &alog,
		fault.NodeStorm{
			Storm:     fault.Storm{At: 30 * ms, Bursts: 10, Every: 5 * ms, Count: 8, Service: 250 * ticks.PerMicrosecond},
			FirstNode: 0, Nodes: 1,
		}); err != nil {
		t.Fatalf("arm: %v", err)
	}
	for i := 0; i < 3; i++ {
		mustSubmit(t, c, fleet.Admission{
			At: 0, Name: "m" + string(rune('0'+i)),
			List: task.UniformLevels(10*ms, "Fleet", 20, 10),
			Body: steadyBody(),
		})
	}
	rep := c.Run(200 * ms)
	if len(rep.Stalled) != 0 {
		t.Fatalf("stalled: %v", rep.Stalled)
	}
	if rep.Degradations == 0 {
		t.Fatalf("storm never drove the governor to shed: %s", rep.Summary())
	}
	if rep.Migrations == 0 {
		t.Fatalf("pressure never triggered a migration: %s\n%s", rep.Summary(), rep.Log.String())
	}
	if n := rep.Log.CountKind("fleet.migrate"); int64(n) != rep.Migrations {
		t.Fatalf("migrations %d but %d fleet.migrate events", rep.Migrations, n)
	}
	if rep.Violations != 0 {
		t.Fatalf("%d violation(s):\n%s", rep.Violations, rep.Log.String())
	}
}

// Submissions and cluster configs are validated up front.
func TestConfigAndSubmitValidation(t *testing.T) {
	if _, err := fleet.New(fleet.Config{Nodes: 0}); err == nil {
		t.Error("New accepted a zero-node fleet")
	}
	if _, err := fleet.New(fleet.Config{Nodes: 2, MigrationCost: -1}); err == nil {
		t.Error("New accepted a negative migration cost")
	}
	c := mustNew(t, fleet.Config{Nodes: 1, Seed: 1})
	bad := []fleet.Admission{
		{At: -1, Name: "x", List: task.SingleLevel(10*ms, ms, "F"), Body: steadyBody()},
		{At: 0, Name: "", List: task.SingleLevel(10*ms, ms, "F"), Body: steadyBody()},
		{At: 0, Name: "x", List: task.SingleLevel(10*ms, ms, "F"), Body: nil},
		{At: 0, Name: "x", List: task.ResourceList{}, Body: steadyBody()},
	}
	for i, a := range bad {
		if err := c.Submit(a); err == nil {
			t.Errorf("Submit accepted bad admission %d: %+v", i, a)
		}
	}
	if err := fault.ArmFleet(c, 1, &telemetry.EventLog{},
		fault.NodeCrash{Node: 5, At: 0, Cycles: 1, MeanUp: ms, MeanDown: ms}); err == nil {
		t.Error("ArmFleet accepted a crash target beyond the fleet")
	}
	if err := fault.ArmFleet(c, 1, &telemetry.EventLog{},
		fault.NodeStorm{Storm: fault.Storm{Bursts: 1, Count: 1, Service: ms}, FirstNode: 0, Nodes: 2}); err == nil {
		t.Error("ArmFleet accepted a storm fan beyond the fleet")
	}
}

// A node's registry belongs to its arena shell: a restart inside a run
// re-registers into it and keeps counting where the crashed incarnation
// stopped, while the next cluster built in the arena starts every
// instrument from zero — and the finished run's report, holding copies,
// does not notice.
func TestNodeRegistrySpansIncarnationsNotClusters(t *testing.T) {
	accepted := func(rep *fleet.Report) (sum int64) {
		for _, n := range rep.PerNode {
			sum += n.Telemetry.CounterValue("rm.admit.accepted")
		}
		return sum
	}
	// Five 20% tasks fill node 0; it crashes under them and they are
	// re-placed; three latecomers arrive after its restart.
	build := func(a *fleet.Arena, crash bool) *fleet.Report {
		c, err := fleet.NewIn(a, fleet.Config{Nodes: 3, Seed: 1, Workers: 1, Invariants: true})
		if err != nil {
			t.Fatal(err)
		}
		if crash {
			var alog telemetry.EventLog
			if err := fault.ArmFleet(c, 1, &alog,
				fault.NodeCrash{Node: 0, At: 50 * ms, Cycles: 1, MeanUp: 400 * ms, MeanDown: 30 * ms}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 8; i++ {
			at := ticks.Ticks(0)
			if i >= 5 {
				at = 200 * ms
			}
			mustSubmit(t, c, fleet.Admission{
				At: at, Name: "g" + string(rune('0'+i)),
				List: task.SingleLevel(10*ms, 2*ms, "Fleet"), Body: steadyBody(),
			})
		}
		return c.Run(300 * ms)
	}

	arena := new(fleet.Arena)
	crashed := build(arena, true)
	if crashed.Restarts != 1 || crashed.LostToCrash != 5 || crashed.Recovered != 5 || crashed.PerNode[0].Restarts != 1 {
		t.Fatalf("the crash cycle did not run as staged: %s", crashed.Summary())
	}
	// Every placement, a crash re-placement included, is one accepted
	// admission on some node; node 0's first five are only still
	// counted if its counter survived the restart.
	if got, want := accepted(crashed), crashed.Placed; got != want || want != 13 {
		t.Errorf("nodes count %d accepted admissions over the run, the coordinator %d placements; want 13 of each", got, want)
	}
	if got := crashed.PerNode[0].Telemetry.CounterValue("rm.admit.accepted"); got < 5 {
		t.Errorf("node 0 counts %d accepted admissions, want its first incarnation's 5 and any since", got)
	}
	before, err := json.Marshal(crashed)
	if err != nil {
		t.Fatal(err)
	}

	quiet, fresh := build(arena, false), build(new(fleet.Arena), false)
	if !reflect.DeepEqual(quiet.PerNode, fresh.PerNode) || !reflect.DeepEqual(quiet.Telemetry, fresh.Telemetry) {
		t.Errorf("a cluster built after a crashed one snapshots differently from one in a fresh arena:\n reused: %+v\n  fresh: %+v",
			quiet.Telemetry, fresh.Telemetry)
	}
	if got := accepted(quiet); got != 8 {
		t.Errorf("the second cluster counts %d accepted admissions, want its own 8", got)
	}
	if after, err := json.Marshal(crashed); err != nil || !bytes.Equal(before, after) {
		t.Errorf("the first cluster's report changed when the arena was reused (%v)", err)
	}
}

// The report's cluster-wide snapshot is merged from the per-node ones
// and must share no bucket with them: the merge adds in place.
func TestReportSnapshotsShareNoBuckets(t *testing.T) {
	rep := run(t, 42, 1)
	var hists int
	for _, n := range rep.PerNode {
		for _, h := range n.Telemetry.Histograms {
			var sum int64
			for _, c := range h.Counts {
				sum += c
			}
			if sum != h.Count {
				t.Fatalf("node %d histogram %s: buckets sum to %d, count is %d — another snapshot was added into it",
					n.Node, h.Name, sum, h.Count)
			}
			hists++
		}
	}
	if hists == 0 || len(rep.Telemetry.Histograms) == 0 {
		t.Fatal("the faulted fleet observed no histogram")
	}
	for i := range rep.Telemetry.Histograms {
		rep.Telemetry.Histograms[i].Counts[0] += 1000
	}
	for _, h := range rep.PerNode[0].Telemetry.Histograms {
		if h.Counts[0] >= 1000 {
			t.Fatalf("writing the cluster snapshot's %s buckets wrote node 0's", h.Name)
		}
	}
}

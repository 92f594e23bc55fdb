package fleet_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/task"
	"repro/internal/telemetry"
	"repro/internal/ticks"
)

const ms = ticks.PerMillisecond

// steadyBody builds bodies that consume their span forever — a task
// that holds its guarantee until the cluster (or a crash) takes it.
func steadyBody() fleet.BodyFunc {
	return func() task.Body {
		return task.BodyFunc(func(ctx task.RunContext) task.RunResult {
			return task.RunResult{Used: ctx.Span, Op: task.OpYield, Completed: true}
		})
	}
}

// finiteBody builds bodies that exit after n periods.
func finiteBody(n int) fleet.BodyFunc {
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
	_, rep := runCfg(t, new(fleet.Arena), faultedConfig(seed, workers))
	return rep
}

// faultedConfig is run's cluster: 12 least-loaded nodes, governors and
// checkers armed.
func faultedConfig(seed uint64, workers int) fleet.Config {
	return fleet.Config{
		Nodes:                   12,
		Seed:                    seed,
		Workers:                 workers,
		Placement:               fleet.LeastLoaded,
		InterruptReservePercent: 2,
		GovernorInterval:        10 * ms,
		Invariants:              true,
	}
}

// runCfg is run's faulted fleet and its arrivals on a cluster built
// from cfg in arena a.
func runCfg(t *testing.T, a *fleet.Arena, cfg fleet.Config) (*fleet.Cluster, *fleet.Report) {
	t.Helper()
	c, err := fleet.NewIn(a, cfg)
	if err != nil {
		t.Fatalf("new cluster: %v", err)
	}
	seed := cfg.Seed
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
	return c, c.Run(400 * ms)
}

// The fleet analogue of rdsweep's worker-invariance contract: the
// report (counters, latency percentiles, aggregate fractions) and
// the merged event log are byte-identical for any worker count. Under
// first-fit the low-index nodes hold the load, so a worker steals from
// another's range in every epoch.
func TestWorkerCountInvariance(t *testing.T) {
	for _, p := range []fleet.Placement{fleet.LeastLoaded, fleet.FirstFit} {
		var refSummary, refLog string
		for _, workers := range []int{1, 2, 3, 4, 8} {
			cfg := faultedConfig(42, workers)
			cfg.Placement = p
			_, rep := runCfg(t, new(fleet.Arena), cfg)
			if len(rep.Stalled) != 0 {
				t.Fatalf("%s, workers=%d: stalled nodes: %v", p, workers, rep.Stalled)
			}
			checkTallies(t, rep)
			sum, log := rep.Summary(), rep.Log.String()
			if refSummary == "" {
				refSummary, refLog = sum, log
				continue
			}
			if sum != refSummary {
				t.Errorf("%s, workers=%d summary diverged:\n got %s\nwant %s", p, workers, sum, refSummary)
			}
			if log != refLog {
				t.Errorf("%s, workers=%d event log diverged", p, workers)
			}
		}
	}
}

// TestPoolAdvancesOnEveryWorker: a pool of W workers advances W nodes
// at once. Each node's body waits at its first call until W bodies have
// started, which takes W goroutines: a worker blocked in one node's body
// claims no other node.
func TestPoolAdvancesOnEveryWorker(t *testing.T) {
	for _, workers := range []int{2, 3, 4} {
		var started atomic.Int64
		met := make(chan struct{})
		deadline := time.Now().Add(10 * time.Second)
		c := mustNew(t, fleet.Config{Nodes: 2 * workers, Seed: 1, Workers: workers,
			NodeInit: func(d *core.Distributor, node int) error {
				first := true
				_, err := d.RequestAdmittance(&task.Task{
					Name: "meet", List: task.SingleLevel(10*ms, ms, "Meet"),
					Body: task.BodyFunc(func(ctx task.RunContext) task.RunResult {
						if first {
							first = false
							if started.Add(1) == int64(workers) {
								close(met)
							}
							select {
							case <-met:
							case <-time.After(time.Until(deadline)):
								t.Errorf("workers=%d: node %d's body met %d of %d at once", workers, node, started.Load(), workers)
							}
						}
						return task.RunResult{Used: ctx.Span, Op: task.OpYield, Completed: true}
					}),
				})
				return err
			}})
		c.Run(20 * ms)
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

// A node rebuilt in storage that other nodes' incarnations used — their
// Distributors and checkers, tasks and pending events — cannot be told
// from one built new: cluster B built in an arena that has just run a
// different crashing cluster A reports and stitches exactly what B
// built in a fresh arena does. B crashes too, so its restarts rebuild
// its own retired incarnations.
func TestRecycledNodesMatchFresh(t *testing.T) {
	b := fleet.Config{
		Nodes: 8, Seed: 3, Workers: 1, Placement: fleet.FirstFit,
		InterruptReservePercent: 2, GovernorInterval: 10 * ms, Invariants: true, SpanLog: true,
	}
	build := func(a *fleet.Arena) (rep, manifest []byte, restarts int64) {
		c, r := runCfg(t, a, b)
		m, err := c.Manifest()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		js, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return js, buf.Bytes(), r.Restarts
	}
	arena := new(fleet.Arena)
	_, a := runCfg(t, arena, fleet.Config{
		Nodes: 12, Seed: 11, Workers: 2, Placement: fleet.LeastLoaded, GovernorInterval: 5 * ms, Invariants: true,
	})
	if a.Restarts == 0 {
		t.Fatal("cluster A restarted no node; its incarnations were never rebuilt")
	}
	gotRep, gotMan, restarts := build(arena)
	wantRep, wantMan, _ := build(new(fleet.Arena))
	if restarts == 0 {
		t.Fatal("cluster B restarted no node; its own incarnations were never rebuilt")
	}
	if !bytes.Equal(gotRep, wantRep) {
		t.Errorf("B's report after A differs from B's in a fresh arena:\n reused: %s\n  fresh: %s", gotRep, wantRep)
	}
	if !bytes.Equal(gotMan, wantMan) {
		t.Error("B's cluster manifest after A differs from B's in a fresh arena")
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

// A node whose kernel trips the livelock guard stays stalled: a crash
// and a restart scheduled for it are recorded as skipped, and its black
// box is dumped once.
func TestCrashOnStalledNodeIsRecorded(t *testing.T) {
	c := mustNew(t, fleet.Config{Nodes: 2, Seed: 1, Workers: 1})
	k := c.Node(1).Kernel()
	var loop func()
	loop = func() { k.After(0, loop) }
	k.At(5*ms, loop)
	c.ScheduleNodeCrash(1, 30*ms)
	c.ScheduleNodeRestart(1, 60*ms)
	rep := c.Run(100 * ms)
	if len(rep.Stalled) != 1 || !strings.HasPrefix(rep.Stalled[0], "node 1: kernel livelock guard tripped") {
		t.Fatalf("stalled = %q, want node 1's livelock", rep.Stalled)
	}
	if rep.Crashes != 0 || rep.Restarts != 0 {
		t.Errorf("a stalled node crashed %d and restarted %d times", rep.Crashes, rep.Restarts)
	}
	stalls := 0
	for _, d := range rep.FlightDumps {
		if d.Reason == "stall" {
			stalls++
		}
	}
	if stalls != 1 {
		t.Errorf("%d stall dumps, want 1", stalls)
	}
	skipped := map[string]int{}
	rep.Log.All(func(e telemetry.LogEvent) bool {
		if strings.HasSuffix(e.Kind, "-skipped") && e.Detail == "node 1 is stalled" {
			skipped[e.Kind]++
		}
		return true
	})
	if skipped["fleet.crash-skipped"] != 1 || skipped["fleet.restart-skipped"] != 1 || len(skipped) != 2 {
		t.Errorf("want one crash and one restart skipped as \"node 1 is stalled\":\n%s", rep.Log.String())
	}
}

// When the whole fleet is full, denials spill across siblings, the
// retry loop backs off a bounded number of times, and the admission
// ends as a recorded fleet-wide rejection — never a silent drop.
func TestSpilloverBackoffAndRejection(t *testing.T) {
	c := mustNew(t, fleet.Config{Nodes: 2, Seed: 3, Workers: 1})
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
	if rep.Retries != 3 {
		t.Fatalf("retries %d, want 3 (4 attempts = 3 backoffs): %s", rep.Retries, rep.Summary())
	}
	if n := rep.Log.CountKind("fleet.reject"); n != 1 {
		t.Fatalf("fleet.reject events = %d, want 1:\n%s", n, rep.Log.String())
	}
	if n := rep.Log.CountKind("fleet.backoff"); n != 3 {
		t.Fatalf("fleet.backoff events = %d, want 3:\n%s", n, rep.Log.String())
	}
}

// A denied admission retried after capacity frees up lands on its
// retry — the backoff loop is a real second chance, not a formality.
func TestRetrySucceedsWhenCapacityFrees(t *testing.T) {
	c := mustNew(t, fleet.Config{Nodes: 1, Seed: 5, Workers: 1})
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

// An offer that fails validation is no capacity denial: an admission
// whose body factory returns nil, or is a nil BodyFunc, is rejected at
// its first scan, with the validation error as the reason, without a
// node denial or a retry; an admission beside them is placed as usual.
func TestInvalidOfferRejectedAtOnce(t *testing.T) {
	c := mustNew(t, fleet.Config{Nodes: 3, Seed: 5, Workers: 1})
	mustSubmit(t, c, fleet.Admission{
		At: 0, Name: "hollow", List: task.SingleLevel(10*ms, ms, "Fleet"),
		Body: fleet.BodyFunc(func() task.Body { return nil }),
	})
	mustSubmit(t, c, fleet.Admission{
		At: 0, Name: "void", List: task.SingleLevel(10*ms, ms, "Fleet"), Body: fleet.BodyFunc(nil),
	})
	mustSubmit(t, c, fleet.Admission{
		At: 0, Name: "sound", List: task.SingleLevel(10*ms, ms, "Fleet"), Body: steadyBody(),
	})
	rep := c.Run(100 * ms)
	if rep.Rejected != 2 || rep.Placed != 1 || rep.Retries != 0 || rep.DeniedAttempts != 0 {
		t.Fatalf("want 2 rejected, 1 placed, no retry, no node denial: %s", rep.Summary())
	}
	var got []string
	for _, ev := range rep.Log.Events() {
		if ev.Kind == "fleet.reject" {
			got = append(got, ev.Detail)
		}
	}
	want := []string{
		`hollow rejected fleet-wide (task "hollow": body is required)`,
		`void rejected fleet-wide (task "void": body is required)`,
	}
	if !slices.Equal(got, want) {
		t.Fatalf("fleet.reject lines %q, want %q", got, want)
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
	rep := runStormedPair(t, func(int) fleet.BodySource { return steadyBody() })
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

// runStormedPair runs three 20 % guarantees on the first node of two
// under an interrupt storm that drives its governor to shed, each
// admission's bodies from body(i).
func runStormedPair(t *testing.T, body func(i int) fleet.BodySource) *fleet.Report {
	t.Helper()
	c := mustNew(t, fleet.Config{
		Nodes:                   2,
		Seed:                    11,
		Workers:                 1,
		InterruptReservePercent: 2,
		GovernorInterval:        5 * ms,
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
			Body: body(i),
		})
	}
	return c.Run(200 * ms)
}

// A migration whose offer fails validation moves nothing: the source
// keeps the task, and the failure's line gives the validation error.
func TestInvalidMigrationOfferFails(t *testing.T) {
	rep := runStormedPair(t, func(int) fleet.BodySource {
		built := 0
		return fleet.BodyFunc(func() task.Body {
			if built++; built > 1 {
				return nil
			}
			return steadyBody()()
		})
	})
	if rep.Placed != 3 || rep.Migrations != 0 || rep.MigrateFailed == 0 {
		t.Fatalf("want 3 placed, no migration, a failed one: %s", rep.Summary())
	}
	want := `m2: task "m2": body is required`
	for _, ev := range rep.Log.Events() {
		if ev.Kind == "fleet.migrate-failed" && ev.Detail != want {
			t.Fatalf("fleet.migrate-failed %q, want %q", ev.Detail, want)
		}
	}
}

// Submissions and cluster configs are validated up front.
func TestConfigAndSubmitValidation(t *testing.T) {
	if _, err := fleet.New(fleet.Config{Nodes: 0}); err == nil {
		t.Error("New accepted a zero-node fleet")
	}
	if _, err := fleet.New(fleet.Config{Nodes: 2, GovernorInterval: -1}); err == nil {
		t.Error("New accepted a negative governor interval")
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
	accepted := func(c *fleet.Cluster) (sum int64) {
		for i := 0; i < c.NodeCount(); i++ {
			sum += nodeMetrics(t, c, i).CounterValue("rm.admit.accepted")
		}
		return sum
	}
	// Five 20% tasks fill node 0; it crashes under them and they are
	// re-placed; three latecomers arrive after its restart.
	build := func(a *fleet.Arena, crash bool) (*fleet.Cluster, *fleet.Report) {
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
		return c, c.Run(300 * ms)
	}

	arena := new(fleet.Arena)
	cc, crashed := build(arena, true)
	if crashed.Restarts != 1 || crashed.LostToCrash != 5 || crashed.Recovered != 5 {
		t.Fatalf("the crash cycle did not run as staged: %s", crashed.Summary())
	}
	// Every placement, a crash re-placement included, is one accepted
	// admission on some node; node 0's first five are only still
	// counted if its counter survived the restart.
	if got, want := accepted(cc), crashed.Placed; got != want || want != 13 {
		t.Errorf("nodes count %d accepted admissions over the run, the coordinator %d placements; want 13 of each", got, want)
	}
	if got := nodeMetrics(t, cc, 0).CounterValue("rm.admit.accepted"); got < 5 {
		t.Errorf("node 0 counts %d accepted admissions, want its first incarnation's 5 and any since", got)
	}
	before, err := json.Marshal(crashed)
	if err != nil {
		t.Fatal(err)
	}

	qc, quiet := build(arena, false)
	fc, fresh := build(new(fleet.Arena), false)
	for i := 0; i < qc.NodeCount(); i++ {
		if q, f := nodeMetrics(t, qc, i), nodeMetrics(t, fc, i); !reflect.DeepEqual(q, f) {
			t.Errorf("node %d of a cluster built after a crashed one snapshots differently from one in a fresh arena:\n reused: %+v\n  fresh: %+v", i, q, f)
		}
	}
	if !reflect.DeepEqual(quiet.Telemetry, fresh.Telemetry) {
		t.Errorf("a cluster built after a crashed one snapshots differently from one in a fresh arena:\n reused: %+v\n  fresh: %+v",
			quiet.Telemetry, fresh.Telemetry)
	}
	if got := accepted(qc); got != 8 {
		t.Errorf("the second cluster counts %d accepted admissions, want its own 8", got)
	}
	if after, err := json.Marshal(crashed); err != nil || !bytes.Equal(before, after) {
		t.Errorf("the first cluster's report changed when the arena was reused (%v)", err)
	}
}

// nodeMetrics is node i's own telemetry snapshot, from its manifest.
func nodeMetrics(t *testing.T, c *fleet.Cluster, i int) *telemetry.Snapshot {
	t.Helper()
	m, err := c.NodeManifest(i)
	if err != nil {
		t.Fatal(err)
	}
	return &m.Metrics
}

// The report's cluster-wide snapshot is merged from the nodes'
// registries through one snapshot refilled node after node, and must
// share no bucket with it or with them: the merge adds in place.
func TestReportSnapshotsShareNoBuckets(t *testing.T) {
	c, rep := crashFleet(t, 1)
	bucketsSum := func(who string, hs []telemetry.HistSnap) {
		for _, h := range hs {
			var sum int64
			for _, n := range h.Counts {
				sum += n
			}
			if sum != h.Count {
				t.Fatalf("%s histogram %s: buckets sum to %d, count is %d — another snapshot was added into it",
					who, h.Name, sum, h.Count)
			}
		}
	}
	var hists int
	for i := 0; i < c.NodeCount(); i++ {
		hs := nodeMetrics(t, c, i).Histograms
		bucketsSum(fmt.Sprintf("node %d", i), hs)
		hists += len(hs)
	}
	bucketsSum("the cluster", rep.Telemetry.Histograms)
	if hists == 0 || len(rep.Telemetry.Histograms) == 0 {
		t.Fatal("the fleet observed no histogram")
	}
	for i := range rep.Telemetry.Histograms {
		rep.Telemetry.Histograms[i].Counts[0] += 1000
	}
	for _, h := range nodeMetrics(t, c, 0).Histograms {
		if h.Counts[0] >= 1000 {
			t.Fatalf("writing the cluster snapshot's %s buckets wrote node 0's", h.Name)
		}
	}
}

// TestNodeStormRejectsSharedInjected: Storm.Injected is a single-node
// test hook. Fanned across nodes, every node of the fan would add into
// the one counter from the parallel phase, a data race that `go test
// -race` reports on a 2-node fan at two workers, so ArmFleet refuses
// it. Were it accepted, the run below would be that race.
func TestNodeStormRejectsSharedInjected(t *testing.T) {
	c := mustNew(t, fleet.Config{Nodes: 2, Seed: 1, Workers: 2})
	var injected ticks.Ticks
	err := fault.ArmFleet(c, 1, &telemetry.EventLog{}, fault.NodeStorm{
		Storm: fault.Storm{At: ms, Bursts: 40, Every: ms, Count: 4, Service: 100 * ticks.PerMicrosecond, Injected: &injected},
		Nodes: 2,
	})
	if err == nil {
		c.Run(50 * ms)
		t.Fatalf("ArmFleet accepted a storm fan sharing one Injected counter (%v injected)", injected)
	}
}

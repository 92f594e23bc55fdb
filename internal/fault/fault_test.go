package fault_test

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/invariant"
	"repro/internal/task"
	"repro/internal/telemetry"
	"repro/internal/ticks"
	"repro/internal/trace"
)

const ms = ticks.PerMillisecond

// system assembles a Distributor with an invariant checker chained in
// front of obs, plus a baseline well-behaved workload.
func system(t *testing.T, seed uint64, reservePct int64, obs *trace.Recorder) (*core.Distributor, *invariant.Checker, map[string]task.ID) {
	t.Helper()
	var inner *trace.Recorder
	chk := invariant.New(nil)
	if obs != nil {
		inner = obs
		chk = invariant.New(inner)
	}
	d := core.New(core.Config{Seed: seed, InterruptReservePercent: reservePct, Observer: chk})
	chk.Bind(d.Kernel(), d.Manager(), d.Scheduler())

	ids := make(map[string]task.ID)
	admit := func(name string, period, cpu ticks.Ticks, body task.Body) {
		id, err := d.RequestAdmittance(&task.Task{
			Name: name,
			List: task.ResourceList{{Period: period, CPU: cpu, Fn: name}},
			Body: body,
		})
		if err != nil {
			t.Fatalf("admit %s: %v", name, err)
		}
		ids[name] = id
	}
	admit("video", 10*ms, 3*ms, task.PeriodicWork(3*ms))
	admit("audio", 20*ms, 2*ms, task.PeriodicWork(2*ms))
	return d, chk, ids
}

// suite returns one of every injector, firing at `at`.
func suite(at ticks.Ticks) []fault.Injector {
	return []fault.Injector{
		fault.Overrun{TaskName: "hog", Period: 15 * ms, CPU: 2 * ms, At: at},
		fault.NeverQuiesce{TaskName: "zombie", Period: 20 * ms, CPU: 2 * ms, At: at},
		fault.CrashRestart{TaskName: "flaky", Period: 10 * ms, CPU: 1 * ms, At: at,
			Cycles: 3, MeanUp: 40 * ms, MeanDown: 10 * ms},
		fault.Storm{At: at, Bursts: 3, Every: 30 * ms, Count: 8, Service: 200 * ticks.PerMicrosecond},
		fault.Jitter{At: at, MaxLate: 50 * ticks.PerMicrosecond, Coalesce: 10 * ticks.PerMicrosecond},
		fault.PolicyCorrupt{At: at},
	}
}

// Armed-but-dormant faults (fire time beyond the horizon) must leave
// the trace byte-identical to an unfaulted run: injector randomness
// lives on SplitSeed substreams and never touches the main cost
// stream, and pending events beyond the horizon never reorder the
// schedule inside it.
func TestDormantFaultsPreserveTrace(t *testing.T) {
	run := func(armed bool) []byte {
		rec := trace.New()
		d, _, _ := system(t, 42, 4, rec)
		if armed {
			var log telemetry.EventLog
			mustArm(t, d, 42, &log, suite(ticks.FromSeconds(10))...)
		}
		d.Run(ticks.FromMilliseconds(400))
		var buf bytes.Buffer
		if err := rec.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	plain, armed := run(false), run(true)
	if !bytes.Equal(plain, armed) {
		t.Fatal("arming dormant faults changed the trace")
	}
}

// Fault scenarios are themselves deterministic: the same seed and
// injector list produce identical traces, logs, and verdicts.
func TestFaultedRunIsDeterministic(t *testing.T) {
	run := func() ([]byte, string, int) {
		rec := trace.New()
		d, chk, _ := system(t, 7, 4, rec)
		var log telemetry.EventLog
		chk.LogTo(&log)
		mustArm(t, d, 7, &log, suite(50*ms)...)
		d.Run(ticks.FromMilliseconds(600))
		chk.Finish()
		var buf bytes.Buffer
		if err := rec.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), log.String(), len(chk.Violations())
	}
	t1, l1, v1 := run()
	t2, l2, v2 := run()
	if !bytes.Equal(t1, t2) {
		t.Error("trace differs between identical faulted runs")
	}
	if l1 != l2 {
		t.Errorf("event log differs between identical faulted runs:\n%s\n---\n%s", l1, l2)
	}
	if v1 != v2 {
		t.Errorf("violation count differs: %d vs %d", v1, v2)
	}
}

// An overrunning task is contained in overtime: the well-behaved tasks
// keep every guarantee and the checker stays clean.
func TestOverrunIsContained(t *testing.T) {
	d, chk, ids := system(t, 3, 0, nil)
	var log telemetry.EventLog
	chk.LogTo(&log)
	mustArm(t, d, 3, &log, fault.Overrun{TaskName: "hog", Period: 15 * ms, CPU: 2 * ms, At: 30 * ms})
	d.Run(ticks.FromMilliseconds(500))
	chk.Finish()

	if n := log.CountKind("fault.overrun"); n != 1 {
		t.Fatalf("overrun injections logged = %d, want 1:\n%s", n, log.String())
	}
	for name, id := range ids {
		st, ok := d.Stats(id)
		if !ok {
			t.Fatalf("well-behaved task %s vanished", name)
		}
		if st.Misses != 0 {
			t.Errorf("%s missed %d deadlines under an overrunning neighbour", name, st.Misses)
		}
	}
	if vs := chk.Violations(); len(vs) != 0 {
		t.Errorf("overrun scenario produced violations:\n%s", renderAll(vs))
	}
}

// A never-quiescing controlled-preemption task fails every grace
// period: the scheduler charges exceptions and the rest of the system
// is untouched.
func TestNeverQuiesceChargesExceptions(t *testing.T) {
	d, chk, ids := system(t, 5, 0, nil)
	var log telemetry.EventLog
	mustArm(t, d, 5, &log, fault.NeverQuiesce{TaskName: "zombie", Period: 20 * ms, CPU: 2 * ms, At: 20 * ms})
	d.Run(ticks.FromMilliseconds(500))
	chk.Finish()

	var zombie task.ID = task.NoID
	for _, id := range d.Scheduler().TaskIDs() {
		if _, known := idsValue(ids, id); !known {
			zombie = id
		}
	}
	if zombie == task.NoID {
		t.Fatal("zombie task not scheduled")
	}
	st, _ := d.Stats(zombie)
	if st.Exceptions == 0 {
		t.Error("never-quiesce task failed no grace periods; §5.6 exceptions not charged")
	}
	for name, id := range ids {
		st, _ := d.Stats(id)
		if st.Misses != 0 {
			t.Errorf("%s missed %d deadlines beside the zombie", name, st.Misses)
		}
	}
	if vs := chk.Violations(); len(vs) != 0 {
		t.Errorf("never-quiesce scenario produced violations:\n%s", renderAll(vs))
	}
}

// Crash/restart cycles leave no dangling scheduler state: every cycle
// is logged, the final audit is clean, and survivors never miss.
func TestCrashRestartLeavesNoDanglingState(t *testing.T) {
	d, chk, ids := system(t, 9, 0, nil)
	var log telemetry.EventLog
	chk.LogTo(&log)
	mustArm(t, d, 9, &log, fault.CrashRestart{
		TaskName: "flaky", Period: 10 * ms, CPU: 1 * ms, At: 25 * ms,
		Cycles: 4, MeanUp: 60 * ms, MeanDown: 15 * ms,
	})
	d.Run(ticks.FromMilliseconds(800))
	chk.Finish()

	if got := log.CountKind("fault.crash"); got != 4 {
		t.Errorf("crashes logged = %d, want 4:\n%s", got, log.String())
	}
	if got := log.CountKind("fault.restart"); got != 5 { // initial admit + one per cycle
		t.Errorf("restarts logged = %d, want 5:\n%s", got, log.String())
	}
	if rep := d.Scheduler().Audit(); !rep.OK() {
		t.Errorf("post-run audit found %v", rep.Findings)
	}
	for name, id := range ids {
		st, _ := d.Stats(id)
		if st.Misses != 0 {
			t.Errorf("%s missed %d deadlines across the crash cycles", name, st.Misses)
		}
	}
	if vs := chk.Violations(); len(vs) != 0 {
		t.Errorf("crash/restart scenario produced violations:\n%s", renderAll(vs))
	}
}

// Interrupt storms: the kernel's interrupt accounting reconciles
// exactly with what was injected, InterruptLoadFraction is consistent
// with it, and any deadline the storm destroys is a *recorded* miss —
// the checker finds nothing silent.
func TestStormAccountingAndRecordedMisses(t *testing.T) {
	d, chk, _ := system(t, 13, 4, nil)
	var log telemetry.EventLog
	chk.LogTo(&log)
	injected := new(ticks.Ticks)
	// A violent storm: bursts of multi-millisecond handler slabs, far
	// beyond the 4% reserve.
	mustArm(t, d, 13, &log, fault.Storm{
		At: 40 * ms, Bursts: 6, Every: 50 * ms, Count: 20,
		Service: 500 * ticks.PerMicrosecond, Injected: injected,
	})
	d.Run(ticks.FromMilliseconds(500))
	chk.Finish()

	st := d.KernelStats()
	if st.InterruptTicks != *injected {
		t.Errorf("kernel charged %d interrupt ticks, injectors delivered %d", st.InterruptTicks, *injected)
	}
	if st.Interrupts == 0 || *injected == 0 {
		t.Fatal("storm injected nothing")
	}
	wantFrac := float64(st.InterruptTicks) / float64(st.Now)
	if got := st.InterruptLoadFraction(); math.Abs(got-wantFrac) > 1e-12 {
		t.Errorf("InterruptLoadFraction = %v, want %v", got, wantFrac)
	}
	misses := int64(0)
	for _, id := range d.Scheduler().TaskIDs() {
		s, _ := d.Stats(id)
		misses += s.Misses
	}
	if misses == 0 {
		t.Error("a storm far beyond the reserve caused no recorded misses")
	}
	// The guarantee contract under overload: misses exist, but every
	// one is recorded. Nothing silent.
	for _, v := range chk.Violations() {
		if v.Kind == "silent-miss" {
			t.Errorf("storm produced a silent miss: %s", v)
		}
	}
}

// Timer jitter only ever delays — it must not break the schedule's
// structure, and the run with jitter armed still audits clean.
func TestJitterKeepsStructureIntact(t *testing.T) {
	d, chk, _ := system(t, 17, 0, nil)
	var log telemetry.EventLog
	mustArm(t, d, 17, &log, fault.Jitter{At: 10 * ms, MaxLate: 100 * ticks.PerMicrosecond, Coalesce: 20 * ticks.PerMicrosecond})
	d.Run(ticks.FromMilliseconds(400))
	chk.Finish()
	if got := log.CountKind("fault.jitter"); got != 1 {
		t.Fatalf("jitter installs logged = %d, want 1", got)
	}
	for _, v := range chk.Violations() {
		if v.Kind == "structural" || v.Kind == "stuck-period" {
			t.Errorf("jitter broke scheduler structure: %s", v)
		}
	}
}

// Corrupted policy files are rejected atomically, never leaving the
// Box half-mutated — across many deterministic corruption draws.
func TestPolicyCorruptionRejectedAtomically(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		d, _, _ := system(t, seed, 0, nil)
		var log telemetry.EventLog
		mustArm(t, d, seed, &log,
			fault.PolicyCorrupt{At: 10 * ms},
			fault.PolicyCorrupt{At: 20 * ms},
			fault.PolicyCorrupt{At: 30 * ms})
		d.Run(ticks.FromMilliseconds(50))
		if n := log.CountKind("fault.policy-mutated"); n != 0 {
			t.Fatalf("seed %d: %d corrupted loads mutated the box:\n%s", seed, n, log.String())
		}
		if log.KindPrefixCount("fault.policy") != 3 {
			t.Fatalf("seed %d: expected 3 policy injection outcomes:\n%s", seed, log.String())
		}
	}
}

// --- helpers ---

func idsValue(ids map[string]task.ID, id task.ID) (string, bool) {
	for name, v := range ids {
		if v == id {
			return name, true
		}
	}
	return "", false
}

func renderAll(vs []invariant.Violation) string {
	var b bytes.Buffer
	for _, v := range vs {
		b.WriteString(v.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// mustArm arms injectors, failing the test on a spec error: the
// injector suites in this file are all well-formed by construction.
func mustArm(t *testing.T, d *core.Distributor, seed uint64, log *telemetry.EventLog, injs ...fault.Injector) {
	t.Helper()
	if err := fault.ArmAll(d, seed, log, injs...); err != nil {
		t.Fatalf("arm: %v", err)
	}
}

// Degenerate injector specs — zero or negative periods, counts and
// intervals that would otherwise silently no-op or wedge a timer loop
// on one tick — must be rejected at arm time, before anything is
// scheduled.
func TestInjectorValidationRejectsBadSpecs(t *testing.T) {
	cases := []struct {
		name string
		inj  fault.Injector
	}{
		{"overrun/zero-period", fault.Overrun{TaskName: "x", Period: 0, CPU: ms, At: 0}},
		{"overrun/negative-period", fault.Overrun{TaskName: "x", Period: -ms, CPU: ms, At: 0}},
		{"overrun/zero-cpu", fault.Overrun{TaskName: "x", Period: 10 * ms, CPU: 0, At: 0}},
		{"overrun/cpu-exceeds-period", fault.Overrun{TaskName: "x", Period: ms, CPU: 2 * ms, At: 0}},
		{"overrun/negative-at", fault.Overrun{TaskName: "x", Period: 10 * ms, CPU: ms, At: -1}},
		{"overrun/empty-name", fault.Overrun{Period: 10 * ms, CPU: ms, At: 0}},
		{"never-quiesce/zero-period", fault.NeverQuiesce{TaskName: "x", Period: 0, CPU: ms}},
		{"crash-restart/negative-cycles", fault.CrashRestart{TaskName: "x", Period: 10 * ms, CPU: ms, Cycles: -1, MeanUp: ms, MeanDown: ms}},
		{"crash-restart/zero-mean-up", fault.CrashRestart{TaskName: "x", Period: 10 * ms, CPU: ms, Cycles: 2, MeanUp: 0, MeanDown: ms}},
		{"crash-restart/zero-mean-down", fault.CrashRestart{TaskName: "x", Period: 10 * ms, CPU: ms, Cycles: 2, MeanUp: ms, MeanDown: 0}},
		{"storm/zero-bursts", fault.Storm{Bursts: 0, Count: 4, Service: ms, Every: ms}},
		{"storm/zero-count", fault.Storm{Bursts: 2, Count: 0, Service: ms, Every: ms}},
		{"storm/zero-service", fault.Storm{Bursts: 2, Count: 4, Service: 0, Every: ms}},
		{"storm/zero-every-multi-burst", fault.Storm{Bursts: 2, Count: 4, Service: ms, Every: 0}},
		{"storm/negative-every", fault.Storm{Bursts: 2, Count: 4, Service: ms, Every: -ms}},
		{"storm/negative-at", fault.Storm{Bursts: 1, Count: 4, Service: ms, At: -1}},
		{"jitter/negative-lateness", fault.Jitter{MaxLate: -1}},
		{"jitter/negative-coalesce", fault.Jitter{Coalesce: -1}},
		{"jitter/negative-at", fault.Jitter{At: -1}},
		{"policy-corrupt/negative-at", fault.PolicyCorrupt{At: -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.inj.Validate(); err == nil {
				t.Fatalf("Validate accepted a degenerate spec: %+v", tc.inj)
			}
			d, _, _ := system(t, 1, 0, nil)
			var log telemetry.EventLog
			if err := fault.ArmAll(d, 1, &log, tc.inj); err == nil {
				t.Fatalf("ArmAll armed a degenerate spec: %+v", tc.inj)
			}
			if log.N() != 0 {
				t.Fatalf("rejected spec still logged %d event(s):\n%s", log.N(), log.String())
			}
		})
	}
}

// A bad spec anywhere in the injector list must keep the whole list
// unarmed: validation is all-or-nothing, so a run never starts with a
// half-armed fault plan.
func TestArmAllIsAllOrNothing(t *testing.T) {
	d, _, _ := system(t, 1, 0, nil)
	var log telemetry.EventLog
	err := fault.ArmAll(d, 1, &log,
		fault.Overrun{TaskName: "ok", Period: 10 * ms, CPU: ms, At: 10 * ms},
		fault.Storm{Bursts: 0, Count: 4, Service: ms})
	if err == nil {
		t.Fatal("ArmAll accepted a list with a degenerate spec")
	}
	d.Run(ticks.FromMilliseconds(50))
	if n := log.KindPrefixCount("fault."); n != 0 {
		t.Fatalf("rejected list still injected %d fault(s):\n%s", n, log.String())
	}
}

// Valid specs must keep validating: the suite used across this file
// passes, so validation rejects exactly the degenerate shapes.
func TestInjectorValidationAcceptsSuite(t *testing.T) {
	for _, inj := range suite(50 * ms) {
		if err := inj.Validate(); err != nil {
			t.Errorf("%s: valid spec rejected: %v", inj.Name(), err)
		}
	}
}

// Node-level injector specs get the same treatment at fleet scope.
func TestNodeInjectorValidationRejectsBadSpecs(t *testing.T) {
	storm := fault.Storm{Bursts: 2, Count: 4, Service: ms, Every: ms}
	cases := []struct {
		name string
		inj  fault.NodeInjector
	}{
		{"node-crash/zero-cycles", fault.NodeCrash{At: 0, Cycles: 0, MeanUp: ms, MeanDown: ms}},
		{"node-crash/negative-at", fault.NodeCrash{At: -1, Cycles: 1, MeanUp: ms, MeanDown: ms}},
		{"node-crash/zero-mean-up", fault.NodeCrash{Cycles: 1, MeanUp: 0, MeanDown: ms}},
		{"node-crash/zero-mean-down", fault.NodeCrash{Cycles: 1, MeanUp: ms, MeanDown: 0}},
		{"node-storm/bad-storm", fault.NodeStorm{Storm: fault.Storm{Bursts: 0, Count: 4, Service: ms}, Nodes: 1}},
		{"node-storm/zero-fan", fault.NodeStorm{Storm: storm, Nodes: 0}},
		{"node-storm/negative-first", fault.NodeStorm{Storm: storm, FirstNode: -1, Nodes: 1}},
		{"node-storm/negative-stagger", fault.NodeStorm{Storm: storm, Nodes: 1, Stagger: -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.inj.Validate(); err == nil {
				t.Fatalf("Validate accepted a degenerate node spec: %+v", tc.inj)
			}
		})
	}
}

package sched_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/ticks"
)

// The invariant checker does not audit the scheduler at every period
// start: it audits once per round of NTasks() period starts, and at the
// first period start after a structural change (StructureGeneration).
// The tests here hold it to that contract on live, checked systems.

const ms = ticks.PerMillisecond

// gateOracle rides behind a Checker and, at every period start, runs
// Scheduler.Audit itself on the state the Checker just saw. Before the
// plant the audit must be clean. After it, the oracle requires:
//   - every structural violation the Checker records to carry the
//     exact text of a finding of that audit;
//   - every finding present at the first period start after a
//     structural change to be reported by then;
//   - every finding present at NTasks() period starts in a row to be
//     reported by the last of them;
//   - while the audit has found something at every period start since
//     the plant, a report no later than the NTasks()-th of them, or the
//     first after a structural change.
type gateOracle struct {
	sched.NopObserver
	t   *testing.T
	s   *sched.Scheduler
	chk *invariant.Checker

	planted  bool
	gen      uint64         // structure generation at the previous period start
	starts   int            // period starts since the plant
	dirty    bool           // the audit found something at every one of them
	first    int            // the one at which the first report arrived; 0 before
	streak   map[string]int // period starts in a row each finding has been present
	reported map[string]bool
	checked  int // violations examined so far
}

func (o *gateOracle) plant() {
	o.planted, o.dirty = true, true
	o.streak, o.reported = map[string]int{}, map[string]bool{}
}

func (o *gateOracle) OnPeriodStart(id task.ID, start, _ ticks.Ticks, _ int, _ ticks.Ticks) {
	gen := o.s.StructureGeneration()
	stamped := gen != o.gen
	o.gen = gen
	findings := o.s.Audit().Findings
	o.collect(start, findings)
	if !o.planted {
		if len(findings) != 0 {
			o.t.Fatalf("t=%v: the scheduler fails its audit before any damage: %q", start, findings)
		}
		return
	}
	o.starts++
	o.dirty = o.dirty && len(findings) != 0
	if o.first == 0 && len(o.reported) != 0 {
		o.first = o.starts
	}
	round := o.s.NTasks()
	if o.dirty && o.first == 0 && (stamped || o.starts >= round) {
		o.t.Fatalf("t=%v: the audit has found damage at all %d period starts since the plant (round %d, structural change %v), and nothing is reported: %q",
			start, o.starts, round, stamped, findings)
	}
	streak := make(map[string]int, len(findings))
	for _, f := range findings {
		streak[f] = o.streak[f] + 1
		switch {
		case o.reported[f]:
		case stamped:
			o.t.Fatalf("t=%v: %q present at the first period start after a structural change, and not reported", start, f)
		case streak[f] >= round:
			o.t.Fatalf("t=%v: %q present at %d period starts in a row (round %d), and not reported", start, f, streak[f], round)
		}
	}
	o.streak = streak
}

// collect examines the violations recorded since its last call: a
// structural one must be stamped at and carry the text of one of
// findings, the audit of the state it was reported in.
func (o *gateOracle) collect(at ticks.Ticks, findings []string) {
	vs := o.chk.Violations()
	for _, v := range vs[o.checked:] {
		if v.Kind != "structural" {
			continue
		}
		if v.At != at || !slices.Contains(findings, v.Detail) {
			o.t.Fatalf("t=%v: structural violation %v matches no finding of the audit %q", at, v, findings)
		}
		o.reported[v.Detail] = true
	}
	o.checked = len(vs)
}

// finish holds Checker.Finish to reporting whatever is still present.
func (o *gateOracle) finish(now ticks.Ticks) {
	o.chk.Finish()
	findings := o.s.Audit().Findings
	o.collect(now, findings)
	for _, f := range findings {
		if !o.reported[f] {
			o.t.Fatalf("Finish left %q unreported", f)
		}
	}
}

// gatedSystem is a live Distributor checked by an invariant.Checker,
// with a gateOracle behind the Checker.
type gatedSystem struct {
	d      *core.Distributor
	oracle *gateOracle
}

func newGatedSystem(t *testing.T, seed uint64, costs sim.SwitchCosts) gatedSystem {
	o := &gateOracle{t: t}
	chk := invariant.New(o)
	d := core.New(core.Config{Seed: seed, SwitchCosts: &costs, Observer: chk})
	chk.Bind(d.Kernel(), d.Manager(), d.Scheduler())
	o.s, o.chk = d.Scheduler(), chk
	return gatedSystem{d, o}
}

// plant applies c and tells the oracle; false when the system lacks
// what c needs.
func (g gatedSystem) plant(c sched.AuditCorruption) bool {
	if !c.Apply(g.d.Scheduler()) {
		return false
	}
	g.oracle.plant()
	return true
}

// randomBody is one of the library's bodies for a task with grant cpu:
// some block (timed or until Unblock), some exit after a few periods,
// some ask for overtime, one honours grace periods.
func randomBody(rng *sim.RNG, cpu ticks.Ticks) (task.Body, bool) {
	switch rng.Intn(6) {
	case 0:
		return task.PeriodicWork(cpu), false
	case 1:
		return task.Busy(), false
	case 2:
		return task.YieldAll(), false
	case 3:
		return task.WorkThenBlock(cpu/2+1, ticks.Ticks(rng.Intn(30))*ms), false
	case 4:
		return task.FinitePeriods(cpu, 2+rng.Intn(10)), false
	default:
		return task.CooperativeWork(cpu, cpu/4+1), true
	}
}

// populate admits a seeded task set — maybe with a Sporadic Server and
// its sporadic tasks — and arms a seeded list of structural operations
// before horizon: terminations, unblocks, late admissions, grant
// assignments and sporadic removals.
func (g gatedSystem) populate(rng *sim.RNG, horizon ticks.Ticks) {
	d := g.d
	admit := func(name string) {
		period := ticks.Ticks(5+rng.Intn(40)) * ms
		cpu := period * ticks.Ticks(1+rng.Intn(15)) / 100
		body, controlled := randomBody(rng, cpu)
		_, _ = d.RequestAdmittance(&task.Task{
			Name: name, List: task.SingleLevel(period, cpu, name), Body: body, ControlledPreemption: controlled,
		})
	}
	for i, n := 0, 2+rng.Intn(6); i < n; i++ {
		admit(fmt.Sprintf("t%d", i))
	}
	var sps []sched.SporadicID
	if rng.Intn(2) == 0 {
		// Not core.AddSporadicServer, whose body panics: damage that drops
		// the server from the task table has the next grant pickup start
		// it afresh, as a plain task.
		id, err := d.RequestAdmittance(&task.Task{Name: "ss", List: task.SingleLevel(10*ms, 2*ms, "SS"), Body: task.Busy()})
		if err == nil {
			_ = d.Scheduler().AttachSporadicServer(id, rng.Intn(2) == 0)
		}
	}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		body := task.Busy()
		if rng.Intn(2) == 0 {
			// A timed block: its wake-up can fall inside the slice the
			// server or the assigning task is running, which ends there.
			body = task.WorkThenBlock(ms, ticks.Ticks(1+rng.Intn(20))*ms)
		}
		sps = append(sps, d.AddSporadic(fmt.Sprintf("sp%d", i), body))
	}
	someTask := func() task.ID { return task.ID(1 + rng.Intn(10)) }
	for i, n := 0, rng.Intn(8); i < n; i++ {
		at := ticks.Ticks(1+rng.Intn(int(horizon/ms)-1)) * ms
		switch op := rng.Intn(5); {
		case op == 0:
			id := someTask()
			d.At(at, func() { _ = d.Terminate(id) })
		case op == 1:
			id := someTask()
			d.At(at, func() { _ = d.Unblock(id) })
		case op == 2:
			name := fmt.Sprintf("late%d", i)
			d.At(at, func() { admit(name) })
		case len(sps) == 0:
		case op == 3:
			id, sp, amount := someTask(), sps[rng.Intn(len(sps))], ticks.Ticks(1+rng.Intn(20))*ms
			d.At(at, func() { _ = d.AssignGrant(id, sp, amount) })
		default:
			sp := sps[rng.Intn(len(sps))]
			d.At(at, func() { d.RemoveSporadic(sp) })
		}
	}
}

// FuzzAuditGate plants one corruption from the audit's table, at a
// seeded instant, in a live checked system with a seeded task set and
// seeded structural operations, and holds the Checker to its detection
// contract (gateOracle) until the horizon and through Finish. Only the
// corruptions a running scheduler survives are planted.
func FuzzAuditGate(f *testing.F) {
	var live []sched.AuditCorruption
	for _, c := range sched.AuditCorruptions {
		if c.Live {
			live = append(live, c)
		}
	}
	for i := range 2 * len(live) {
		f.Add(uint64(i+1), uint8(i), uint16(7+29*i))
	}
	const horizon = 400 * ms
	f.Fuzz(func(t *testing.T, seed uint64, which uint8, plantMS uint16) {
		rng := sim.NewRNG(seed)
		costs := sim.ZeroSwitchCosts()
		if rng.Intn(2) == 0 {
			costs = sim.PaperSwitchCosts()
		}
		g := newGatedSystem(t, seed, costs)
		g.populate(rng, horizon)
		g.d.RunUntil(ticks.Ticks(1+int(plantMS)%350) * ms)
		if !g.plant(live[int(which)%len(live)]) {
			return
		}
		g.d.RunUntil(horizon)
		g.oracle.finish(g.d.Now())
	})
}

// TestStructuralChangeAuditsAtNextPeriodStart pins the generation half
// of the contract: after each stamped operation the next period start
// audits, where without one the damage waits for the round. Six tasks
// share one 10 ms period, so each boundary is a round of six period
// starts whose audit comes at the sixth; the damage — an assignment
// budget with no assignee, which the scheduler never acts on — is
// planted at 27 ms, the operation performed right after it, and the
// first period start after both is the first of the 30 ms boundary.
func TestStructuralChangeAuditsAtNextPeriodStart(t *testing.T) {
	var damage sched.AuditCorruption
	for _, c := range sched.AuditCorruptions {
		if c.Name == "assignment budget without assignee" {
			damage = c
		}
	}
	type system struct {
		d     *core.Distributor
		ids   []task.ID
		sp    sched.SporadicID
		block *bool
	}
	cases := []struct {
		name   string
		before func(s system)       // at 15 ms
		op     func(s system) error // at 27 ms, right after the plant
	}{
		{name: "none"},
		{name: "drop", op: func(s system) error { return s.d.Terminate(s.ids[5]) }},
		{name: "block", op: func(s system) error { *s.block = true; return nil }},
		{name: "wake",
			before: func(s system) { *s.block = true },
			op:     func(s system) error { return s.d.Unblock(s.ids[4]) }},
		{name: "AssignGrant", op: func(s system) error { return s.d.AssignGrant(s.ids[0], s.sp, 2*ms) }},
		{name: "RemoveSporadic", op: func(s system) error { s.d.RemoveSporadic(s.sp); return nil }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := newGatedSystem(t, 1, sim.ZeroSwitchCosts())
			s := system{d: g.d, block: new(bool)}
			for i := range 6 {
				body := task.PeriodicWork(ms)
				if i == 4 {
					// Busy but for a requested block: it soaks up the idle
					// time, so it is on the CPU whenever the test acts.
					body = task.BodyFunc(func(ctx task.RunContext) task.RunResult {
						if *s.block {
							*s.block = false
							return task.RunResult{Op: task.OpBlock}
						}
						return task.RunResult{Used: ctx.Span, Op: task.OpOvertime}
					})
				}
				id, err := g.d.RequestAdmittance(&task.Task{Name: fmt.Sprintf("t%d", i), List: task.SingleLevel(10*ms, ms, "T"), Body: body})
				if err != nil {
					t.Fatal(err)
				}
				s.ids = append(s.ids, id)
			}
			s.sp = g.d.AddSporadic("job", task.Busy())
			g.d.RunUntil(15 * ms)
			if c.before != nil {
				c.before(s)
			}
			g.d.RunUntil(27 * ms)
			if !g.plant(damage) {
				t.Fatal("the system lacks what the damage needs")
			}
			want := g.d.Scheduler().Audit().Findings
			if c.op != nil {
				if err := c.op(s); err != nil {
					t.Fatal(err)
				}
			}
			g.d.RunUntil(45 * ms)
			g.oracle.finish(g.d.Now())

			first := g.oracle.first
			if c.op != nil && first != 1 {
				t.Errorf("reported at period start %d after the operation, want 1", first)
			}
			if c.op == nil && (first <= 1 || first > 6) {
				t.Errorf("reported at period start %d after the plant, want within the round of 6 but not the first", first)
			}
			var got []string
			for _, v := range g.oracle.chk.Violations() {
				if v.Kind == "structural" {
					got = append(got, v.Detail)
				}
			}
			if !slices.Equal(got, want) {
				t.Errorf("structural reports %q, want the audit's %q", got, want)
			}
		})
	}
}

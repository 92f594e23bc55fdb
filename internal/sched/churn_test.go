package sched_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/rm"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/ticks"
)

// The churn oracle drives one Manager and Scheduler through a tape of
// admissions, body exits, terminations, quiescence changes, resource
// list changes and runs. The Scheduler hands a dropped task's tcb to
// the next task it starts, so besides the structural audit after every
// step the oracle holds each task's accounting to what the Observer
// reported of that task alone: a field carried over from a tcb's
// previous owner shows in Stats or in the first period's grant.
//
// A recycle step rebuilds the kernel, Manager and Scheduler in their
// own storage (NewKernelIn, rm.NewIn, NewIn) mid-tape, and from there
// the tape also runs on a trio built new from the same seed: the two
// must dispatch the same slices and audit to the same findings.

// churnBody runs a library body until the tape makes it exit.
type churnBody struct {
	inner task.Body
	exit  bool
}

func (b *churnBody) Run(ctx task.RunContext) task.RunResult {
	if b.exit {
		return task.RunResult{Op: task.OpExit}
	}
	return b.inner.Run(ctx)
}

// churnLedger is the oracle's account of one scheduled task, from the
// Observer calls alone.
type churnLedger struct {
	periods, misses   int64
	granted, overtime ticks.Ticks
}

// churnObserver keeps a churnLedger per task and checks each task's
// first period against the RM's committed grant.
type churnObserver struct {
	sched.NopObserver
	m      *rm.Manager
	ledger map[task.ID]*churnLedger
	bad    []string
	// slices is the per-slice transcript: every dispatch, in order.
	slices []byte
}

func (o *churnObserver) of(id task.ID) *churnLedger {
	l := o.ledger[id]
	if l == nil {
		l = new(churnLedger)
		o.ledger[id] = l
	}
	return l
}

func (o *churnObserver) OnPeriodStart(id task.ID, start, _ ticks.Ticks, level int, cpu ticks.Ticks) {
	l := o.of(id)
	if l.periods == 0 {
		// A task's first period starts as the Scheduler picks it up,
		// under the grant the RM committed for it.
		if g := o.m.Committed().Of(id); g.Level != level || g.Entry.CPU != cpu {
			o.bad = append(o.bad, fmt.Sprintf("t=%v: task %d starts at level %d with %v; the RM granted level %d with %v",
				start, id, level, cpu, g.Level, g.Entry.CPU))
		}
	}
	l.periods++
	l.granted += cpu
}

func (o *churnObserver) OnDeadlineMiss(id task.ID, _, _ ticks.Ticks) { o.of(id).misses++ }

func (o *churnObserver) OnDispatch(id task.ID, _ string, from, to ticks.Ticks, kind sched.DispatchKind, level int) {
	if kind == sched.DispatchOvertime {
		o.of(id).overtime += to - from
	}
	o.slices = fmt.Appendf(o.slices, "%d %v-%v %v %d\n", id, from, to, kind, level)
}

// churnSystem is the Manager and Scheduler under test, the oracle's
// observer, and the tape's randomness.
type churnSystem struct {
	k      *sim.Kernel
	m      *rm.Manager
	s      *sched.Scheduler
	o      *churnObserver
	rng    *sim.RNG
	bodies map[task.ID]*churnBody
	lastID task.ID
	// recycled counts runs during which the Scheduler started a task in
	// a dropped task's tcb.
	recycled int
}

func newChurnSystem(seed uint64) *churnSystem { return new(churnSystem).rebuild(seed) }

// rebuild readies c for a tape seeded by seed, its kernel, Manager and
// Scheduler built in the storage of the ones it had, if any.
func (c *churnSystem) rebuild(seed uint64) *churnSystem {
	rng := sim.NewRNG(seed)
	costs := sim.ZeroSwitchCosts()
	if rng.Intn(2) == 0 {
		costs = sim.PaperSwitchCosts()
	}
	k := sim.NewKernelIn(c.k, sim.Config{Seed: seed, Costs: costs})
	m := rm.NewIn(c.m, rm.Config{InterruptReservePercent: int64(rng.Intn(5))})
	o := &churnObserver{m: m, ledger: map[task.ID]*churnLedger{}}
	s := sched.NewIn(c.s, sched.Config{Kernel: k, RM: m, Observer: o})
	m.SetHooks(s)
	*c = churnSystem{k: k, m: m, s: s, o: o, rng: rng, bodies: map[task.ID]*churnBody{}, recycled: c.recycled}
	return c
}

// list is a resource list of one to three levels of a 5–40 ms period.
func (c *churnSystem) list() task.ResourceList {
	period := ticks.Ticks(5+c.rng.Intn(36)) * ms
	levels := []int{5 + c.rng.Intn(40)}
	for n := c.rng.Intn(3); n > 0 && levels[len(levels)-1] > 1; n-- {
		levels = append(levels, 1+c.rng.Intn(levels[len(levels)-1]-1))
	}
	return task.UniformLevels(period, "C", levels...)
}

// body is one of the library's bodies for a task granted cpu per
// period, behind the tape's exit switch.
func (c *churnSystem) body(cpu ticks.Ticks) *churnBody {
	var inner task.Body
	switch c.rng.Intn(5) {
	case 0:
		inner = task.Busy()
	case 1:
		inner = task.YieldAll()
	case 2:
		inner = task.WorkThenBlock(cpu/2+1, ticks.Ticks(c.rng.Intn(20))*ms)
	case 3:
		inner = task.FinitePeriods(cpu, 1+c.rng.Intn(8))
	default:
		inner = task.PeriodicWork(cpu)
	}
	return &churnBody{inner: inner}
}

// step applies one tape operation and describes it.
func (c *churnSystem) step(op byte) string {
	// An ID the Manager issued, or the next one, which it has not.
	id := task.ID(1 + c.rng.Intn(int(c.lastID)+1))
	switch op % 9 {
	case 0, 1:
		list := c.list()
		b := c.body(list.Min().CPU)
		nid, err := c.m.RequestAdmittance(&task.Task{
			Name: fmt.Sprintf("c%d", c.rng.Intn(5)), List: list, Body: b, StartQuiescent: c.rng.Intn(6) == 0,
		})
		if err == nil {
			c.bodies[nid], c.lastID = b, nid
		}
		return fmt.Sprintf("admit %v: %d, %v", list, nid, err)
	case 2:
		if b := c.bodies[id]; b != nil {
			b.exit = true
		}
		return fmt.Sprintf("exit %d", id)
	case 3:
		return fmt.Sprintf("terminate %d: %v", id, c.m.Remove(id))
	case 4:
		if st, err := c.m.State(id); err == nil && st != task.Quiescent {
			// The Scheduler drops the task now; a Wake starts it afresh.
			delete(c.o.ledger, id)
		}
		return fmt.Sprintf("quiesce %d: %v", id, c.m.SetQuiescent(id))
	case 5:
		return fmt.Sprintf("wake %d: %v", id, c.m.Wake(id))
	case 6:
		return fmt.Sprintf("change %d: %v", id, c.m.ChangeResourceList(id, c.list()))
	default:
		spare := c.s.SpareTCBs()
		to := c.k.Now() + ticks.Ticks(1+c.rng.Intn(30))*ms
		c.s.RunUntil(to)
		if c.s.SpareTCBs() < spare {
			c.recycled++
		}
		return fmt.Sprintf("run to %v", to)
	}
}

// check holds the system to the oracle after a step.
func (c *churnSystem) check(t *testing.T, what string) {
	t.Helper()
	if f := c.s.Audit().Findings; len(f) != 0 {
		t.Fatalf("after %s: the audit finds %q", what, f)
	}
	if len(c.o.bad) != 0 {
		t.Fatalf("after %s: %s", what, c.o.bad[0])
	}
	for _, id := range c.s.TaskIDs() {
		if st, err := c.m.State(id); err != nil || st == task.Quiescent {
			t.Fatalf("after %s: the Scheduler holds task %d, which the RM has as %v (%v)", what, id, st, err)
		}
		st, _ := c.s.Stats(id)
		l := c.o.of(id)
		if st.Periods != l.periods || st.Misses != l.misses || st.GrantedTicks != l.granted || st.OvertimeTicks != l.overtime {
			t.Fatalf("after %s: task %d's stats are %+v; the Observer saw %d periods, %d misses, %v granted, %v overtime",
				what, id, st, l.periods, l.misses, l.granted, l.overtime)
		}
	}
}

// agree holds the rebuilt system c to its fresh twin after the same
// step: the same step, the same slices dispatched, the same findings.
func (c *churnSystem) agree(t *testing.T, twin *churnSystem, what, twinWhat string) {
	t.Helper()
	if what != twinWhat {
		t.Fatalf("the rebuilt system did %q where a fresh one did %q", what, twinWhat)
	}
	if !bytes.Equal(c.o.slices, twin.o.slices) {
		t.Fatalf("after %s: the rebuilt system's slices differ from a fresh one's:\n%s\nfresh:\n%s", what, c.o.slices, twin.o.slices)
	}
	if f, g := c.s.Audit().Findings, twin.s.Audit().Findings; !slices.Equal(f, g) {
		t.Fatalf("after %s: the rebuilt system's audit finds %q, a fresh one's %q", what, f, g)
	}
}

// churnResult is what a tape reached: runs that started a task in a
// recycled tcb, and recycle steps that rebuilt a system holding tasks.
type churnResult struct{ recycledTCBs, rebuiltBusy int }

// churn plays tape on a system seeded by seed, checking after every
// step. From the first recycle step on, a fresh twin plays the rest of
// the tape beside it.
func churn(t *testing.T, seed uint64, tape []byte) churnResult {
	c := newChurnSystem(seed)
	var twin *churnSystem
	var res churnResult
	if len(tape) > 256 {
		tape = tape[:256]
	}
	for _, op := range tape {
		if op%9 == 8 { // recycle: step plays the other eight
			if c.s.NTasks() > 0 {
				res.rebuiltBusy++
			}
			next := c.rng.Uint64()
			c.rebuild(next)
			twin = newChurnSystem(next)
			c.check(t, "recycle")
			continue
		}
		what := c.step(op)
		c.check(t, what)
		if twin != nil {
			twinWhat := twin.step(op)
			twin.check(t, twinWhat)
			c.agree(t, twin, what, twinWhat)
		}
	}
	c.s.RunUntil(c.k.Now() + 100*ms)
	c.check(t, "the final run")
	if twin != nil {
		twin.s.RunUntil(twin.k.Now() + 100*ms)
		c.agree(t, twin, "the final run", "the final run")
	}
	res.recycledTCBs = c.recycled
	return res
}

// churnTapes is the seed corpus: every nine steps hold each operation
// once, two admissions, a run and a recycle among them, in an order
// that shifts from tape to tape.
func churnTapes() [][]byte {
	var tapes [][]byte
	for i := 0; i < 8; i++ {
		tape := make([]byte, 96)
		for j := range tape {
			tape[j] = byte(j*5 + i*3)
		}
		tapes = append(tapes, tape)
	}
	return tapes
}

// FuzzSchedulerChurn: no tape panics, breaks the structural audit, or
// starts a task with anything of a previous tcb owner's accounting, and
// a system rebuilt in place behaves as one built new.
func FuzzSchedulerChurn(f *testing.F) {
	for i, tape := range churnTapes() {
		f.Add(uint64(i+1), tape)
	}
	f.Fuzz(func(t *testing.T, seed uint64, tape []byte) { churn(t, seed, tape) })
}

// TestSchedulerChurnRecycles: the corpus reaches both recycled paths —
// tasks start in tcbs that dropped tasks left, and recycle steps
// rebuild systems that still hold tasks.
func TestSchedulerChurnRecycles(t *testing.T) {
	var sum churnResult
	for i, tape := range churnTapes() {
		r := churn(t, uint64(i+1), tape)
		sum.recycledTCBs += r.recycledTCBs
		sum.rebuiltBusy += r.rebuiltBusy
	}
	if sum.recycledTCBs == 0 {
		t.Fatal("no run of the corpus started a task in a recycled tcb")
	}
	if sum.rebuiltBusy == 0 {
		t.Fatal("no recycle step of the corpus rebuilt a system that held tasks")
	}
}

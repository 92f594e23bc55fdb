package sim

import (
	"testing"

	"repro/internal/ticks"
)

// TestCancelledRefInertAfterReuse is the pool-hazard regression: a
// ref to a cancelled event must stay inert after the pool hands the
// same Event object to a new timer. Cancelling the stale ref must not
// cancel the new timer, Pending must report false, and the new timer
// must still fire.
func TestCancelledRefInertAfterReuse(t *testing.T) {
	var q EventQueue
	fired := ""
	old := q.Push(10, func() { fired += "old" })
	q.Cancel(old)

	// The pool now holds exactly the old Event; the next Push reuses it.
	renewed := q.Push(20, func() { fired += "new" })
	if renewed.e != old.e {
		t.Fatal("test premise broken: pool did not reuse the cancelled event")
	}

	if old.Pending() {
		t.Error("stale ref reports Pending after its event was reused")
	}
	q.Cancel(old) // must be a no-op against the reused event
	if !renewed.Pending() {
		t.Fatal("cancelling a stale ref cancelled the reused event")
	}

	e := q.Pop()
	if e == nil {
		t.Fatal("queue empty: the reused timer vanished")
	}
	e.fire()
	q.Recycle(e)
	if fired != "new" {
		t.Fatalf("fired = %q, want %q (old callback must never run)", fired, "new")
	}
}

// TestFiredRefInertAfterReuse is the same hazard through the firing
// path: once an event has fired through the kernel, a retained ref
// must not be able to cancel the event's next incarnation.
func TestFiredRefInertAfterReuse(t *testing.T) {
	k := NewKernel(Config{Costs: ZeroSwitchCosts()})
	var fired []string
	first := k.At(10, func() { fired = append(fired, "first") })
	if !k.Step() {
		t.Fatal("no event to step")
	}
	// The pooled event is free again; the next timer reuses it.
	k.At(20, func() { fired = append(fired, "second") })
	k.Cancel(first) // stale: must not touch the second timer
	if !k.Step() {
		t.Fatal("second timer was cancelled through a stale ref")
	}
	if len(fired) != 2 || fired[0] != "first" || fired[1] != "second" {
		t.Fatalf("fired = %v, want [first second]", fired)
	}
}

// TestPooledEventHoldsNoReferences pins the pooling invariant
// documented in docs/PERFORMANCE.md: an event returned to the pool
// holds no task references — closure, handler, and payload are all
// cleared, so the pool can never keep a dropped task (or anything it
// captures) alive.
func TestPooledEventHoldsNoReferences(t *testing.T) {
	var q EventQueue
	captured := struct{ big [16]int64 }{}
	r := q.Push(5, func() { _ = captured })
	q.Cancel(r)
	e := r.e
	if e.Fn != nil || e.h != nil {
		t.Error("pooled event retains a callback reference")
	}
	if e.op != 0 || e.id != 0 || e.arg != 0 {
		t.Error("pooled event retains its typed payload")
	}

	h := &rearmHandler{}
	r2 := q.PushCall(7, h, 3, 9, 11)
	q.Cancel(r2)
	if r2.e.h != nil || r2.e.op != 0 || r2.e.id != 0 || r2.e.arg != 0 {
		t.Error("pooled typed event retains handler or payload")
	}
}

// TestDeterministicOrderAfterCancel runs the same push/cancel/pop
// sequence twice — a sequence chosen to force removeAt re-heaps from
// the middle of the 4-ary heap — and requires bit-identical pop
// orders. The heap layout must be a pure function of the operation
// sequence (no address-dependent tie-breaks), or same-seed runs would
// diverge after their first cancelled timer.
func TestDeterministicOrderAfterCancel(t *testing.T) {
	run := func() []int64 {
		var q EventQueue
		refs := make([]EventRef, 0, 40)
		// Interleaved times with heavy ties: seq is the only
		// tie-break, and cancels punch holes all over the heap.
		for i := 0; i < 40; i++ {
			at := ticks.Ticks((i * 7) % 10)
			refs = append(refs, q.Push(at, nil))
		}
		for i := 0; i < 40; i += 3 {
			q.Cancel(refs[i])
		}
		// Refill so re-heaped layout mixes with fresh events.
		for i := 0; i < 10; i++ {
			q.Push(ticks.Ticks(i%4), nil)
		}
		var order []int64
		for {
			e := q.Pop()
			if e == nil {
				return order
			}
			order = append(order, int64(e.At)<<32|int64(e.seq))
			q.Recycle(e)
		}
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("pop counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pop order diverges at %d: %x vs %x", i, a[i], b[i])
		}
	}
	// And the order itself must be sorted by (At, seq): the re-heap
	// after Cancel must not have broken the heap property.
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("pop order not sorted by (At, seq) at %d", i)
		}
	}
}

// TestReleaseBeforeRunReusesSameEvent pins the dispatch contract that
// makes the zero-alloc steady state work: the kernel releases the
// fired event to the pool before running its callback, so a callback
// that immediately re-arms gets the very event that fired it.
func TestReleaseBeforeRunReusesSameEvent(t *testing.T) {
	k := NewKernel(Config{Costs: ZeroSwitchCosts()})
	var first, second EventRef
	first = k.At(10, func() {
		second = k.At(20, func() {})
	})
	if !k.Step() {
		t.Fatal("no event to step")
	}
	if second.e != first.e {
		t.Error("re-arm inside the callback did not reuse the fired event")
	}
	if second.gen == first.gen {
		t.Error("reused event kept its generation: stale refs would stay live")
	}
}

// TestColdQueueAllocatesByBlock pins the pool's growth: a cold queue
// takes its first n events from ⌈n/eventBlock⌉ block allocations, not
// n single ones. The heap arrays are sized up front, so only the
// events are counted. A nil-handler typed event pops as data.
func TestColdQueueAllocatesByBlock(t *testing.T) {
	for _, n := range []int{1, eventBlock, eventBlock + 1, 100} {
		const runs = 10
		qs := make([]EventQueue, runs+1)
		for i := range qs {
			qs[i].h = make([]*Event, 0, n)
		}
		next := 0
		allocs := testing.AllocsPerRun(runs, func() {
			q := &qs[next]
			next++
			for i := 0; i < n; i++ {
				q.PushCall(ticks.Ticks(n-i), nil, 1, int32(i), 2)
			}
		})
		if want := float64((n + eventBlock - 1) / eventBlock); allocs != want {
			t.Errorf("%d pushes on a cold queue: %v allocs, want %v", n, allocs, want)
		}
		for i := n - 1; i >= 0; i-- {
			e := qs[0].Pop()
			if op, id, arg := e.Payload(); op != 1 || id != int32(i) || arg != 2 {
				t.Fatalf("popped payload (%d, %d, %d), want (1, %d, 2)", op, id, arg, i)
			}
			qs[0].Recycle(e)
		}
	}
}

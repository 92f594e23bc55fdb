// Package sim is the discrete-event, virtual-time substrate on which
// the ETI Resource Distributor runs in this reproduction.
//
// The paper's own evaluation (§6) was "acquired on a cycle-accurate
// simulator" of the MAP1000; this package plays that role. It provides
// a virtual clock in 27 MHz ticks, a deterministic event queue, a
// parameterised context-switch cost model matching §6.1, and CPU
// accounting. The scheduling logic itself lives in internal/sched and
// is exactly the paper's algorithm; sim only answers "what time is it,
// how long did that context switch take, and what happens next".
//
//rd:hotpath
package sim

import (
	"repro/internal/ticks"
)

// Handler receives typed event callbacks. It is the closure-free
// alternative to scheduling a func(): recurring timers (task wakeups,
// interrupt sources) carry an (op, id, arg) payload and dispatch
// through one interface call instead of allocating a fresh closure per
// arming. internal/sched implements it.
type Handler interface {
	// HandleEvent runs the callback identified by op for the object
	// identified by id, with one spare argument. It is called with the
	// kernel clock set to the event's time.
	HandleEvent(op, id int32, arg ticks.Ticks)
}

// Event is a scheduled callback in virtual time. Exactly one of Fn
// (closure form) or the typed (Handler, op, id, arg) payload is set.
//
// Events are pooled: once an event fires or is cancelled, the queue
// reclaims it for reuse, so a *Event must never be held across its
// firing. The EventRef returned by Push/PushCall (and Kernel.At/
// AtCall/After/AfterCall) is the safe handle: it carries a generation
// counter and turns into a no-op once the event it named has been
// reclaimed, even if the underlying Event object has been reused for
// a different timer since.
type Event struct {
	At ticks.Ticks // virtual time at which the event fires
	Fn func()      // closure callback; nil for typed events

	h   Handler // typed callback; nil for closure events
	op  int32
	id  int32
	arg ticks.Ticks

	seq   uint64 // tie-break: FIFO among events at the same instant
	index int32  // heap index; -1 when not queued
	gen   uint32 // bumped on reclaim; EventRef validity check
}

// fire runs the event's callback. The caller has already set the
// clock and released the event back to the pool (the payload is read
// into locals first, so reuse during the callback is safe).
func (e *Event) fire() {
	if e.h != nil {
		e.h.HandleEvent(e.op, e.id, e.arg)
		return
	}
	e.Fn()
}

// EventRef is a revocable handle on a scheduled event. The zero value
// names no event; Cancel of it is a no-op. A ref survives its event:
// after the event fires, is cancelled, or its storage is reused for a
// later timer, the ref's generation no longer matches and every
// operation through it is a no-op. Holding a ref therefore never
// requires knowing whether the event already ran — exactly the shape
// the scheduler's wake timers need.
type EventRef struct {
	e   *Event
	gen uint32
}

// Pending reports whether the referenced event is still queued.
func (r EventRef) Pending() bool {
	return r.e != nil && r.e.gen == r.gen && r.e.index >= 0
}

// EventQueue is a deterministic min-heap of events ordered by time,
// with FIFO ordering among simultaneous events. The zero value is
// ready to use.
//
// The heap is a concrete-typed 4-ary array heap over pooled *Event
// nodes: Push/Pop/Cancel neither box through interfaces (as
// container/heap does) nor allocate per timer once the pool has
// warmed up. The layout after any operation sequence is a pure
// function of that sequence — there is no randomness and no
// address-dependent comparison — so identical runs produce identical
// pop orders even after Cancel-induced re-heaps.
type EventQueue struct {
	h    []*Event // 4-ary min-heap: children of i are 4i+1 .. 4i+4
	free []*Event // reclaimed events awaiting reuse
	seq  uint64
}

// get takes an event from the free list, or allocates one.
func (q *EventQueue) get() *Event {
	if n := len(q.free); n > 0 {
		e := q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
		return e
	}
	return &Event{index: -1}
}

// release reclaims a no-longer-queued event into the pool. The
// pooling invariant (docs/PERFORMANCE.md): an event returned to the
// pool holds no task references — callback, handler, and payload are
// cleared here, and the generation bump invalidates every outstanding
// EventRef to the old incarnation.
func (q *EventQueue) release(e *Event) {
	e.Fn = nil
	e.h = nil
	e.op, e.id, e.arg = 0, 0, 0
	e.index = -1
	e.gen++
	q.free = append(q.free, e)
}

// reset reclaims every pending event and empties the queue, keeping
// its heap array and pool for the next run. The sequence restarts at
// zero: it only orders events queued after this.
func (q *EventQueue) reset() {
	for _, e := range q.h {
		q.release(e)
	}
	clear(q.h)
	*q = EventQueue{h: q.h[:0], free: q.free}
}

// Push schedules fn at time at and returns a cancellation handle.
func (q *EventQueue) Push(at ticks.Ticks, fn func()) EventRef {
	e := q.get()
	e.At, e.Fn = at, fn
	e.seq = q.seq
	q.seq++
	q.up(q.append(e))
	return EventRef{e: e, gen: e.gen}
}

// PushCall schedules a typed (closure-free) callback at time at.
func (q *EventQueue) PushCall(at ticks.Ticks, h Handler, op, id int32, arg ticks.Ticks) EventRef {
	e := q.get()
	e.At, e.h, e.op, e.id, e.arg = at, h, op, id, arg
	e.seq = q.seq
	q.seq++
	q.up(q.append(e))
	return EventRef{e: e, gen: e.gen}
}

// Cancel removes the referenced event from the queue if it is still
// pending. Cancelling a zero ref, an already-fired, already-cancelled,
// or reused event is a no-op (the generation check makes stale refs
// inert).
func (q *EventQueue) Cancel(r EventRef) {
	e := r.e
	if e == nil || e.gen != r.gen || e.index < 0 {
		return
	}
	q.removeAt(int(e.index))
	q.release(e)
}

// Len reports the number of pending events.
func (q *EventQueue) Len() int { return len(q.h) }

// PeekTime returns the time of the earliest pending event.
// The second result is false if the queue is empty.
func (q *EventQueue) PeekTime() (ticks.Ticks, bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	return q.h[0].At, true
}

// min returns the earliest pending event without removing it, or nil.
func (q *EventQueue) min() *Event {
	if len(q.h) == 0 {
		return nil
	}
	return q.h[0]
}

// Pop removes and returns the earliest pending event, or nil if the
// queue is empty. The caller takes ownership: it is responsible for
// invoking e.Fn (or e.fire) and may afterwards return the event to
// the pool with Recycle. An event that is popped but never recycled
// is simply garbage-collected — correct, just not reused.
func (q *EventQueue) Pop() *Event {
	if len(q.h) == 0 {
		return nil
	}
	e := q.removeAt(0)
	return e
}

// Recycle returns a popped (already-fired) event to the pool so later
// Pushes reuse it. Recycling an event that is still queued would
// corrupt the heap; Recycle panics on that misuse.
func (q *EventQueue) Recycle(e *Event) {
	if e == nil {
		return
	}
	if e.index >= 0 {
		panic("sim: Recycle of an event that is still queued")
	}
	q.release(e)
}

// less orders events by (time, FIFO sequence).
func less(a, b *Event) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	return a.seq < b.seq
}

// append places e at the end of the heap array and returns its index.
func (q *EventQueue) append(e *Event) int {
	i := len(q.h)
	e.index = int32(i)
	q.h = append(q.h, e)
	return i
}

// up sifts the element at i toward the root.
func (q *EventQueue) up(i int) {
	e := q.h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !less(e, q.h[p]) {
			break
		}
		q.h[i] = q.h[p]
		q.h[i].index = int32(i)
		i = p
	}
	q.h[i] = e
	e.index = int32(i)
}

// down sifts the element at i toward the leaves.
func (q *EventQueue) down(i int) {
	n := len(q.h)
	e := q.h[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if less(q.h[j], q.h[m]) {
				m = j
			}
		}
		if !less(q.h[m], e) {
			break
		}
		q.h[i] = q.h[m]
		q.h[i].index = int32(i)
		i = m
	}
	q.h[i] = e
	e.index = int32(i)
}

// removeAt removes and returns the element at heap index i,
// re-establishing the heap property. The resulting layout depends
// only on the operation sequence, never on memory addresses.
func (q *EventQueue) removeAt(i int) *Event {
	e := q.h[i]
	n := len(q.h) - 1
	last := q.h[n]
	q.h[n] = nil
	q.h = q.h[:n]
	if i < n {
		q.h[i] = last
		last.index = int32(i)
		q.down(i)
		if last.index == int32(i) {
			q.up(i)
		}
	}
	e.index = -1
	return e
}

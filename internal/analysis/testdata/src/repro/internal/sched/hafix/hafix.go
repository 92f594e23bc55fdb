// Package hafix exercises hotalloc inside a marked file: closures
// handed to Kernel.At/After, fmt.Sprintf and run-time string
// concatenation are flagged, the typed AtCall/AfterCall payload is
// not, and a waived cold site (with a written reason) is suppressed.
// cold.go in the same package carries no marker and shows the same
// constructs pass unflagged there.
package hafix

//rd:hotpath

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/ticks"
)

type ticker struct {
	k          *sim.Kernel
	id         int32
	name       string
	reg        *telemetry.Registry
	dispatches *telemetry.Counter
	depth      *telemetry.Gauge
	lateness   *telemetry.Histogram
}

func (t *ticker) HandleEvent(op, id int32, arg ticks.Ticks) {}

// Closure timers allocate per arming: flagged.
func (t *ticker) armClosures() {
	t.k.At(100, func() { t.id++ })   // want "typed AtCall payload"
	t.k.After(50, func() { t.id++ }) // want "typed AfterCall payload"
}

// The typed payload is the sanctioned recurring-timer form.
func (t *ticker) armTyped() {
	t.k.AtCall(100, t, 1, t.id, 0)
	t.k.AfterCall(50, t, 2, t.id, 0)
}

// Sprintf allocates its result every call: flagged.
func (t *ticker) label() string {
	return fmt.Sprintf("ticker%d", t.id) // want "fmt.Sprintf allocates"
}

// Joining strings at run time allocates the result every call: flagged,
// once per chain however many operands it has.
func (t *ticker) observerName() string {
	return "ticker:" + t.name // want "string concatenation with a non-constant operand"
}

func (t *ticker) longName(suffix string) string {
	return "ticker:" + (t.name + "/") + suffix // want "string concatenation with a non-constant operand"
}

// Constants fold at compile time, numbers are not strings, and the
// message of a panic is built on a path where the run is already dead:
// all permitted.
const prefix = "ticker" + ":"

func (t *ticker) constantName() string { return prefix + "idle" }

func (t *ticker) next() int32 { return t.id + 1 }

func (t *ticker) refuse() {
	panic("hafix: ticker " + t.name + " refused")
}

// A cold site inside a hot file is waived with a written reason.
func (t *ticker) register(name string) {
	//rdlint:allow hotalloc cold path: once per ticker, at registration
	t.name = "ticker:" + name
}

func (t *ticker) wedge() {
	//rdlint:allow hotalloc panic path: the run is already dead, allocation cost is irrelevant
	panic(fmt.Sprintf("ticker %d wedged", t.id))
}

// Registry methods look instruments up by name — cold wiring-time API,
// flagged on a hot file.
func (t *ticker) countByName() {
	t.reg.Counter("sched.dispatch.granted").Inc()            // want "telemetry.Registry.Counter"
	if _, ok := t.reg.Lookup("sched.dispatch.granted"); ok { // want "telemetry.Registry.Lookup"
		t.id++
	}
}

// Pre-registered handles are the hot-path API: permitted.
func (t *ticker) countByHandle() {
	t.dispatches.Inc()
	t.dispatches.Add(2)
	t.depth.Set(int64(t.id))
	t.lateness.Observe(27)
}

//go:build race

package fleet

// raceEnabled reports a -race build, whose instrumentation changes what
// escapes to the heap: allocation ceilings are measured without it.
const raceEnabled = true

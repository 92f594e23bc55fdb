// Package hostinfo is a fixture dependency outside the deterministic
// set. Its functions read host state and forward values into record
// sinks; detflow summarizes both, functions and methods alike, and the
// dffix package (which imports this one) asserts that the taint
// crosses the package boundary.
package hostinfo

import (
	"time"

	"repro/internal/telemetry"
)

// Uptime returns host-derived nanoseconds. Summary: results tainted
// via time.Now.
func Uptime() int64 { return time.Now().UnixNano() }

// Record forwards at into the span log. Summary: parameter 1 reaches
// (telemetry.Spans).Instant.
func Record(sp *telemetry.Spans, at int64) {
	sp.Instant(at, "host", "mark", 0, 0, "")
}

// Host carries the same two summaries on methods: a method is the one
// *types.Func here and in its importers, exactly like a function.
type Host struct{}

// Boot returns host-derived nanoseconds.
func (Host) Boot() int64 { return time.Now().UnixNano() }

// Mark forwards at into the span log.
func (*Host) Mark(sp *telemetry.Spans, at int64) {
	sp.Instant(at, "host", "mark", 0, 0, "")
}

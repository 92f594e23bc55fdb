package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/atest"
	"repro/internal/analysis/loader"
	"repro/internal/fault"
)

// fixtures names, per analyzer, the fixture packages that drive it
// alone. They live under testdata/src with real-looking import paths
// (GOPATH layout), so the analyzers' package gates apply to them
// exactly as to the live tree: repro/internal/... paths are inside the
// deterministic set, repro/example/... and repro/cmd/... are outside
// it.
var fixtures = map[*analysis.Analyzer][]string{
	analysis.MapOrder:  {"repro/internal/sched/mofix", "repro/example/mofree"},
	analysis.WallClock: {"repro/internal/sim/wcfix", "repro/cmd/bfix"},
	// repro/internal/sim here is the fixture shadow of the real
	// package: rng.go is exempt, source.go is flagged.
	analysis.RawRand: {"repro/internal/sim", "repro/example/rrfree"},
	// hafix.go carries the //rd:hotpath marker (flagged, with one
	// waived cold site); cold.go in the same package does not, so its
	// identical constructs pass — the check is a per-file opt-in.
	analysis.HotAlloc: {"repro/internal/sched/hafix"},
	// rsfix: bare literals, dynamic IDs, band violations, and an
	// intra-package collision. rscross: a collision with a constant in
	// a package it imports — the cross-package case. rsfree: named
	// constants, constant reuse, and the injector-band shape, all
	// clean.
	analysis.RngStream: {"repro/internal/sweep/rsfix", "repro/internal/sweep/rscross", "repro/internal/sweep/rsfree"},
	// dffix: taint imported through hostinfo's function and method
	// summaries, a local second hop, a func value, and a direct
	// host-state read — all reported. dffree: GOMAXPROCS worker counts
	// and parameter-fed sinks, clean. hostinfo itself (outside the
	// deterministic set) is summarized but reports nothing.
	analysis.DetFlow:       {"repro/internal/sched/dffix", "repro/internal/sched/dffree", "repro/internal/hostinfo"},
	analysis.SpanPair:      {"repro/internal/telemetry/spfix", "repro/internal/telemetry/spfree"},
	analysis.SharedCapture: {"repro/internal/sweep/scfix", "repro/internal/sweep/scfree", "repro/internal/telemetry/scchunk"},
	analysis.TickUnits:     {"repro/internal/sched/tufix", "repro/internal/rm/tufix", "repro/example/tufree"},
}

func runFixtures(t *testing.T, a *analysis.Analyzer) int {
	t.Helper()
	return atest.Run(t, "testdata", a, fixtures[a]...)
}

func TestMapOrder(t *testing.T)      { runFixtures(t, analysis.MapOrder) }
func TestWallClock(t *testing.T)     { runFixtures(t, analysis.WallClock) }
func TestRawRand(t *testing.T)       { runFixtures(t, analysis.RawRand) }
func TestHotAlloc(t *testing.T)      { runFixtures(t, analysis.HotAlloc) }
func TestRngStream(t *testing.T)     { runFixtures(t, analysis.RngStream) }
func TestDetFlow(t *testing.T)       { runFixtures(t, analysis.DetFlow) }
func TestSpanPair(t *testing.T)      { runFixtures(t, analysis.SpanPair) }
func TestSharedCapture(t *testing.T) { runFixtures(t, analysis.SharedCapture) }
func TestTickUnits(t *testing.T)     { runFixtures(t, analysis.TickUnits) }

// TestEveryAnalyzerHasFixtures: an analyzer added to the suite without
// a fixture that expects a finding from it would be checked by nothing.
func TestEveryAnalyzerHasFixtures(t *testing.T) {
	for _, a := range analysis.Analyzers {
		if runFixtures(t, a) == 0 {
			t.Errorf("%s: no fixture has a `want` this analyzer satisfies", a.Name)
		}
	}
}

// TestFaultStreamBaseMirror pins the analyzer's mirrored band base to
// the live constant: if fault.StreamBase moves, rngstream must move
// with it.
func TestFaultStreamBaseMirror(t *testing.T) {
	if analysis.FaultStreamBase != fault.StreamBase {
		t.Fatalf("analysis.FaultStreamBase = %d, fault.StreamBase = %d; keep the mirror in sync",
			analysis.FaultStreamBase, fault.StreamBase)
	}
}

func TestWaiverAudit(t *testing.T) {
	// wvfix: a stale directive, one naming an unknown analyzer, and a
	// live directive with no reason. wvfree: a waiver that suppressed
	// a real diagnostic — the audit stays silent. Both run under the
	// full suite, since staleness is a property of the whole run.
	atest.RunSuite(t, "testdata",
		"repro/internal/sched/wvfix",
		"repro/internal/sched/wvfree",
	)
}

func TestLoaderEdgeCases(t *testing.T) {
	// edgetag: a //go:build ignore file whose violations must not
	// surface. edgegen: the same for a generated-code header. edgecl:
	// closures passed as kernel handlers — detflow and spanpair look
	// inside the literal. edgemv: method values bound to Kernel.At /
	// After allocate like closures and hotalloc flags them.
	atest.RunSuite(t, "testdata",
		"repro/internal/sched/edgetag",
		"repro/internal/sched/edgegen",
		"repro/internal/sched/edgecl",
		"repro/internal/sched/edgemv",
	)
}

// TestTreeIsClean is `make lint`'s rdlint step inside tier-1: the full
// suite plus the waiver audit over the live module, through the loader
// and driver cmd/rdlint uses.
func TestTreeIsClean(t *testing.T) {
	root, err := loader.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := loader.New(root)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := l.Patterns([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.RunUnits(l, paths, analysis.Analyzers, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s: %s: %s", l.Fset.Position(d.Pos), d.Analyzer, d.Message)
	}
}

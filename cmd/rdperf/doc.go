package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// layer is one row group of docs/PERFORMANCE.md's layer table: the
// BENCH_kernel.json rows that measure the layer, the plain test that
// pins its allocations (empty: only bench-smoke's gate guards them), and
// one line on what dominates it now.
type layer struct {
	name    string
	benches []string
	pin     string
	note    string
}

// layers is the table, in the order the document lists it. The
// numbers are never typed here: renderLayers reads them from the
// committed baseline.
var layers = []layer{
	{"event queue", []string{"BenchmarkEventQueue"}, "",
		"the one `Event` a push of a never-pooled entry allocates; heap sift on a 4-ary array"},
	{"kernel step", []string{"BenchmarkKernelStep"}, "0, `TestKernelStepSteadyStateIsAllocFree`",
		"pop + typed dispatch + re-arm of a recycled `Event`"},
	{"switch-cost sample", []string{"BenchmarkSwitchSample"}, "",
		"one RNG draw + a bucket index and a short step walk in the cost table"},
	{"scheduler period", []string{"BenchmarkPeriodRollover"}, "0, `TestPeriodRolloverSteadyStateIsAllocFree`",
		"`rollPeriods`/`beginPeriod`, the three queue-depth `Gauge.Set`s per loop pass (set-on-change measured slower), `removeFrom`'s `copy`"},
	{"Sporadic Server dispatch", []string{"BenchmarkSporadicDispatch"}, "0, `TestSporadicDispatchAllocs`",
		"the shared `charge`/`runClamped` slice step plus the Observer call"},
	{"comparator slice", []string{"BenchmarkComparatorSlice"}, "0, `TestComparatorSliceAllocFree` (every picker)",
		"FairShare's `minPass` walk (a third), `roll`'s walk when a boundary is due, the slice histogram"},
	{"Data Streamer", []string{"BenchmarkStreamerTransfer", "BenchmarkStreamerReallocate"}, "0, `TestStreamerSteadyStateAllocFree`",
		"a frame: a by-value queue push, one typed completion event, the `onDone` call; a reallocation: the allocator in engine scratch"},
	{"whole single-node run", []string{"BenchmarkSchedulerSteadyState", "BenchmarkTable2MPEGDecodeSecond", "BenchmarkSweepCell"},
		"flat in the horizon, `TestStreamerRunAllocsIndependentOfHorizon`",
		"task wiring and admission; a sweep worker rebuilds its Distributor, kernel and checker in place, queues and scratch kept"},
	{"RM admission, accept", []string{"BenchmarkAdmitAccept"}, "≤ 2, `TestAdmitAcceptAllocs`",
		"`recomputeGrants`' `correlate` in kept scratch; two grant-set backings; a removed task's record reused"},
	{"RM admission, deny", []string{"BenchmarkAdmitDeny"}, "≤ 1, `TestAdmitDenyAllocFreeButForItsError`; `Manager.Offer` 0",
		"three `Frac` comparisons and the denial error value"},
	{"whole fleet run", []string{"BenchmarkFleetRun"}, "≤ 1 440, `TestFleetRunAllocCeiling`",
		"one fleet-crash cell on a warm sweep worker: what the run keeps — flight dumps, fault arming, the rare decisions' `fmt` lines"},
	{"invariant checker period", []string{"BenchmarkInvariantPeriod"}, "0, `TestCheckerSteadyStateAllocFree`",
		"`closePeriod` and the open-period write; the O(N) `sched.Audit` once per round of `NTasks()` period starts"},
	{"placement scan", []string{"BenchmarkPlacementOrder"}, "0, `TestPlacementOrderAllocFree`, `TestDeniedScanAllocFree`",
		"insertion repair of the kept `(load, node)` permutation: ≈ one comparison per node; the offer on the stack"},
	{"cluster build", []string{"BenchmarkClusterBuild", "BenchmarkClusterRebuild/nodes=16", "BenchmarkClusterRebuild/nodes=120"},
		"0 per warm node, `TestNodeRebuildAllocs`; rings kept, `TestClusterRebuildAllocs`",
		"cold: per-node `core.New`, rings, registries; warm: only the benchmark's `NodeInit` building resident names and lists"},
	{"fleet epoch", []string{"BenchmarkFleetEpoch/nodes=16", "BenchmarkFleetEpoch/nodes=120", "BenchmarkFleetEpoch/nodes=120/skewed",
		"BenchmarkFleetEpoch/nodes=16/workers=2", "BenchmarkFleetEpoch/nodes=120/workers=2", "BenchmarkFleetEpoch/nodes=120/skewed/workers=2"},
		"", "`sched.RunUntil` per node, then the barrier; two workers share the nodes by stealing"},
	{"flight-recorder record", []string{"BenchmarkFlightRecord"}, "0, `TestFlightRecordAllocFree`",
		"one `Span` copied into its ring slot, one event into its"},
	{"registry snapshot / merge", []string{"BenchmarkRegistrySnapshot", "BenchmarkSnapshotMerge"}, "0 (merge), `TestSnapshotAndMergeAllocFree`",
		"three exact-size lists and one bucket block; a same-named merge is in place"},
	{"cluster stitch", []string{"BenchmarkStitchCluster/manifests", "BenchmarkStitchCluster/logs"}, "",
		"the rebased copy of every log's resident spans, read from manifests or, in place, from span logs"},
	{"manifest write", []string{"BenchmarkManifestWrite/procs=1", "BenchmarkManifestWrite/procs=2"},
		"flat in spans, `TestWriteJSONAllocsIndependentOfSpanCount`, `TestChunkedAllocsIndependentOfSpanCount`",
		"one literal per member, the integers, 64 KiB flushes; at procs=2 the chunk runner's four buffers"},
	{"manifest read", []string{"BenchmarkManifestRead/procs=1", "BenchmarkManifestRead/procs=2"}, "",
		"one literal comparison per member, the digits, interned short strings; at procs=2 the parts' own intern maps"},
	{"Perfetto export", []string{"BenchmarkPerfettoExport/procs=1", "BenchmarkPerfettoExport/procs=2"},
		"flat in spans, `TestWritePerfettoAllocsIndependentOfSpanCount`",
		"one event per span as derived; fractional timestamps through `strconv.AppendFloat`"},
	{"Perfetto validation", []string{"BenchmarkPerfettoValidate"}, "flat in events, `TestValidatePerfettoAllocsIndependentOfEventCount`",
		"a literal comparison per member, the digits of each `ts`/`dur`, a pairing-table update per b/e and s/f event"},
}

// The markers around the rendered table in the document.
const (
	docBegin = "<!-- rdperf doc: begin -->\n"
	docEnd   = "<!-- rdperf doc: end -->\n"
)

// cmdDoc renders the layer table from the BENCH file at bench into
// the document doc, between its markers.
func cmdDoc(bench, doc string, rest []string) error {
	if bench == "" || doc == "" || len(rest) != 0 {
		usage()
	}
	raw, err := os.ReadFile(bench)
	if err != nil {
		return err
	}
	var table bytes.Buffer
	if err := renderLayers(&table, raw); err != nil {
		return fmt.Errorf("%s: %v", bench, err)
	}
	text, err := os.ReadFile(doc)
	if err != nil {
		return err
	}
	before, after, err := splitDoc(string(text))
	if err != nil {
		return fmt.Errorf("%s: %v", doc, err)
	}
	return os.WriteFile(doc, []byte(before+docBegin+table.String()+docEnd+after), 0o644)
}

// splitDoc returns what precedes the begin marker and what follows the
// end marker.
func splitDoc(text string) (before, after string, err error) {
	b, e := strings.Index(text, docBegin), strings.Index(text, docEnd)
	if b < 0 || e < b {
		return "", "", fmt.Errorf("no %q … %q block", strings.TrimSpace(docBegin), strings.TrimSpace(docEnd))
	}
	return text[:b], text[e+len(docEnd):], nil
}

// renderLayers writes the markdown layer table, one row per benchmark,
// its allocs/op and B/op read from raw, a BENCH file; a layer's name,
// pin and note go on its first row.
func renderLayers(w io.Writer, raw []byte) error {
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return err
	}
	cur := bf.Sections[baseline]
	fmt.Fprintln(w, "| layer | benchmark | guard | allocs/op | B/op | what dominates it now |")
	fmt.Fprintln(w, "|---|---|---|--:|--:|---|")
	for _, l := range layers {
		for i, b := range l.benches {
			m, ok := cur[b]
			if !ok {
				return fmt.Errorf("no %q row for layer %q", b, l.name)
			}
			name, guard, note := "", "", ""
			if i == 0 {
				name, guard, note = l.name, "gated", l.note
				if l.pin != "" {
					guard = "pinned " + l.pin
				}
			}
			fmt.Fprintf(w, "| %s | `%s` | %s | %s | %s | %s |\n", name, b, guard,
				strconv.FormatFloat(m["allocs/op"], 'f', -1, 64), strconv.FormatFloat(m["B/op"], 'f', -1, 64), note)
		}
	}
	return nil
}

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
	{"event queue", []string{"BenchmarkEventQueue"}, "⌈n/8⌉ per n cold pushes, `TestColdQueueAllocatesByBlock`",
		"a cold push's share of an 8-event block; heap sift on a 4-ary array"},
	{"kernel step", []string{"BenchmarkKernelStep"}, "0, `TestKernelStepSteadyStateIsAllocFree`",
		"pop + typed dispatch + re-arm of a recycled `Event`"},
	{"switch-cost sample", []string{"BenchmarkSwitchSample"}, "",
		"one RNG draw + a bucket index and a short step walk in the cost table"},
	{"scheduler period", []string{"BenchmarkPeriodRollover"}, "0, `TestPeriodRolloverSteadyStateIsAllocFree`",
		"`rollPeriods`/`beginPeriod`, the three queue-depth `Gauge.Set`s per loop pass (set-on-change measured slower), `decide`'s two task-table scans (the pick and the slice bound), made again only after a `redecide`"},
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
	{"whole fleet run", []string{"BenchmarkFleetRun"}, "≤ 627, `TestFleetRunAllocCeiling`",
		"one fleet-crash cell on a warm sweep worker: what the run keeps — coordinator notes, spill/migrate event lines, flight dumps, fault arming, one detail string per storm burst"},
	{"invariant checker period", []string{"BenchmarkInvariantPeriod"}, "0, `TestCheckerSteadyStateAllocFree`",
		"`closePeriod` and the open-period write; the O(N) `sched.Audit` once per round of `NTasks()` period starts"},
	{"placement scan", []string{"BenchmarkPlacementOrder"}, "0, `TestPlacementOrderAllocFree`, `TestDeniedScanAllocFree`",
		"insertion repair of the kept `(load, node)` permutation: ≈ one comparison per node; the offer on the stack"},
	{"cluster build", []string{"BenchmarkClusterBuild", "BenchmarkClusterRebuild/nodes=16", "BenchmarkClusterRebuild/nodes=120"},
		"0 per warm node, `TestNodeRebuildAllocs`; ≤ 70 per cold node, `TestClusterBuildAllocsPerNode`; rings kept, `TestClusterRebuildAllocs`",
		"cold: per-node `core.New`, rings, registries (instruments from chunks); warm: only the benchmark's `NodeInit` building resident names and lists"},
	{"fleet epoch", []string{"BenchmarkFleetEpoch/nodes=16", "BenchmarkFleetEpoch/nodes=120", "BenchmarkFleetEpoch/nodes=120/skewed",
		"BenchmarkFleetEpoch/nodes=16/workers=2", "BenchmarkFleetEpoch/nodes=120/workers=2", "BenchmarkFleetEpoch/nodes=120/skewed/workers=2"},
		"", "`sched.RunUntil` per node, then the barrier; two workers share the nodes by stealing. At `workers=2` a few B/op can show under CPU contention (0 idle): a helper that spins out parks on `<-r.wake`, and after a GC has emptied the sudog caches the runtime allocates a 96-byte `sudog` for it"},
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

// workloads is the per-workload table, in the order the document lists
// it: each benchmark workload and one line on what dominates a run of
// it. renderWorkloads reads the allocation rates from BENCH_counts.json.
var workloads = []struct{ name, note string }{
	{"paper-short", "per-run construction and admission are still a large share; then `rollPeriods` + `beginPeriod`"},
	{"paper-long", "the event loop: `sched.RunUntil`, `charge`, switch-cost samples, two histogram observes per dispatch"},
	{"fault-baseline", "the comparators' `baseline.loop`, ≈ 28 % of CPU: with the `nextRoll` watermark it is the pickers' own per-slice scans (`Lottery.pick`, `minPass`, `CFS.slice`); then `sched` ≈ 16 %, `sim` ≈ 10 %, the registry snapshot and instruments ≈ 10 %, allocation + GC ≈ 13 %, the streamer and the invariant checker ≈ 2–3 % each"},
	{"fleet-deny", "flat shares of a `-trace 1` pass: `sched` ≈ a third, `ticks.Frac` ≈ a tenth, then RM denial, GC and the checker (≈ 5 %, its audit once per round); node advance runs on both cores (the pool, below)"},
	{"fleet-wide", "flat shares of a `-trace 1` pass: `sched` ≈ a quarter, GC ≈ 12 %, `ticks.Frac` ≈ a tenth, the checker ≈ 4 %; then the barrier, which the pool leaves serial. Allocations: each round's cold arena (node shells, rings, chunked instruments), then the spill/migrate event lines and flight dumps"},
	{"cluster-manifest", "the run with the span log on, ≈ 28 ms of a ≈ 75 ms run; read + validate and the Perfetto export, ≈ 19 and ≈ 16 ms with their span lists on both cores (≈ 26 and ≈ 29 on one; the export's largest cost is the shortest form of a fractional timestamp); then the write and the stitch copy; off the clock but inside `setup_s`, the Perfetto validation, one pass since it stopped decoding through `encoding/json`"},
}

// The markers around each rendered table in the document.
const (
	docBegin       = "<!-- rdperf doc: begin -->\n"
	docEnd         = "<!-- rdperf doc: end -->\n"
	workloadsBegin = "<!-- rdperf doc workloads: begin -->\n"
	workloadsEnd   = "<!-- rdperf doc workloads: end -->\n"
)

// cmdDoc renders the layer table from the BENCH file at bench and the
// workload table from the BENCH_counts file at counts into the
// document doc, each between its markers.
func cmdDoc(bench, counts, doc string, rest []string) error {
	if bench == "" || counts == "" || doc == "" || len(rest) != 0 {
		usage()
	}
	text, err := os.ReadFile(doc)
	if err != nil {
		return err
	}
	out := string(text)
	for _, t := range []struct {
		src, begin, end string
		render          func(io.Writer, []byte) error
	}{{bench, docBegin, docEnd, renderLayers}, {counts, workloadsBegin, workloadsEnd, renderWorkloads}} {
		raw, err := os.ReadFile(t.src)
		if err != nil {
			return err
		}
		var table bytes.Buffer
		if err := t.render(&table, raw); err != nil {
			return fmt.Errorf("%s: %v", t.src, err)
		}
		before, after, err := splitDoc(out, t.begin, t.end)
		if err != nil {
			return fmt.Errorf("%s: %v", doc, err)
		}
		out = before + t.begin + table.String() + t.end + after
	}
	return os.WriteFile(doc, []byte(out), 0o644)
}

// splitDoc returns what precedes the begin marker and what follows the
// end marker.
func splitDoc(text, begin, end string) (before, after string, err error) {
	b, e := strings.Index(text, begin), strings.Index(text, end)
	if b < 0 || e < b {
		return "", "", fmt.Errorf("no %q … %q block", strings.TrimSpace(begin), strings.TrimSpace(end))
	}
	return text[:b], text[e+len(end):], nil
}

// renderWorkloads writes the markdown workload table, one row per
// benchmark workload, its allocation rates read from raw, a
// BENCH_counts file, which must record those of every workload listed
// and of no other.
func renderWorkloads(w io.Writer, raw []byte) error {
	var cf countsFile
	if err := json.Unmarshal(raw, &cf); err != nil {
		return err
	}
	fmt.Fprintln(w, "| workload | allocs/run | KiB/run | what dominates a run |")
	fmt.Fprintln(w, "|---|--:|--:|---|")
	for _, wl := range workloads {
		a, ok := cf.Allocs[wl.name]
		if !ok {
			return fmt.Errorf("no allocation rates for workload %q", wl.name)
		}
		fmt.Fprintf(w, "| `%s` | %s | %s | %s |\n", wl.name,
			strconv.FormatFloat(a["allocs_per_run"], 'f', 1, 64), strconv.FormatFloat(a["alloc_kb_per_run"], 'f', 1, 64), wl.note)
	}
	if len(cf.Allocs) != len(workloads) {
		return fmt.Errorf("allocation rates for %d workloads, the table lists %d", len(cf.Allocs), len(workloads))
	}
	return nil
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

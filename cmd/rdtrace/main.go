// Command rdtrace works with the simulator's exported artifacts.
//
// Analysis mode (the default) reads a trace exported by rdsim -json
// and, without re-running the simulation, prints one row per task:
//
//   - granted: time run against the grant, granted plus §5.6 grace
//     slices, as sched.TaskStats counts it;
//   - overtime: unallocated time taken beyond the grant. Sporadic-task
//     time is not in it: it runs inside the Sporadic Server's (or the
//     assigning task's) own slice, which is counted once;
//   - preempt: a period's granted or grace slices, after its first,
//     that resume after another task or idle ran. A split by an
//     interrupt, timer or callback, or the task's own grace slice, is
//     not a preemption;
//   - lat-p50, lat-p99, lat-max: gaps between consecutive periods' last
//     granted-work ends, percentiles by nearest rank (§4.2 bounds the
//     worst by 2·period − 2·CPU);
//
// then the miss and switch totals. A kind name it does not know is an
// error, not a slice left out of the totals.
//
//	rdsim -scenario settop -json trace.json
//	rdtrace trace.json
//
// Export mode converts an rdtel/v2 run manifest (rdsim -manifest) into
// Chrome trace-event JSON that loads in https://ui.perfetto.dev or
// chrome://tracing — tasks as named tracks, period/grant windows as
// async slices, dispatch slices as complete events, distributor
// decisions as instants. A stitched cluster manifest renders
// multi-track, one process per node, with flow arrows on every
// cross-node causal link:
//
//	rdsim -scenario settop -manifest run.json
//	rdtrace export -o trace.pftrace.json run.json
//
// Stitch mode joins the coordinator and per-node manifests a fleet run
// wrote (rdsweep -cluster-manifest ... -node-manifests dir/) into one
// rdtel/v2 cluster manifest — byte-identical to the one the live
// cluster exports. Inputs are classified by their node tag, so
// argument order does not matter:
//
//	rdtrace stitch -o cluster.json dir/*.manifest.json
//
// Query mode filters a manifest's span log by task, node and category,
// and can walk causal links backward to print the full cross-node
// chain behind a span:
//
//	rdtrace query -task fl00042 -chain cluster.json
//	rdtrace query -node 3 -cat fleet cluster.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

func main() {
	if len(os.Args) >= 2 {
		switch os.Args[1] {
		case "export":
			export(os.Args[2:])
			return
		case "stitch":
			stitch(os.Args[2:])
			return
		case "query":
			queryCmd(os.Args[2:])
			return
		}
	}
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: rdtrace <trace.json | ->")
		fmt.Fprintln(os.Stderr, "       rdtrace export [-validate] [-o out.json] <manifest.json | ->")
		fmt.Fprintln(os.Stderr, "       rdtrace stitch [-o out.json] <coord+node manifests...>")
		fmt.Fprintln(os.Stderr, "       rdtrace query [-task T] [-node N|coord] [-cat C] [-chain] <manifest.json | ->")
		os.Exit(2)
	}
	in := os.Stdin
	if os.Args[1] != "-" {
		f, err := os.Open(os.Args[1])
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	if err := analyze(in, os.Stdout); err != nil {
		fatal(err)
	}
}

// analyze prints the per-task analysis of the trace read from in.
func analyze(in io.Reader, out io.Writer) error {
	var e trace.Export
	if err := json.NewDecoder(in).Decode(&e); err != nil {
		return fmt.Errorf("invalid trace: %v", err)
	}
	_, err := fmt.Fprintf(out, "%s\nswitches: %d voluntary, %d involuntary, %d ticks total\n",
		trace.Analyze(e), e.Summary.VolSwitches, e.Summary.InvolSwitches, e.Summary.SwitchTicks)
	return err
}

// export converts a run manifest to Chrome trace-event JSON.
func export(args []string) {
	fs := flag.NewFlagSet("rdtrace export", flag.ExitOnError)
	out := fs.String("o", "-", "output file ('-' for stdout)")
	validate := fs.Bool("validate", false, "structurally validate the export before writing it")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: rdtrace export [-validate] [-o out.json] <manifest.json | ->")
		os.Exit(2)
	}
	man := readManifestFile(fs.Arg(0))
	write := func(w io.Writer) error { return telemetry.WritePerfetto(w, man) }
	if *validate {
		// Validation needs the whole export; only then is it held in
		// memory, and nothing is created if it fails.
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			fatal(err)
		}
		if err := telemetry.ValidatePerfetto(bytes.NewReader(buf.Bytes())); err != nil {
			fatal(err)
		}
		write = func(w io.Writer) error {
			_, err := w.Write(buf.Bytes())
			return err
		}
	}
	if err := telemetry.WriteFile(*out, write); err != nil {
		fatal(err)
	}
}

// stitch joins per-node manifests into one cluster manifest. Files are
// classified by their node tag — the coordinator carries tag -1, node
// i carries tag i+1 — so the argument order is irrelevant.
func stitch(args []string) {
	fs := flag.NewFlagSet("rdtrace stitch", flag.ExitOnError)
	out := fs.String("o", "-", "output file ('-' for stdout)")
	_ = fs.Parse(args)
	if fs.NArg() < 2 {
		fmt.Fprintln(os.Stderr, "usage: rdtrace stitch [-o out.json] <coord+node manifests...>")
		os.Exit(2)
	}
	var coord *telemetry.Manifest
	byIdx := map[int]*telemetry.Manifest{}
	maxIdx := -1
	for _, path := range fs.Args() {
		m := readManifestFile(path)
		if m.Node == telemetry.CoordTag {
			if coord != nil {
				fatal(fmt.Errorf("%s: second coordinator manifest", path))
			}
			coord = m
			continue
		}
		idx, ok := telemetry.TagIndex(m.Node)
		if !ok {
			fatal(fmt.Errorf("%s: not a coordinator or node manifest (node tag %d)", path, m.Node))
		}
		if byIdx[idx] != nil {
			fatal(fmt.Errorf("%s: second manifest for node %d", path, idx))
		}
		byIdx[idx] = m
		if idx > maxIdx {
			maxIdx = idx
		}
	}
	if coord == nil {
		fatal(fmt.Errorf("no coordinator manifest among the inputs"))
	}
	nodes := make([]*telemetry.Manifest, maxIdx+1)
	for i := range nodes {
		if byIdx[i] == nil {
			fatal(fmt.Errorf("missing manifest for node %d", i))
		}
		nodes[i] = byIdx[i]
	}
	cluster, err := telemetry.StitchCluster(coord, nodes)
	if err != nil {
		fatal(err)
	}
	if err := telemetry.WriteFile(*out, cluster.WriteJSON); err != nil {
		fatal(err)
	}
}

// queryFlags are query's filters: a task name or numeric ID, a node
// index or "coord", a span category; and whether to walk the chain.
type queryFlags struct {
	task, node, cat string
	chain           bool
}

// queryCmd is the query verb: flags, the manifest, then query.
func queryCmd(args []string) {
	fs := flag.NewFlagSet("rdtrace query", flag.ExitOnError)
	var q queryFlags
	fs.StringVar(&q.task, "task", "", "filter: task name or numeric task ID")
	fs.StringVar(&q.node, "node", "", "filter: node index, or 'coord'")
	fs.StringVar(&q.cat, "cat", "", "filter: span category")
	fs.BoolVar(&q.chain, "chain", false, "walk each match's causal links back and print the chain")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: rdtrace query [-task T] [-node N|coord] [-cat C] [-chain] <manifest.json | ->")
		os.Exit(2)
	}
	if err := query(readManifestFile(fs.Arg(0)), q, os.Stdout); err != nil {
		fatal(err)
	}
}

// query filters a manifest's span log and optionally walks causal
// links backward, printing each matching span's cross-node chain to w.
// A task or node the manifest does not hold is an error.
func query(man *telemetry.Manifest, q queryFlags, w io.Writer) error {
	// Task IDs are node-local in a cluster manifest, so a name filter
	// resolves to (node tag, id) pairs; a bare numeric filter matches
	// that id on any node.
	var idFilter map[int64]bool
	var keyFilter map[[2]int64]bool
	if q.task != "" {
		idFilter = map[int64]bool{}
		keyFilter = map[[2]int64]bool{}
		if id, err := strconv.ParseInt(q.task, 10, 64); err == nil {
			idFilter[id] = true
		}
		for _, t := range man.Tasks {
			if t.Name == q.task {
				keyFilter[[2]int64{int64(t.Node), t.ID}] = true
			}
		}
		if len(idFilter)+len(keyFilter) == 0 {
			return fmt.Errorf("no task %q in manifest", q.task)
		}
	}
	wantNode, nodeSet := int32(0), false
	switch {
	case q.node == "coord":
		wantNode, nodeSet = telemetry.CoordTag, true
	case q.node != "":
		i, err := strconv.Atoi(q.node)
		if err != nil || i < 0 {
			return fmt.Errorf("-node wants a node index or 'coord', got %q", q.node)
		}
		if i >= man.NodeCount {
			return fmt.Errorf("-node %d is outside the manifest's %d fleet nodes", i, man.NodeCount)
		}
		wantNode, nodeSet = telemetry.NodeTag(i), true
	}

	byID := make(map[telemetry.SpanID]*telemetry.Span, len(man.Spans))
	for i := range man.Spans {
		byID[man.Spans[i].ID] = &man.Spans[i]
	}
	matched := 0
	for i := range man.Spans {
		sp := &man.Spans[i]
		if idFilter != nil && !idFilter[sp.Task] && !keyFilter[[2]int64{int64(sp.Node), sp.Task}] {
			continue
		}
		if nodeSet && sp.Node != wantNode {
			continue
		}
		if q.cat != "" && sp.Cat != q.cat {
			continue
		}
		matched++
		printSpan(w, sp, "")
		if q.chain {
			for link := sp.Link; link != 0; {
				target, ok := byID[link]
				if !ok {
					fmt.Fprintf(w, "    <- span %d (evicted from the flight ring)\n", link)
					break
				}
				printSpan(w, target, "    <- ")
				link = target.Link
			}
		}
	}
	_, err := fmt.Fprintf(w, "%d of %d spans matched\n", matched, len(man.Spans))
	return err
}

func printSpan(w io.Writer, sp *telemetry.Span, prefix string) {
	task := ""
	if sp.Task != telemetry.NoTask {
		task = fmt.Sprintf(" task=%d", sp.Task)
	}
	detail := ""
	if sp.Detail != "" {
		detail = " " + sp.Detail
	}
	fmt.Fprintf(w, "%s%8d %-7s %-10s %-14s [%d..%d]%s%s\n",
		prefix, int64(sp.ID), telemetry.TagString(sp.Node), sp.Cat, sp.Name,
		int64(sp.Begin), int64(sp.End), task, detail)
}

func readManifestFile(path string) *telemetry.Manifest {
	in := os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	m, err := telemetry.ReadManifest(in)
	if err != nil {
		fatal(fmt.Errorf("%s: %v", path, err))
	}
	return m
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rdtrace:", err)
	os.Exit(1)
}

package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/ticks"
)

// The reflective encoders WriteJSON and WritePerfetto replaced, kept
// verbatim as the oracle the streaming emitter must match byte for
// byte (the way sched keeps auditNaive next to Audit).

func writeJSONRef(w io.Writer, m *Manifest) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

func writePerfettoRef(w io.Writer, m *Manifest) error {
	events := make([]traceEvent, 0, 2*len(m.Spans)+len(m.Tasks)+len(m.Metrics.Counters)+2)

	if m.NodeCount > 0 {
		events = append(events, traceEvent{
			Name: "process_name", Ph: "M", Pid: pidOf(CoordTag), Tid: 0,
			Args: map[string]any{"name": "cluster coordinator"},
		})
		events = append(events, traceEvent{
			Name: "thread_name", Ph: "M", Pid: pidOf(CoordTag), Tid: controlTid,
			Args: map[string]any{"name": "coordinator"},
		})
		for i := 0; i < m.NodeCount; i++ {
			events = append(events, traceEvent{
				Name: "process_name", Ph: "M", Pid: pidOf(NodeTag(i)), Tid: 0,
				Args: map[string]any{"name": fmt.Sprintf("node %d", i)},
			})
			events = append(events, traceEvent{
				Name: "thread_name", Ph: "M", Pid: pidOf(NodeTag(i)), Tid: controlTid,
				Args: map[string]any{"name": "distributor"},
			})
		}
	} else {
		events = append(events, traceEvent{
			Name: "process_name", Ph: "M", Pid: perfettoPid, Tid: 0,
			Args: map[string]any{"name": "resource distributor"},
		})
		events = append(events, traceEvent{
			Name: "thread_name", Ph: "M", Pid: perfettoPid, Tid: controlTid,
			Args: map[string]any{"name": "distributor"},
		})
	}
	tasks := append([]TaskInfo(nil), m.Tasks...)
	sort.Slice(tasks, func(i, j int) bool {
		pi, pj := pidOf(tasks[i].Node), pidOf(tasks[j].Node)
		if pi != pj {
			return pi < pj
		}
		return tasks[i].ID < tasks[j].ID
	})
	for _, t := range tasks {
		events = append(events, traceEvent{
			Name: "thread_name", Ph: "M", Pid: pidOf(t.Node), Tid: tidOf(t.ID),
			Args: map[string]any{"name": fmt.Sprintf("%s (task %d)", t.Name, t.ID)},
		})
	}

	for _, sp := range m.Spans {
		pid := pidOf(sp.Node)
		tid := tidOf(sp.Task)
		args := map[string]any{}
		if sp.Detail != "" {
			args["detail"] = sp.Detail
		}
		if sp.Parent != 0 {
			args["parent"] = int64(sp.Parent)
		}
		if sp.Link != 0 {
			args["link"] = int64(sp.Link)
		}
		if len(args) == 0 {
			args = nil
		}
		switch {
		case sp.Begin == sp.End:
			events = append(events, traceEvent{
				Name: sp.Name, Cat: sp.Cat, Ph: "i", Ts: usec(sp.Begin),
				Pid: pid, Tid: tid, S: instantScope, Args: args,
			})
		case sp.Cat == "period":
			events = append(events, traceEvent{
				Name: sp.Name, Cat: sp.Cat, Ph: "b", Ts: usec(sp.Begin),
				Pid: pid, Tid: tid, ID: int64(sp.ID), Args: args,
			})
			events = append(events, traceEvent{
				Name: sp.Name, Cat: sp.Cat, Ph: "e", Ts: usec(sp.End),
				Pid: pid, Tid: tid, ID: int64(sp.ID),
			})
		default:
			events = append(events, traceEvent{
				Name: sp.Name, Cat: sp.Cat, Ph: "X", Ts: usec(sp.Begin),
				Dur: usec(sp.End - sp.Begin), Pid: pid, Tid: tid, Args: args,
			})
		}
	}

	if len(m.Spans) > 0 {
		byID := make(map[SpanID]*Span, len(m.Spans))
		for i := range m.Spans {
			byID[m.Spans[i].ID] = &m.Spans[i]
		}
		for i := range m.Spans {
			sp := &m.Spans[i]
			if sp.Link == 0 || sp.LinkNode != 0 {
				continue
			}
			target, ok := byID[sp.Link]
			if !ok {
				continue
			}
			fTs := usec(sp.Begin)
			sTs := usec(target.Begin)
			if sTs > fTs {
				sTs = fTs
			}
			events = append(events, traceEvent{
				Name: flowName, Cat: flowCat, Ph: "s", Ts: sTs,
				Pid: pidOf(target.Node), Tid: tidOf(target.Task), ID: int64(sp.ID),
			})
			events = append(events, traceEvent{
				Name: flowName, Cat: flowCat, Ph: "f", Bp: "e", Ts: fTs,
				Pid: pidOf(sp.Node), Tid: tidOf(sp.Task), ID: int64(sp.ID),
			})
		}
	}

	horizon := usec(m.HorizonTicks)
	for _, c := range m.Metrics.Counters {
		events = append(events, traceEvent{
			Name: c.Name, Ph: "C", Ts: horizon, Pid: perfettoPid, Tid: 0,
			Args: map[string]any{"value": c.Value},
		})
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(perfettoFile{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// checkWriterMatchesRef asserts an emitter-backed writer produces its
// reference encoder's bytes.
func checkWriterMatchesRef(t *testing.T, name string, write, ref func(io.Writer) error) {
	t.Helper()
	var got, want bytes.Buffer
	if err := write(&got); err != nil {
		t.Fatal(err)
	}
	if err := ref(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("%s differs from encoding/json at byte %d:\n got: %s\nwant: %s", name,
			firstDiff(got.Bytes(), want.Bytes()), around(got.Bytes(), want.Bytes()), around(want.Bytes(), got.Bytes()))
	}
}

func checkWriteJSONMatchesRef(t *testing.T, m *Manifest) {
	t.Helper()
	checkWriterMatchesRef(t, "WriteJSON", m.WriteJSON, func(w io.Writer) error { return writeJSONRef(w, m) })
}

func checkWritePerfettoMatchesRef(t *testing.T, m *Manifest) {
	t.Helper()
	checkWriterMatchesRef(t, "WritePerfetto",
		func(w io.Writer) error { return WritePerfetto(w, m) },
		func(w io.Writer) error { return writePerfettoRef(w, m) })
}

func checkWritersMatchRef(t *testing.T, m *Manifest) {
	t.Helper()
	checkWriteJSONMatchesRef(t, m)
	checkWritePerfettoMatchesRef(t, m)
}

// checkChunkedMatchesRef holds a writer's chunk runner to its reference
// encoder: in chunks of 1, 2 and 3 spans on 2, 3 and 4 workers, write
// must split m's span list and write ref's bytes. m needs at least
// 3×minChunks spans.
func checkChunkedMatchesRef(t *testing.T, name string, write func(w io.Writer, chunk, workers int) (int, error), ref func(io.Writer) error) {
	t.Helper()
	var want bytes.Buffer
	if err := ref(&want); err != nil {
		t.Fatal(err)
	}
	for chunk := 1; chunk <= 3; chunk++ {
		for workers := 2; workers <= 4; workers++ {
			var got bytes.Buffer
			chunks, err := write(&got, chunk, workers)
			if err != nil {
				t.Fatal(err)
			}
			if chunks == 0 {
				t.Fatalf("%s in chunks of %d on %d workers: the runner did not split the span list", name, chunk, workers)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("%s in chunks of %d on %d workers differs from encoding/json at byte %d:\n got: %s\nwant: %s", name, chunk, workers,
					firstDiff(got.Bytes(), want.Bytes()), around(got.Bytes(), want.Bytes()), around(want.Bytes(), got.Bytes()))
			}
		}
	}
}

func checkChunkedWriteJSONMatchesRef(t *testing.T, m *Manifest) {
	t.Helper()
	checkChunkedMatchesRef(t, "WriteJSON", m.writeJSON, func(w io.Writer) error { return writeJSONRef(w, m) })
}

func checkChunkedWritePerfettoMatchesRef(t *testing.T, m *Manifest) {
	t.Helper()
	checkChunkedMatchesRef(t, "WritePerfetto",
		func(w io.Writer, chunk, workers int) (int, error) { return writePerfetto(w, m, chunk, workers) },
		func(w io.Writer) error { return writePerfettoRef(w, m) })
}

// writeJSON and writePerfetto are WriteJSON and WritePerfetto with
// chunked's plan as parameters, also returning how many chunks the span
// list was cut into (0: the plain loop wrote it).
func (m *Manifest) writeJSON(w io.Writer, chunk, workers int) (int, error) {
	e := newEmitter(w, manifestUnit, chunk, workers)
	e.manifest(m)
	return e.chunks, e.finish()
}

func writePerfetto(w io.Writer, m *Manifest, chunk, workers int) (int, error) {
	e := newEmitter(w, perfettoUnit, chunk, workers)
	err := e.perfetto(m)
	return e.chunks, err
}

// repeatSpans is m with its span list repeated k times, long enough to
// cut into chunks of a few spans. Neither writer minds repeated IDs.
func repeatSpans(m *Manifest, k int) *Manifest {
	c := *m
	c.Spans = nil
	for i := 0; i < k; i++ {
		c.Spans = append(c.Spans, m.Spans...)
	}
	return &c
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// around quotes a's bytes near its first difference from b.
func around(a, b []byte) string {
	i := firstDiff(a, b)
	return fmt.Sprintf("%q", a[max(0, i-60):min(len(a), i+60)])
}

// hostileStrings are the escaping cases encoding/json treats
// specially; the differential tests and fuzz seeds share them.
var hostileStrings = []string{
	"", "plain", `<script>&amp;</script>`, `say "hi" \ back`,
	"ctl\x00\x01\b\f\n\r\t\x1f\x7f", "sep\u2028and\u2029end", "bad\xffutf\xc3", "\xe2\x80", "\xed\xa0\x80",
	"snow\u2603 \U0001F600 \ufffd", strings.Repeat("long<>", 2000),
}

// edgeManifest is a manifest built to hit every omitempty branch both
// ways, each Perfetto event shape, nil-versus-empty metric slices and
// the integer limits, with s in every string position.
func edgeManifest(s string) *Manifest {
	spans := []Span{
		{ID: 1, Cat: "period", Name: s, Task: 1, Begin: 0, End: 27},
		{ID: 2, Parent: 1, Cat: "dispatch", Name: s, Task: 1, Begin: 1, End: 26, Detail: s},
		{ID: 3, Cat: s, Name: "instant", Task: NoTask, Begin: 5, End: 5, Detail: s, Node: CoordTag},
		{ID: 4, Cat: "fleet", Name: "linked", Task: math.MaxInt64, Begin: 9, End: 9, Node: 2, Link: 2},
		{ID: 5, Cat: "fleet", Name: "early-target", Task: math.MinInt64, Begin: 1, End: 3, Node: 1, Link: 6},
		{ID: 6, Cat: "fleet", Name: "cross-log", Begin: 8, End: 8, Link: 3, LinkNode: 2},
		{ID: 7, Cat: "fleet", Name: "dangling", Begin: 8, End: 8, Link: 99},
		// Tick values whose microsecond quotient (ticks / 27) takes 16
		// or 17 significant digits to print.
		{ID: 9, Cat: "dispatch", Name: "digits", Begin: 1, End: 9007199254740993},
		{ID: 10, Cat: "dispatch", Name: "thirds", Begin: 10, End: 123456789012345678},
		{ID: math.MaxInt32, Parent: math.MinInt32, Cat: "period", Name: "limits", Task: 0,
			Begin: math.MinInt64, End: math.MaxInt64, Node: math.MinInt32, Link: math.MaxInt32, LinkNode: math.MaxInt32},
	}
	m := NewManifest(math.MaxUint64)
	m.Build = s
	m.ConfigDigest = s
	m.HorizonTicks = 270_000
	m.Node = 3
	m.NodeCount = 2
	m.Tasks = []TaskInfo{{ID: 2, Name: s, Node: 2}, {ID: 1, Name: "worker"}, {ID: -5, Name: s, Node: CoordTag}}
	m.Metrics = Snapshot{
		Counters:   []CounterSnap{{Name: s, Value: math.MinInt64}, {Name: "z", Value: 0}},
		Gauges:     []GaugeSnap{},
		Histograms: []HistSnap{{Name: s, Width: 5, Counts: []int64{1, 2}, Sum: 3, Count: 2}, {Name: "nil-counts"}, {Name: "no-counts", Counts: []int64{}}},
	}
	m.Spans = spans
	m.Events = []LogEvent{{At: 1, Kind: s, Detail: s}, {At: 2, Kind: "bare"}}
	m.FlightDumps = []FlightDump{
		{Node: 1, Reason: s, At: 7, SpansTotal: 3, SpansDropped: 1, EventsTotal: 2, EventsDropped: 1,
			Spans: spans[:2], Events: []LogEvent{{At: 1, Kind: "k"}}},
		{Reason: "empty"},
	}
	m.Totals = Totals{DeadlineMisses: 1, Violations: 2, Degradations: 3, FaultsInjected: 4, FlightDumps: 2}
	return m
}

func TestWritersMatchRef(t *testing.T) {
	t.Run("zero", func(t *testing.T) { checkWritersMatchRef(t, &Manifest{}) })
	t.Run("sample", func(t *testing.T) { checkWritersMatchRef(t, sampleManifest()) })
	t.Run("cluster", func(t *testing.T) { checkWritersMatchRef(t, syntheticCluster(2000, 5)) })
	for i, s := range hostileStrings {
		t.Run(fmt.Sprintf("edge%d", i), func(t *testing.T) { checkWritersMatchRef(t, edgeManifest(s)) })
	}
	t.Run("chunked", func(t *testing.T) {
		for _, m := range []*Manifest{syntheticCluster(300, 3), repeatSpans(edgeManifest(hostileStrings[2]), 3), repeatSpans(edgeManifest(hostileStrings[6]), 3)} {
			checkChunkedWriteJSONMatchesRef(t, m)
			checkChunkedWritePerfettoMatchesRef(t, m)
		}
	})
	t.Run("unsortedIDs", func(t *testing.T) {
		// Not a manifest ReadManifest would return, but WritePerfetto
		// takes any: duplicate and descending IDs, last one wins.
		m := edgeManifest("x")
		m.Spans = append(m.Spans, Span{ID: 2, Cat: "dispatch", Name: "dup", Begin: 4, End: 6, Node: 1},
			Span{ID: 1, Cat: "fleet", Name: "to-dup", Begin: 7, End: 7, Link: 2})
		checkWritersMatchRef(t, m)
	})
}

// TestGoldensMatchRef re-reads the committed goldens and checks both
// writers against the reference on them (and that the manifest golden
// is a WriteJSON fixed point).
func TestGoldensMatchRef(t *testing.T) {
	golden, err := os.ReadFile("testdata/settop-smoke.manifest.golden")
	if err != nil {
		t.Fatal(err)
	}
	m, err := ReadManifest(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	checkWritersMatchRef(t, m)
	var out bytes.Buffer
	if err := m.WriteJSON(&out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), golden) {
		t.Error("settop-smoke.manifest.golden is not a ReadManifest/WriteJSON fixed point")
	}
	want, err := os.ReadFile("testdata/settop-smoke.perfetto.golden")
	if err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := WritePerfetto(&out, m); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Error("WritePerfetto of the manifest golden differs from settop-smoke.perfetto.golden")
	}
}

func TestEmitterFloatMatchesEncodingJSON(t *testing.T) {
	for _, f := range []float64{
		0, 1, -1, 0.1, 1.0 / 27, 1e-6, 9.99e-7, 1e-7, 1.5e-9, 1e20, 1e21, 1.2e22, -3e-10,
		float64(math.MaxInt64) / 27, float64(math.MinInt64) / 27, 333333333.3333333, 4.572522434819777e15,
	} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		e := newEmitter(&got, " ", spanChunk, 1)
		e.float(f)
		e.flush()
		if got.String() != string(want) {
			t.Errorf("float %g: emitter %s, encoding/json %s", f, got.String(), want)
		}
	}
}

// TestEmitterFloatIsShortestF holds float, whose whole numbers below
// 2⁵³ skip the float formatter, to strconv.AppendFloat's shortest 'f'
// form over tick quotients: whole and fractional microseconds of every
// magnitude, zero, the whole numbers around ±2⁵³ where the integer path
// ends, and past it, up to encoding/json's switch to 'e'.
func TestEmitterFloatIsShortestF(t *testing.T) {
	quotients := []float64{0, math.Copysign(0, -1)}
	for d := int64(-3); d <= 3; d++ {
		quotients = append(quotients, float64(1<<53+d), -float64(1<<53+d), usec(ticks.Ticks(27*(1<<53+d))))
	}
	x := uint64(88172645463325252)
	for i := 0; i < 20000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		tk := ticks.Ticks(x >> (x % 64))
		quotients = append(quotients, usec(tk), usec(tk-tk%ticks.PerMicrosecond), -usec(tk))
	}
	var got bytes.Buffer
	e := newEmitter(&got, " ", spanChunk, 1)
	for _, f := range quotients {
		want := strconv.AppendFloat(nil, f, 'f', -1, 64)
		if math.Abs(f) >= 1e21 {
			want, _ = json.Marshal(f)
		}
		e.buf = e.buf[:0]
		e.float(f)
		if string(e.buf) != string(want) {
			t.Fatalf("float %v: emitter %s, want %s", f, e.buf, want)
		}
	}
}

// failAfter accepts n bytes, then fails every write.
type failAfter struct{ n int }

var errSink = errors.New("sink full")

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n < len(p) {
		return 0, errSink
	}
	f.n -= len(p)
	return len(p), nil
}

func TestWritersReportWriteErrors(t *testing.T) {
	m := syntheticCluster(3000, 3) // several buffers' worth
	for _, limit := range []int{0, emitBufSize, 3 * emitBufSize} {
		if err := m.WriteJSON(&failAfter{limit}); !errors.Is(err, errSink) {
			t.Errorf("WriteJSON with a sink failing after %d bytes: err = %v", limit, err)
		}
		if err := WritePerfetto(&failAfter{limit}, m); !errors.Is(err, errSink) {
			t.Errorf("WritePerfetto with a sink failing after %d bytes: err = %v", limit, err)
		}
	}
}

// chunkSizes records the size of every Write.
type chunkSizes []int

func (c *chunkSizes) Write(p []byte) (int, error) { *c = append(*c, len(p)); return len(p), nil }

// TestWritersStream: both writers flush as they go, in writes of at
// most emitBufSize bytes — on the serial path, and at GOMAXPROCS 2 on
// a 50 000-span cluster, whose span list the chunk runner writes.
func TestWritersStream(t *testing.T) {
	for _, c := range []struct{ spans, procs int }{{5000, 1}, {50000, 2}} {
		m := syntheticCluster(c.spans, 3)
		setProcs(t, c.procs)
		for name, write := range writersAtProcs(m) {
			var sizes chunkSizes
			chunks, err := write(&sizes)
			if err != nil {
				t.Fatal(err)
			}
			if (chunks > 0) != (c.procs > 1) {
				t.Errorf("%s of %d spans at GOMAXPROCS %d encoded %d chunks in parallel", name, len(m.Spans), c.procs, chunks)
			}
			if len(sizes) < 4 {
				t.Errorf("%s made %d writes for a multi-buffer document; it should flush as it goes", name, len(sizes))
			}
			for _, n := range sizes {
				if n > emitBufSize {
					t.Errorf("%s wrote a %d-byte chunk, over the %d-byte buffer", name, n, emitBufSize)
				}
			}
		}
	}
}

// setProcs sets GOMAXPROCS for the rest of the test.
func setProcs(t *testing.T, n int) {
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// writersAtProcs is both writers as WriteJSON and WritePerfetto call
// them, returning how many chunks they encoded in parallel.
func writersAtProcs(m *Manifest) map[string]func(io.Writer) (int, error) {
	return map[string]func(io.Writer) (int, error){
		"WriteJSON":     func(w io.Writer) (int, error) { return m.writeJSON(w, spanChunk, runtime.GOMAXPROCS(0)) },
		"WritePerfetto": func(w io.Writer) (int, error) { return writePerfetto(w, m, spanChunk, runtime.GOMAXPROCS(0)) },
	}
}

// failLater fails the write that would take it past n bytes, and
// counts the writes made after that.
type failLater struct {
	n, after int
	failed   bool
}

func (f *failLater) Write(p []byte) (int, error) {
	switch {
	case f.failed:
		f.after++
		return 0, errors.New("write after a failed write")
	case f.n < len(p):
		f.failed = true
		return 0, errSink
	}
	f.n -= len(p)
	return len(p), nil
}

// TestChunkedWriteErrors: when the sink fails while the chunk runner
// is writing, a writer returns that first error, makes no write after
// it, and leaves no chunk goroutine behind — failing before the list,
// in its first chunks and deep in it.
func TestChunkedWriteErrors(t *testing.T) {
	setProcs(t, 2)
	m := syntheticCluster(20000, 3)
	for _, limit := range []int{0, emitBufSize / 2, 3 * emitBufSize, 40 * emitBufSize} {
		for name, write := range writersAtProcs(m) {
			before := runtime.NumGoroutine()
			f := &failLater{n: limit}
			chunks, err := write(f)
			if !errors.Is(err, errSink) || f.after != 0 || chunks == 0 {
				t.Errorf("%s failing after %d bytes: err %v, %d writes after it, %d chunks in parallel", name, limit, err, f.after, chunks)
			}
			// A joined helper has run its last line; let it finish exiting.
			n := runtime.NumGoroutine()
			for deadline := time.Now().Add(5 * time.Second); n > before && time.Now().Before(deadline); {
				runtime.Gosched()
				n = runtime.NumGoroutine()
			}
			if n > before {
				t.Errorf("%s failing after %d bytes: %d goroutines after the write, %d before", name, limit, n, before)
			}
		}
	}
}

// The emitter's allocations are its own set-up (plus, for the export,
// the sorted task copy): none per span. testing.AllocsPerRun runs at
// GOMAXPROCS 1, so these two see only the serial path;
// TestChunkedAllocsIndependentOfSpanCount covers the chunk runner.

func TestWriteJSONAllocsIndependentOfSpanCount(t *testing.T) {
	small, large := syntheticCluster(1000, 4), syntheticCluster(50000, 4)
	count := func(m *Manifest) float64 {
		return testing.AllocsPerRun(3, func() {
			if err := m.WriteJSON(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a, b := count(small), count(large); a != b {
		t.Errorf("WriteJSON allocates %v times at %d spans, %v at %d", a, len(small.Spans), b, len(large.Spans))
	}
}

func TestWritePerfettoAllocsIndependentOfSpanCount(t *testing.T) {
	small, large := syntheticCluster(1000, 4), syntheticCluster(50000, 4)
	count := func(m *Manifest) float64 {
		return testing.AllocsPerRun(3, func() {
			if err := WritePerfetto(io.Discard, m); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a, b := count(small), count(large); a != b {
		t.Errorf("WritePerfetto allocates %v times at %d spans, %v at %d", a, len(small.Spans), b, len(large.Spans))
	}
}

// mallocs is the fewest heap allocations over twenty calls of f,
// counted with runtime.MemStats at the current GOMAXPROCS. The fewest,
// because a call may also pay for a goroutine descriptor the runtime
// had no free one of, or (under -race) for the detector's own records.
func mallocs(f func()) uint64 {
	var before, after runtime.MemStats
	least := uint64(math.MaxUint64)
	for i := 0; i < 20; i++ {
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	return least
}

// TestChunkedAllocsIndependentOfSpanCount is the two tests above at
// GOMAXPROCS 2, where the chunk runner encodes the span lists: its
// ring, channels and helper are a fixed set, none per span or chunk.
// Both lists are cut into chunks of 1 000/minChunks spans, so the
// 1 000-span one splits too.
func TestChunkedAllocsIndependentOfSpanCount(t *testing.T) {
	setProcs(t, 2)
	small, large := syntheticCluster(1000, 4), syntheticCluster(50000, 4)
	chunk := len(small.Spans) / minChunks
	for name, write := range map[string]func(*Manifest) (int, error){
		"WriteJSON":     func(m *Manifest) (int, error) { return m.writeJSON(io.Discard, chunk, 2) },
		"WritePerfetto": func(m *Manifest) (int, error) { return writePerfetto(io.Discard, m, chunk, 2) },
	} {
		count := func(m *Manifest) uint64 {
			if chunks, err := write(m); err != nil || chunks == 0 {
				t.Fatalf("%s of %d spans: %d chunks in parallel, err %v", name, len(m.Spans), chunks, err)
			}
			return mallocs(func() { _, _ = write(m) })
		}
		if a, b := count(small), count(large); a != b {
			t.Errorf("%s at GOMAXPROCS 2 allocates %d times at %d spans, %d at %d", name, a, len(small.Spans), b, len(large.Spans))
		}
	}
}

// TestSplitPathsIdleBelowThreshold: on a span list under the threshold,
// the settop golden's, a plan of two workers or parts splits nothing
// and allocates what a plan of one does.
func TestSplitPathsIdleBelowThreshold(t *testing.T) {
	doc, err := os.ReadFile("testdata/settop-smoke.manifest.golden")
	if err != nil {
		t.Fatal(err)
	}
	m := new(Manifest)
	if _, ok := readCanonical(doc, m, 1, 0); !ok || len(m.Spans) == 0 || len(m.Spans) >= minChunks*spanChunk {
		t.Fatalf("the golden's %d spans are not a list under the threshold", len(m.Spans))
	}
	for name, run := range map[string]func(n int) (int, error){
		"WriteJSON":     func(n int) (int, error) { return m.writeJSON(io.Discard, spanChunk, n) },
		"WritePerfetto": func(n int) (int, error) { return writePerfetto(io.Discard, m, spanChunk, n) },
		"ReadManifest": func(n int) (int, error) {
			split, _ := readCanonical(doc, new(Manifest), n, minChunks*spanChunk)
			return split, nil
		},
	} {
		allocs := func(n int) float64 {
			return testing.AllocsPerRun(5, func() {
				if split, err := run(n); split != 0 || err != nil {
					t.Fatalf("%s with a plan of %d: split in %d, err %v", name, n, split, err)
				}
			})
		}
		if one, two := allocs(1), allocs(2); one != two {
			t.Errorf("%s allocates %v times with a plan of one, %v with two", name, one, two)
		}
	}
}

// ValidatePerfetto's fast path allocates its input copy and its tables,
// which hold only open pairs: none per event. (Were an export handed to
// the encoding/json validator, the count would grow with its events.)
func TestValidatePerfettoAllocsIndependentOfEventCount(t *testing.T) {
	export := func(m *Manifest) []byte {
		var buf bytes.Buffer
		if err := WritePerfetto(&buf, m); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	small, large := export(syntheticCluster(1000, 4)), export(syntheticCluster(50000, 4))
	count := func(doc []byte) float64 {
		return testing.AllocsPerRun(3, func() {
			if err := ValidatePerfetto(bytes.NewReader(doc)); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a, b := count(small), count(large); a != b {
		t.Errorf("ValidatePerfetto allocates %v times at %d bytes, %v at %d", a, len(small), b, len(large))
	}
}

// --- the synthetic cluster the differential tests and benchmarks share ---

// syntheticTasksPerNode is fixed so the task table (which the export
// copies and sorts) does not grow with the span count.
const syntheticTasksPerNode = 8

// syntheticLogs builds the inputs of a cluster stitch: a coordinator
// manifest and `nodes` node manifests holding about `spans` spans
// between them in the mix a fleet run records — period windows with
// dispatch slices under them, admission instants with stock details,
// and placement decisions linked back to the coordinator's — and the
// span logs the manifests were filled from, the coordinator's first.
func syntheticLogs(spans, nodes int) (*Manifest, []*Manifest, []*Spans) {
	perNode := spans / (nodes + 1)
	coordSet := NewSet()
	coordSet.Registry.Counter("fleet.placed").Add(int64(perNode))
	for i := 0; i < perNode; i++ {
		at := ticks.Ticks(i) * 1000
		coordSet.Spans.Instant(at, "fleet", "place", NoTask, 0,
			fmt.Sprintf("fl%05d -> node %d", i, i%nodes))
	}
	coord := NewManifest(7)
	coord.Node = CoordTag
	coord.HorizonTicks = ticks.Ticks(perNode) * 1000
	coord.Fill(coordSet)
	coord.Events = []LogEvent{{At: 5, Kind: "storm", Detail: "front crosses nodes 0-2"}}

	logs := make([]*Manifest, nodes)
	spanLogs := []*Spans{coordSet.Spans}
	for n := range logs {
		set := NewSet()
		set.Registry.Counter("sched.dispatch.granted").Add(int64(perNode))
		set.Registry.Counter("sched.deadline.misses")
		set.Registry.Gauge("sched.queue.time_remaining").Set(int64(n))
		set.Registry.Histogram("sim.switch.cost", 5, 4).Observe(int64(7 + n))
		nm := NewManifest(7)
		nm.Node = NodeTag(n)
		for k := 0; k < syntheticTasksPerNode; k++ {
			nm.Tasks = append(nm.Tasks, TaskInfo{ID: int64(k + 1), Name: fmt.Sprintf("fl%05d", n*syntheticTasksPerNode+k)})
		}
		for i := 0; set.Spans.N() < perNode; i++ {
			at := ticks.Ticks(i) * 27000
			task := int64(i%syntheticTasksPerNode + 1)
			name := nm.Tasks[task-1].Name
			period := set.Spans.Complete(at, at+27000, "period", name, task, 0, "")
			set.Spans.Complete(at+100, at+9000, "dispatch", name, task, period, "granted")
			set.Spans.Complete(at+9500, at+20000, "dispatch", name, task, period, "")
			if i%3 == 0 {
				set.Spans.Instant(at+50, "admission", "admit", NoTask, 0, "rejected: cpu")
			}
			if i%16 == 0 {
				id := set.Spans.Instant(at+60, "fleet", "adopt", task, 0,
					fmt.Sprintf("%s placed here as attempt %d", name, i))
				set.Spans.SetLink(id, CoordTag, SpanID(i%perNode+1))
			}
		}
		nm.Fill(set)
		nm.Events = []LogEvent{{At: ticks.Ticks(n), Kind: "fault", Detail: "interrupt burst"}}
		if n == 0 {
			f := NewFlight(16, 4)
			f.Front(set.Spans)
			f.Event(3, "fault", "node 0 crashed")
			nm.FlightDumps = []FlightDump{f.Dump(NodeTag(0), "node-crash", 99)}
		}
		logs[n] = nm
		spanLogs = append(spanLogs, set.Spans)
	}
	return coord, logs, spanLogs
}

// syntheticCluster is syntheticLogs stitched: a valid rdtel/v2 cluster
// manifest of about `spans` spans over `nodes` nodes.
func syntheticCluster(spans, nodes int) *Manifest {
	coord, logs, _ := syntheticLogs(spans, nodes)
	m, err := StitchCluster(coord, logs)
	if err != nil {
		panic(err)
	}
	if err := ValidateManifest(m); err != nil {
		panic(err)
	}
	return m
}

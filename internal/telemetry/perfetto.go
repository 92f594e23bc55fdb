//rd:hotpath
package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"

	"repro/internal/ticks"
)

// Perfetto/chrome://tracing export: a Manifest's spans become Chrome
// trace-event JSON (the "JSON Array Format" with a traceEvents
// wrapper). Tasks render as named threads of one process; period/grant
// windows render as async slices over those tracks; dispatch slices as
// complete ("X") events; distributor-level decisions (admission,
// policy, governor, degrade, fault) as instants on a control track;
// the final counter snapshot as counter ("C") steps at the horizon.
//
// A stitched cluster manifest renders multi-track: one process per
// fleet node plus one for the coordinator, and every cross-node causal
// link becomes a flow event pair ("s" at the predecessor, "f" at the
// successor), so a migrated guarantee draws as one arrow-connected
// chain across node tracks.
//
// Times convert from 27 MHz ticks to the microseconds Chrome expects.

// traceEvent is one Chrome trace-event record as validatePerfettoJSON
// decodes it (and as the reference writer in the tests encodes it).
// WritePerfetto emits the same members in the same order without
// building one.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int64          `json:"tid"`
	ID   int64          `json:"id,omitempty"`
	S    string         `json:"s,omitempty"`
	Bp   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// perfettoFile is the top-level JSON document.
type perfettoFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

const (
	perfettoPid  = 1
	controlTid   = 1  // distributor-level decisions
	taskTidBase  = 10 // task tracks start here: tid = taskTidBase + task ID
	instantScope = "t"

	flowName = "causal"
	flowCat  = "fleet-link"
)

func usec(t ticks.Ticks) float64 { return float64(t) / float64(ticks.PerMicrosecond) }

func tidOf(task int64) int64 {
	if task == NoTask {
		return controlTid
	}
	return taskTidBase + task
}

// pidOf maps a span node tag to its Perfetto process: the coordinator
// (and untagged single-node spans) is pid 1, node i is pid 2+i.
func pidOf(tag int32) int {
	if idx, ok := TagIndex(tag); ok {
		return perfettoPid + 1 + idx
	}
	return perfettoPid
}

// event holds a trace event's scalar members; args, when an event has
// any, are written by the caller between beginEvent and close.
type event struct {
	name, cat, ph string
	ts, dur       float64
	pid           int
	tid, id       int64
	s, bp         string
}

func pkey(key string) *member { return newMember(perfettoUnit, key) }

// The trace-event members, traceEvent's and the args' in their order.
var (
	pTraceEvents, pDisplayTimeUnit          = pkey("traceEvents"), pkey("displayTimeUnit")
	pName, pCat, pPh, pTs, pDur, pPid, pTid = pkey("name"), pkey("cat"), pkey("ph"), pkey("ts"), pkey("dur"), pkey("pid"), pkey("tid")
	pID, pS, pBp, pArgs                     = pkey("id"), pkey("s"), pkey("bp"), pkey("args")
	pDetail, pLink, pParent, pValue         = pkey("detail"), pkey("link"), pkey("parent"), pkey("value")
)

// beginEvent opens the next traceEvents element and writes ev's
// members in traceEvent's order, omitting what its tags omit.
func (e *emitter) beginEvent(ev event) {
	e.elem()
	e.open('{')
	e.strField(pName, ev.name)
	e.optStr(pCat, ev.cat)
	e.strField(pPh, ev.ph)
	e.floatField(pTs, ev.ts)
	if ev.dur != 0 {
		e.floatField(pDur, ev.dur)
	}
	e.intField(pPid, int64(ev.pid))
	e.intField(pTid, ev.tid)
	e.optInt(pID, ev.id)
	e.optStr(pS, ev.s)
	e.optStr(pBp, ev.bp)
}

// beginMeta opens a process_name / thread_name metadata event up to
// the opening quote of args.name; the caller appends the name's text
// (raw, escaped, int) and calls endMeta.
func (e *emitter) beginMeta(what string, pid int, tid int64) {
	e.beginEvent(event{name: what, ph: "M", pid: pid, tid: tid})
	e.key(pArgs)
	e.open('{')
	e.key(pName)
	e.raw(`"`)
}

func (e *emitter) endMeta() {
	e.raw(`"`)
	e.close('}')
	e.close('}')
}

// meta writes a metadata event with a fixed plain-ASCII name.
func (e *emitter) meta(what string, pid int, tid int64, name string) {
	e.beginMeta(what, pid, tid)
	e.raw(name)
	e.endMeta()
}

// spanArgs writes a span event's args — detail, link, parent, the key
// order encoding/json gives a map — or nothing when all are unset.
func (e *emitter) spanArgs(sp *Span) {
	if sp.Detail == "" && sp.Parent == 0 && sp.Link == 0 {
		return
	}
	e.key(pArgs)
	e.open('{')
	e.optStr(pDetail, sp.Detail)
	e.optInt(pLink, int64(sp.Link))
	e.optInt(pParent, int64(sp.Parent))
	e.close('}')
}

// spanEvent writes a span's trace event, or for a period window its
// async begin and end pair.
func (e *emitter) spanEvent(sp *Span) {
	ev := event{name: sp.Name, cat: sp.Cat, ts: usec(sp.Begin), pid: pidOf(sp.Node), tid: tidOf(sp.Task)}
	switch {
	case sp.Begin == sp.End:
		ev.ph, ev.s = "i", instantScope
	case sp.Cat == "period":
		// Grant/period windows overlap their own dispatch slices, so
		// they render as async slices rather than stacked X events.
		ev.ph, ev.id = "b", int64(sp.ID)
	default:
		ev.ph, ev.dur = "X", usec(sp.End-sp.Begin)
	}
	e.beginEvent(ev)
	e.spanArgs(sp)
	e.close('}')
	if ev.ph == "b" {
		ev.ph, ev.ts = "e", usec(sp.End)
		e.beginEvent(ev)
		e.close('}')
	}
}

// WritePerfetto renders a manifest as Chrome trace-event JSON. Event
// order is deterministic: metadata (processes, then threads by pid and
// tid), spans in record order, flow pairs in successor-span order,
// counters by name. Each event is written as it is derived, through
// the streaming emitter WriteJSON uses (emit.go); the bytes are what
// json.Encoder with SetIndent("", " ") writes for the same events as a
// []traceEvent (writePerfettoRef in the tests). The span events are
// encoded in chunks as WriteJSON's spans are.
func WritePerfetto(w io.Writer, m *Manifest) error {
	return newEmitter(w, perfettoUnit, spanChunk, runtime.GOMAXPROCS(0)).perfetto(m)
}

// perfetto is WritePerfetto on a given emitter.
func (e *emitter) perfetto(m *Manifest) error {
	e.open('{')
	e.key(pTraceEvents)
	e.open('[')

	if m.NodeCount > 0 {
		e.meta("process_name", pidOf(CoordTag), 0, "cluster coordinator")
		e.meta("thread_name", pidOf(CoordTag), controlTid, "coordinator")
		for i := 0; i < m.NodeCount; i++ {
			e.beginMeta("process_name", pidOf(NodeTag(i)), 0)
			e.raw("node ")
			e.int(int64(i))
			e.endMeta()
			e.meta("thread_name", pidOf(NodeTag(i)), controlTid, "distributor")
		}
	} else {
		e.meta("process_name", perfettoPid, 0, "resource distributor")
		e.meta("thread_name", perfettoPid, controlTid, "distributor")
	}
	tasks := append([]TaskInfo(nil), m.Tasks...)
	sort.Slice(tasks, func(i, j int) bool {
		pi, pj := pidOf(tasks[i].Node), pidOf(tasks[j].Node)
		if pi != pj {
			return pi < pj
		}
		return tasks[i].ID < tasks[j].ID
	})
	for i := range tasks {
		t := &tasks[i]
		e.beginMeta("thread_name", pidOf(t.Node), tidOf(t.ID))
		e.escaped(t.Name)
		e.raw(" (task ")
		e.int(t.ID)
		e.raw(")")
		e.endMeta()
	}

	if !e.chunked(m.Spans, (*emitter).spanEvent) {
		for i := range m.Spans {
			e.spanEvent(&m.Spans[i])
		}
	}

	// sorted: span IDs strictly increase, as ValidateManifest demands of
	// anything ReadManifest returns; flow targets are then found by
	// binary search.
	sorted := true
	for i := 1; i < len(m.Spans) && sorted; i++ {
		sorted = m.Spans[i].ID > m.Spans[i-1].ID
	}

	// Flow pairs for resolved causal links (stitched manifests: Link is
	// a global span ID). The flow id is the successor's span ID — each
	// span carries at most one inbound link, so it is unique. Pre-stitch
	// cross-log links (LinkNode != 0) cannot be drawn within one file
	// and are skipped.
	find := func(id SpanID) *Span {
		i := sort.Search(len(m.Spans), func(i int) bool { return m.Spans[i].ID >= id })
		if i < len(m.Spans) && m.Spans[i].ID == id {
			return &m.Spans[i]
		}
		return nil
	}
	if !sorted {
		// A hand-built manifest: the last span recorded under an ID wins.
		byID := make(map[SpanID]*Span, len(m.Spans))
		for i := range m.Spans {
			byID[m.Spans[i].ID] = &m.Spans[i]
		}
		find = func(id SpanID) *Span { return byID[id] }
	}
	for i := range m.Spans {
		sp := &m.Spans[i]
		if sp.Link == 0 || sp.LinkNode != 0 {
			continue
		}
		target := find(sp.Link)
		if target == nil {
			continue
		}
		fTs := usec(sp.Begin)
		sTs := usec(target.Begin)
		if sTs > fTs {
			sTs = fTs // flows may not run backwards in time
		}
		e.beginEvent(event{
			name: flowName, cat: flowCat, ph: "s", ts: sTs,
			pid: pidOf(target.Node), tid: tidOf(target.Task), id: int64(sp.ID),
		})
		e.close('}')
		e.beginEvent(event{
			name: flowName, cat: flowCat, ph: "f", bp: "e", ts: fTs,
			pid: pidOf(sp.Node), tid: tidOf(sp.Task), id: int64(sp.ID),
		})
		e.close('}')
	}

	horizon := usec(m.HorizonTicks)
	for i := range m.Metrics.Counters {
		c := &m.Metrics.Counters[i]
		e.beginEvent(event{name: c.Name, ph: "C", ts: horizon, pid: perfettoPid, tid: 0})
		e.key(pArgs)
		e.open('{')
		e.intField(pValue, c.Value)
		e.close('}')
		e.close('}')
	}

	e.close(']')
	e.strField(pDisplayTimeUnit, "ms")
	e.close('}')
	return e.finish()
}

// ValidatePerfetto checks Chrome trace-event JSON by validatePerfettoJSON's
// rules; perfettoCanonical (read.go) passes the writer's own in one pass,
// in place when r hands its bytes over in one piece (parseInput).
func ValidatePerfetto(r io.Reader) error {
	data, ok, err := parseInput(r, perfettoCanonical)
	if err != nil {
		return fmt.Errorf("telemetry: perfetto: %v", err)
	}
	if ok {
		return nil
	}
	return validatePerfettoJSON(bytes.NewReader(data))
}

// validatePerfettoJSON decodes the document with encoding/json and checks
// a traceEvents array, a known phase on every event, non-negative times
// and durations, and b/e and s/f pairs per (cat, id) with no end, step
// or finish before its start.
func validatePerfettoJSON(r io.Reader) error {
	var f perfettoFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&f); err != nil {
		return fmt.Errorf("telemetry: perfetto: %v", err)
	}
	if len(f.TraceEvents) == 0 {
		return fmt.Errorf("telemetry: perfetto: no traceEvents")
	}
	open := map[pairKey]int{}
	flows := map[pairKey]int{}
	for i, e := range f.TraceEvents {
		key := pairKey{e.Cat, e.ID}
		switch e.Ph {
		case "M", "X", "i", "C":
		case "b":
			open[key]++
		case "e":
			if open[key] == 0 {
				return fmt.Errorf("telemetry: perfetto: event %d ends async %v with no begin", i, key)
			}
			open[key]--
		case "s":
			flows[key]++
		case "t":
			if flows[key] == 0 {
				return fmt.Errorf("telemetry: perfetto: event %d steps flow %v with no start", i, key)
			}
		case "f":
			if flows[key] == 0 {
				return fmt.Errorf("telemetry: perfetto: event %d finishes flow %v with no start", i, key)
			}
			flows[key]--
		default:
			return fmt.Errorf("telemetry: perfetto: event %d has unknown phase %q", i, e.Ph)
		}
		if e.Ts < 0 || e.Dur < 0 {
			return fmt.Errorf("telemetry: perfetto: event %d has negative time", i)
		}
	}
	if err := checkClosed(open, "async"); err != nil {
		return err
	}
	return checkClosed(flows, "flow")
}

// pairKey identifies an async slice or a flow: begin/end and
// start/step/finish events pair up per (cat, id). It prints as
// "cat/id", the form error messages name a pairing by.
type pairKey struct {
	cat string
	id  int64
}

//rdlint:allow hotalloc cold path: only validation error messages print a key
func (k pairKey) String() string { return k.cat + "/" + strconv.FormatInt(k.id, 10) }

// checkClosed reports the name-sorted first entry of a pairing map
// that was begun but never finished.
func checkClosed(m map[pairKey]int, kind string) error {
	var first string
	//rdlint:ordered-ok a minimum over the open keys is the same in any order
	for key, n := range m {
		if n == 0 {
			continue
		}
		if s := key.String(); first == "" || s < first {
			first = s
		}
	}
	if first == "" {
		return nil
	}
	return fmt.Errorf("telemetry: perfetto: %s %s left open", kind, first)
}

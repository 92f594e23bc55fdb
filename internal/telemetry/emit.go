//rd:hotpath
package telemetry

import (
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"unicode/utf8"
)

// The manifest and Perfetto writers used to hand whole documents to
// encoding/json: reflection over every span, then (for the export) a
// second indented copy. This file replaces that with a small
// append-based emitter the per-type functions below (and perfetto.go)
// drive directly, one pass, no intermediate tree.
//
// The output is byte-identical to what json.Encoder produces with
// SetIndent("", unit) and its default HTML escaping — the oracle tests
// in emit_test.go keep the reflective encoders around to prove it.

const (
	emitBufSize = 64 << 10
	// emitSlack is the headroom kept below emitBufSize: the buffer is
	// flushed between members once it is within this much of full, so
	// only a single string longer than the slack can grow it.
	emitSlack = 4 << 10
	// emitMaxDepth bounds the nesting the precomputed newline+indent
	// string and member literals cover; the deepest document written
	// here nests five.
	emitMaxDepth = 8

	// manifestUnit and perfettoUnit are the indent units of WriteJSON
	// and WritePerfetto.
	manifestUnit = "  "
	perfettoUnit = " "

	// A span list of at least minChunks chunks of spanChunk spans — 2 048
	// spans — is encoded, and read, in parallel (chunked, read.go's
	// spanList). A chunk of a fleet's spans comes to 45–60 KiB in either
	// layout, so it fits one emitBufSize ring slot and one write.
	spanChunk = 256
	minChunks = 8
)

// A member is what opens one object member in the writers' layout —
// newline, indent, quoted key, ": " — at every nesting depth. A writer
// appends it as one literal and the manifest reader (read.go)
// recognises it by comparing the input with the same string, so the
// layout is defined here once. Keys are the struct tags' literals:
// plain ASCII that needs no escaping.
type member [emitMaxDepth + 1]string

func newMember(unit, key string) *member {
	m := new(member)
	for d := range m {
		//rdlint:allow hotalloc cold path: once per key and depth, at package initialisation
		m[d] = "\n" + strings.Repeat(unit, d) + `"` + key + `": `
	}
	return m
}

func mkey(key string) *member { return newMember(manifestUnit, key) }

// The rdtel/v2 members. A name several types share is one member.
var (
	kSchema, kBuild, kSeed, kConfigDigest            = mkey("schema"), mkey("build"), mkey("seed"), mkey("config_digest")
	kHorizonTicks, kNode, kNodeCount, kTasks         = mkey("horizon_ticks"), mkey("node"), mkey("node_count"), mkey("tasks")
	kMetrics, kSpans, kEvents, kFlightDumps, kTotals = mkey("metrics"), mkey("spans"), mkey("events"), mkey("flight_dumps"), mkey("totals")

	kID, kName, kValue, kMax              = mkey("id"), mkey("name"), mkey("value"), mkey("max")
	kCounters, kGauges, kHistograms       = mkey("counters"), mkey("gauges"), mkey("histograms")
	kWidth, kCounts, kSum, kCount         = mkey("width"), mkey("counts"), mkey("sum"), mkey("count")
	kParent, kCat, kTask, kBegin, kEnd    = mkey("parent"), mkey("cat"), mkey("task"), mkey("begin"), mkey("end")
	kDetail, kLink, kLinkNode, kAt, kKind = mkey("detail"), mkey("link"), mkey("link_node"), mkey("at"), mkey("kind")
	kReason, kSpansTotal, kSpansDropped   = mkey("reason"), mkey("spans_total"), mkey("spans_dropped")
	kEventsTotal, kEventsDropped          = mkey("events_total"), mkey("events_dropped")

	kDeadlineMisses, kViolations   = mkey("deadline_misses"), mkey("violations")
	kDegradations, kFaultsInjected = mkey("degradations"), mkey("faults_injected")
)

// emitter writes one indented JSON document into its own buffer and
// flushes the buffer to w as it fills. The first write error sticks;
// later output is discarded and finish reports it.
type emitter struct {
	w       io.Writer
	buf     []byte
	flushAt int // sep flushes once buf holds this much
	err     error
	nl      string // "\n" then emitMaxDepth indent units
	unit    int    // len of one indent unit
	depth   int
	first   bool // nothing emitted yet inside the innermost open container

	chunk, workers int // chunked's plan (newEmitter)
	chunks         int // the chunks chunked has encoded
}

// newEmitter writes with the indent unit, and with chunked's plan:
// spans per chunk and the most goroutines to encode on.
func newEmitter(w io.Writer, unit string, chunk, workers int) *emitter {
	nl := make([]byte, 0, 1+emitMaxDepth*len(unit))
	nl = append(nl, '\n')
	for i := 0; i < emitMaxDepth; i++ {
		nl = append(nl, unit...)
	}
	return &emitter{w: w, buf: make([]byte, 0, emitBufSize), flushAt: emitBufSize - emitSlack,
		nl: string(nl), unit: len(unit), chunk: chunk, workers: workers}
}

func (e *emitter) flush() {
	if e.err == nil && len(e.buf) > 0 {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

// finish ends the document the way Encoder.Encode does — one trailing
// newline — and flushes.
func (e *emitter) finish() error {
	e.buf = append(e.buf, '\n')
	e.flush()
	return e.err
}

// open starts an object or array in value position.
func (e *emitter) open(c byte) {
	e.buf = append(e.buf, c)
	e.depth++
	e.first = true
}

// close ends the innermost container; an empty one stays "{}" / "[]".
func (e *emitter) close(c byte) {
	e.depth--
	if !e.first {
		e.buf = append(e.buf, e.nl[:1+e.depth*e.unit]...)
	}
	e.buf = append(e.buf, c)
	e.first = false
}

// sep starts the next element or member of the innermost container:
// a flush when the buffer is nearly full, then the separating comma.
func (e *emitter) sep() {
	if len(e.buf) >= e.flushAt {
		e.flush()
	}
	if !e.first {
		e.buf = append(e.buf, ',')
	}
	e.first = false
}

// elem positions the next array element: separator, newline, indent.
func (e *emitter) elem() {
	e.sep()
	e.buf = append(e.buf, e.nl[:1+e.depth*e.unit]...)
}

// key opens the next object member.
func (e *emitter) key(k *member) {
	e.sep()
	e.buf = append(e.buf, k[e.depth]...)
}

func (e *emitter) int(v int64)   { e.buf = strconv.AppendInt(e.buf, v, 10) }
func (e *emitter) uint(v uint64) { e.buf = strconv.AppendUint(e.buf, v, 10) }
func (e *emitter) null()         { e.buf = append(e.buf, "null"...) }

// float writes f by encoding/json's rule: the shortest 'f' form, or
// 'e' outside [1e-6, 1e21) with a two-digit negative exponent trimmed
// to one. Callers only pass finite values (tick quotients).
func (e *emitter) float(f float64) {
	// Below 2⁵³ every whole number is a float of its own, so no shorter
	// decimal names it and its shortest 'f' form is its integer digits.
	if i := int64(f); float64(i) == f && -1<<53 < i && i < 1<<53 && (i != 0 || !math.Signbit(f)) {
		e.int(i)
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.buf = strconv.AppendFloat(e.buf, f, format, -1, 64)
	if format == 'e' {
		if n := len(e.buf); n >= 4 && e.buf[n-4] == 'e' && e.buf[n-3] == '-' && e.buf[n-2] == '0' {
			e.buf[n-2] = e.buf[n-1]
			e.buf = e.buf[:n-1]
		}
	}
}

// str writes s as a JSON string.
func (e *emitter) str(s string) {
	e.buf = append(e.buf, '"')
	e.escaped(s)
	e.buf = append(e.buf, '"')
}

// raw appends s to an open string unescaped: for literals known to be
// plain ASCII.
func (e *emitter) raw(s string) { e.buf = append(e.buf, s...) }

const hexDigits = "0123456789abcdef"

// jsonSafe marks the ASCII bytes encoding/json copies through as-is
// with HTML escaping on: everything printable but '"', '\\', '<', '>'
// and '&'.
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

// escaped appends the body of a JSON string (no quotes) with
// encoding/json's escaping: short escapes for the usual control
// bytes, \u00XX for the rest and for <, > and &, \ufffd for each
// invalid UTF-8 byte, and U+2028/U+2029 spelled out.
func (e *emitter) escaped(s string) {
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			e.buf = append(e.buf, s[start:i]...)
			switch b {
			case '\\', '"':
				e.buf = append(e.buf, '\\', b)
			case '\b':
				e.buf = append(e.buf, '\\', 'b')
			case '\f':
				e.buf = append(e.buf, '\\', 'f')
			case '\n':
				e.buf = append(e.buf, '\\', 'n')
			case '\r':
				e.buf = append(e.buf, '\\', 'r')
			case '\t':
				e.buf = append(e.buf, '\\', 't')
			default:
				e.buf = append(e.buf, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			e.buf = append(e.buf, s[start:i]...)
			e.buf = append(e.buf, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			e.buf = append(e.buf, s[start:i]...)
			e.buf = append(e.buf, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	e.buf = append(e.buf, s[start:]...)
}

// --- object members ---

func (e *emitter) strField(k *member, v string)    { e.key(k); e.str(v) }
func (e *emitter) intField(k *member, v int64)     { e.key(k); e.int(v) }
func (e *emitter) floatField(k *member, v float64) { e.key(k); e.float(v) }

// optStr and optInt are the omitempty members.
func (e *emitter) optStr(k *member, v string) {
	if v != "" {
		e.strField(k, v)
	}
}

func (e *emitter) optInt(k *member, v int64) {
	if v != 0 {
		e.intField(k, v)
	}
}

// --- rdtel/v2 types, members in struct order ---

func (e *emitter) manifest(m *Manifest) {
	e.open('{')
	e.strField(kSchema, m.Schema)
	e.optStr(kBuild, m.Build)
	e.key(kSeed)
	e.uint(m.Seed)
	e.optStr(kConfigDigest, m.ConfigDigest)
	e.optInt(kHorizonTicks, int64(m.HorizonTicks))
	e.optInt(kNode, int64(m.Node))
	e.optInt(kNodeCount, int64(m.NodeCount))
	if len(m.Tasks) > 0 {
		e.key(kTasks)
		e.open('[')
		for i := range m.Tasks {
			t := &m.Tasks[i]
			e.elem()
			e.open('{')
			e.intField(kID, t.ID)
			e.strField(kName, t.Name)
			e.optInt(kNode, int64(t.Node))
			e.close('}')
		}
		e.close(']')
	}
	e.key(kMetrics)
	e.snapshot(&m.Metrics)
	e.spans(m.Spans)
	e.events(m.Events)
	if len(m.FlightDumps) > 0 {
		e.key(kFlightDumps)
		e.open('[')
		for i := range m.FlightDumps {
			e.elem()
			e.flightDump(&m.FlightDumps[i])
		}
		e.close(']')
	}
	e.key(kTotals)
	e.open('{')
	e.intField(kDeadlineMisses, m.Totals.DeadlineMisses)
	e.intField(kViolations, m.Totals.Violations)
	e.intField(kDegradations, m.Totals.Degradations)
	e.intField(kFaultsInjected, m.Totals.FaultsInjected)
	e.optInt(kFlightDumps, m.Totals.FlightDumps)
	e.close('}')
	e.close('}')
}

// list opens an array member that is never omitted: a nil slice is
// written as null (and false returned), as encoding/json does.
func (e *emitter) list(k *member, isNil bool) bool {
	e.key(k)
	if isNil {
		e.null()
		return false
	}
	e.open('[')
	return true
}

func (e *emitter) snapshot(s *Snapshot) {
	e.open('{')
	if e.list(kCounters, s.Counters == nil) {
		for i := range s.Counters {
			c := &s.Counters[i]
			e.elem()
			e.open('{')
			e.strField(kName, c.Name)
			e.intField(kValue, c.Value)
			e.close('}')
		}
		e.close(']')
	}
	if e.list(kGauges, s.Gauges == nil) {
		for i := range s.Gauges {
			g := &s.Gauges[i]
			e.elem()
			e.open('{')
			e.strField(kName, g.Name)
			e.intField(kValue, g.Value)
			e.intField(kMax, g.Max)
			e.close('}')
		}
		e.close(']')
	}
	if e.list(kHistograms, s.Histograms == nil) {
		for i := range s.Histograms {
			h := &s.Histograms[i]
			e.elem()
			e.open('{')
			e.strField(kName, h.Name)
			e.intField(kWidth, h.Width)
			if e.list(kCounts, h.Counts == nil) {
				for _, n := range h.Counts {
					e.elem()
					e.int(n)
				}
				e.close(']')
			}
			e.intField(kSum, h.Sum)
			e.intField(kCount, h.Count)
			e.close('}')
		}
		e.close(']')
	}
	e.close('}')
}

// spans writes the omitempty "spans" member of a manifest or dump.
func (e *emitter) spans(spans []Span) {
	if len(spans) == 0 {
		return
	}
	e.key(kSpans)
	e.open('[')
	if !e.chunked(spans, (*emitter).span) {
		for i := range spans {
			e.span(&spans[i])
		}
	}
	e.close(']')
}

// span writes one element of a "spans" list.
func (e *emitter) span(sp *Span) {
	e.elem()
	e.open('{')
	e.intField(kID, int64(sp.ID))
	e.optInt(kParent, int64(sp.Parent))
	e.strField(kCat, sp.Cat)
	e.strField(kName, sp.Name)
	e.intField(kTask, sp.Task)
	e.intField(kBegin, int64(sp.Begin))
	e.intField(kEnd, int64(sp.End))
	e.optStr(kDetail, sp.Detail)
	e.optInt(kNode, int64(sp.Node))
	e.optInt(kLink, int64(sp.Link))
	e.optInt(kLinkNode, int64(sp.LinkNode))
	e.close('}')
}

// events writes the omitempty "events" member of a manifest or dump.
func (e *emitter) events(events []LogEvent) {
	if len(events) == 0 {
		return
	}
	e.key(kEvents)
	e.open('[')
	for i := range events {
		ev := &events[i]
		e.elem()
		e.open('{')
		e.intField(kAt, int64(ev.At))
		e.strField(kKind, ev.Kind)
		e.optStr(kDetail, ev.Detail)
		e.close('}')
	}
	e.close(']')
}

func (e *emitter) flightDump(d *FlightDump) {
	e.open('{')
	e.optInt(kNode, int64(d.Node))
	e.strField(kReason, d.Reason)
	e.intField(kAt, int64(d.At))
	e.intField(kSpansTotal, d.SpansTotal)
	e.intField(kSpansDropped, d.SpansDropped)
	e.intField(kEventsTotal, d.EventsTotal)
	e.intField(kEventsDropped, d.EventsDropped)
	e.spans(d.Spans)
	e.events(d.Events)
	e.close('}')
}

// --- the chunk runner ---

// chunkSlot is one buffer of chunked's ring: an emitter that never
// flushes, and a signal that the chunk claimed into it is encoded.
type chunkSlot struct {
	e     emitter
	ready chan struct{}
}

// chunked writes body's output for each span, when the list holds
// minChunks chunks of e.chunk spans and the emitter has two or more
// workers, and reports whether it did; the caller's own loop writes a
// shorter list. The chunks are claimed in order by W = min(workers,
// chunks) goroutines, the caller one of them, and each is encoded into
// one of a ring of 2×W reused buffers; the caller writes the buffers in
// chunk order, in writes of at most emitBufSize, and encodes while the
// next one is not ready. A chunk's bytes depend only on its spans and
// the list's indent, so the output is the plain loop's; the scheduling
// decides only which goroutine encodes which chunk.
func (e *emitter) chunked(spans []Span, body func(*emitter, *Span)) bool {
	if e.workers < 2 || len(spans) < minChunks*e.chunk {
		return false
	}
	size, depth, first := e.chunk, e.depth, e.first
	c := (len(spans) + size - 1) / size
	w := min(e.workers, c)
	slots := make([]chunkSlot, 2*w)
	for i := range slots {
		slots[i] = chunkSlot{emitter{buf: make([]byte, 0, emitBufSize), flushAt: math.MaxInt, nl: e.nl, unit: e.unit}, make(chan struct{}, 1)}
	}
	var next, written atomic.Int64 // the next chunk to claim; chunks written
	wake := make(chan struct{}, 1) // a helper waits here for a free slot
	// claim takes the next chunk, if any, once its slot's previous chunk
	// is written: a slot holds one chunk at a time, which its signal names.
	claim := func() int {
		for j := next.Load(); j < int64(c) && j < written.Load()+int64(len(slots)); j = next.Load() {
			if next.CompareAndSwap(j, j+1) {
				return int(j)
			}
		}
		return -1
	}
	encode := func(j int) {
		s := &slots[j%len(slots)]
		s.e.buf, s.e.depth, s.e.first = s.e.buf[:0], depth, j == 0 && first
		for i := j * size; i < min((j+1)*size, len(spans)); i++ {
			body(&s.e, &spans[i])
		}
		s.ready <- struct{}{}
	}
	var helpers sync.WaitGroup
	helpers.Add(w - 1)
	for k := 1; k < w; k++ {
		go func() {
			defer helpers.Done()
			for next.Load() < int64(c) {
				if j := claim(); j >= 0 {
					encode(j)
				} else {
					<-wake
				}
			}
		}()
	}
	e.flush() // what precedes the list goes first
	for n := 0; n < c && e.err == nil; n++ {
		s := &slots[n%len(slots)]
		for { // encode while chunk n is not ready
			select {
			case <-s.ready:
			default:
				if j := claim(); j >= 0 {
					encode(j)
					continue
				}
				<-s.ready
			}
			break
		}
		for b := s.e.buf; len(b) > 0 && e.err == nil; b = b[min(len(b), emitBufSize):] {
			_, e.err = e.w.Write(b[:min(len(b), emitBufSize)])
		}
		written.Store(int64(n + 1))
		select {
		case wake <- struct{}{}:
		default:
		}
	}
	next.Store(int64(c)) // after a write error, chunks in hand finish unwritten
	close(wake)
	helpers.Wait()
	e.first = false
	e.chunks += c
	return true
}

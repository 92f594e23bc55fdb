//rd:hotpath
package telemetry

import (
	"io"
	"math"
	"strconv"
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
	// string covers; the deepest document written here nests five.
	emitMaxDepth = 8
)

// emitter writes one indented JSON document into its own buffer and
// flushes the buffer to w as it fills. The first write error sticks;
// later output is discarded and finish reports it.
type emitter struct {
	w     io.Writer
	buf   []byte
	err   error
	nl    string // "\n" then emitMaxDepth indent units
	unit  int    // len of one indent unit
	depth int
	first bool // nothing emitted yet inside the innermost open container
}

func newEmitter(w io.Writer, unit string) *emitter {
	nl := make([]byte, 0, 1+emitMaxDepth*len(unit))
	nl = append(nl, '\n')
	for i := 0; i < emitMaxDepth; i++ {
		nl = append(nl, unit...)
	}
	return &emitter{w: w, buf: make([]byte, 0, emitBufSize), nl: string(nl), unit: len(unit)}
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

// elem positions the next array element: separator, newline, indent.
func (e *emitter) elem() {
	if len(e.buf) >= emitBufSize-emitSlack {
		e.flush()
	}
	if !e.first {
		e.buf = append(e.buf, ',')
	}
	e.first = false
	e.buf = append(e.buf, e.nl[:1+e.depth*e.unit]...)
}

// key positions the next object member and writes its name. Names are
// the struct tags' literals: plain ASCII that needs no escaping.
func (e *emitter) key(k string) {
	e.elem()
	e.buf = append(e.buf, '"')
	e.buf = append(e.buf, k...)
	e.buf = append(e.buf, '"', ':', ' ')
}

func (e *emitter) int(v int64)   { e.buf = strconv.AppendInt(e.buf, v, 10) }
func (e *emitter) uint(v uint64) { e.buf = strconv.AppendUint(e.buf, v, 10) }
func (e *emitter) null()         { e.buf = append(e.buf, "null"...) }

// float writes f by encoding/json's rule: the shortest 'f' form, or
// 'e' outside [1e-6, 1e21) with a two-digit negative exponent trimmed
// to one. Callers only pass finite values (tick quotients).
func (e *emitter) float(f float64) {
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

func (e *emitter) strField(k, v string)       { e.key(k); e.str(v) }
func (e *emitter) intField(k string, v int64) { e.key(k); e.int(v) }

// optStr and optInt are the omitempty members.
func (e *emitter) optStr(k, v string) {
	if v != "" {
		e.strField(k, v)
	}
}

func (e *emitter) optInt(k string, v int64) {
	if v != 0 {
		e.intField(k, v)
	}
}

// --- rdtel/v2 types, members in struct order ---

func (e *emitter) manifest(m *Manifest) {
	e.open('{')
	e.strField("schema", m.Schema)
	e.optStr("build", m.Build)
	e.key("seed")
	e.uint(m.Seed)
	e.optStr("config_digest", m.ConfigDigest)
	e.optInt("horizon_ticks", int64(m.HorizonTicks))
	e.optInt("node", int64(m.Node))
	e.optInt("node_count", int64(m.NodeCount))
	if len(m.Tasks) > 0 {
		e.key("tasks")
		e.open('[')
		for i := range m.Tasks {
			t := &m.Tasks[i]
			e.elem()
			e.open('{')
			e.intField("id", t.ID)
			e.strField("name", t.Name)
			e.optInt("node", int64(t.Node))
			e.close('}')
		}
		e.close(']')
	}
	e.key("metrics")
	e.snapshot(&m.Metrics)
	e.spans(m.Spans)
	e.events(m.Events)
	if len(m.FlightDumps) > 0 {
		e.key("flight_dumps")
		e.open('[')
		for i := range m.FlightDumps {
			e.elem()
			e.flightDump(&m.FlightDumps[i])
		}
		e.close(']')
	}
	e.key("totals")
	e.open('{')
	e.intField("deadline_misses", m.Totals.DeadlineMisses)
	e.intField("violations", m.Totals.Violations)
	e.intField("degradations", m.Totals.Degradations)
	e.intField("faults_injected", m.Totals.FaultsInjected)
	e.optInt("flight_dumps", m.Totals.FlightDumps)
	e.close('}')
	e.close('}')
}

// list opens an array member that is never omitted: a nil slice is
// written as null (and false returned), as encoding/json does.
func (e *emitter) list(k string, isNil bool) bool {
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
	if e.list("counters", s.Counters == nil) {
		for i := range s.Counters {
			c := &s.Counters[i]
			e.elem()
			e.open('{')
			e.strField("name", c.Name)
			e.intField("value", c.Value)
			e.close('}')
		}
		e.close(']')
	}
	if e.list("gauges", s.Gauges == nil) {
		for i := range s.Gauges {
			g := &s.Gauges[i]
			e.elem()
			e.open('{')
			e.strField("name", g.Name)
			e.intField("value", g.Value)
			e.intField("max", g.Max)
			e.close('}')
		}
		e.close(']')
	}
	if e.list("histograms", s.Histograms == nil) {
		for i := range s.Histograms {
			h := &s.Histograms[i]
			e.elem()
			e.open('{')
			e.strField("name", h.Name)
			e.intField("width", h.Width)
			if e.list("counts", h.Counts == nil) {
				for _, n := range h.Counts {
					e.elem()
					e.int(n)
				}
				e.close(']')
			}
			e.intField("sum", h.Sum)
			e.intField("count", h.Count)
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
	e.key("spans")
	e.open('[')
	for i := range spans {
		sp := &spans[i]
		e.elem()
		e.open('{')
		e.intField("id", int64(sp.ID))
		e.optInt("parent", int64(sp.Parent))
		e.strField("cat", sp.Cat)
		e.strField("name", sp.Name)
		e.intField("task", sp.Task)
		e.intField("begin", int64(sp.Begin))
		e.intField("end", int64(sp.End))
		e.optStr("detail", sp.Detail)
		e.optInt("node", int64(sp.Node))
		e.optInt("link", int64(sp.Link))
		e.optInt("link_node", int64(sp.LinkNode))
		e.close('}')
	}
	e.close(']')
}

// events writes the omitempty "events" member of a manifest or dump.
func (e *emitter) events(events []LogEvent) {
	if len(events) == 0 {
		return
	}
	e.key("events")
	e.open('[')
	for i := range events {
		ev := &events[i]
		e.elem()
		e.open('{')
		e.intField("at", int64(ev.At))
		e.strField("kind", ev.Kind)
		e.optStr("detail", ev.Detail)
		e.close('}')
	}
	e.close(']')
}

func (e *emitter) flightDump(d *FlightDump) {
	e.open('{')
	e.optInt("node", int64(d.Node))
	e.strField("reason", d.Reason)
	e.intField("at", int64(d.At))
	e.intField("spans_total", d.SpansTotal)
	e.intField("spans_dropped", d.SpansDropped)
	e.intField("events_total", d.EventsTotal)
	e.intField("events_dropped", d.EventsDropped)
	e.spans(d.Spans)
	e.events(d.Events)
	e.close('}')
}

package telemetry

import (
	"bytes"
	"encoding/json"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/ticks"
)

// ReadManifest's fast path: a single-pass reader for the documents
// WriteJSON writes. The spans and events arrays are ~99 % of a cluster
// manifest's bytes and have eleven and three flat members; decoding
// them by hand instead of by reflection is where the time goes. The
// small members (tasks, metrics, flight_dumps, totals) are located
// here and handed to encoding/json as they stand.
//
// The reader never guesses. It accepts any member order and any JSON
// whitespace, but on anything else encoding/json would treat specially
// — an unknown, repeated or differently-cased key, a null, a number
// that is not a plain in-range integer, "-0", an escape it does not
// decode (bad, or a lone surrogate), invalid UTF-8, a control byte in a
// string, bytes after the document — it gives up, and ReadManifest
// decodes the same bytes with encoding/json. Every value it does
// produce is the one encoding/json produces; FuzzReadManifest holds the
// two to that.

const (
	// internMax bounds the strings worth interning: categories, names,
	// kinds and the stock details ("granted", "rejected: cpu") are
	// short and repeat tens of thousands of times; long details are
	// mostly unique.
	internMax = 32
	// skipMaxDepth bounds the nesting skip walks through. The members
	// it covers nest four deep; refusing more keeps the sub-decode's
	// depth accounting from ever differing from a whole-document one.
	skipMaxDepth = 16
)

type reader struct {
	data    []byte
	pos     int
	intern  map[string]string
	scratch []byte // unescape buffer, reused
}

// readCanonical decodes data into m, or reports false having possibly
// written part of m — the caller starts over with encoding/json.
func readCanonical(data []byte, m *Manifest) bool {
	r := reader{data: data, intern: make(map[string]string, 64)}
	if !r.manifest(m) {
		return false
	}
	r.ws()
	return r.pos == len(r.data)
}

func (r *reader) ws() {
	for r.pos < len(r.data) {
		switch r.data[r.pos] {
		case ' ', '\n', '\t', '\r':
			r.pos++
		default:
			return
		}
	}
}

func (r *reader) peek() byte {
	if r.pos < len(r.data) {
		return r.data[r.pos]
	}
	return 0
}

func (r *reader) eat(c byte) bool {
	if r.peek() == c {
		r.pos++
		return true
	}
	return false
}

// step enters a container (first: consume its opening bracket) or
// moves past the ',' to its next element. more=false means the closing
// bracket was consumed instead.
func (r *reader) step(first bool, open, close byte) (more, ok bool) {
	r.ws()
	if first {
		if !r.eat(open) {
			return false, false
		}
		r.ws()
		return !r.eat(close), true
	}
	if r.eat(close) {
		return false, true
	}
	if !r.eat(',') {
		return false, false
	}
	r.ws()
	return true, true
}

// nextKey steps to an object's next member and returns its key, with
// the cursor on the value. Keys are matched verbatim: lower-case
// letters and '_' only, no escapes.
func (r *reader) nextKey(first bool) (key []byte, more, ok bool) {
	if more, ok = r.step(first, '{', '}'); !ok || !more {
		return nil, false, ok
	}
	if !r.eat('"') {
		return nil, false, false
	}
	start := r.pos
	for c := r.peek(); c >= 'a' && c <= 'z' || c == '_'; c = r.peek() {
		r.pos++
	}
	key = r.data[start:r.pos]
	if !r.eat('"') {
		return nil, false, false
	}
	r.ws()
	if !r.eat(':') {
		return nil, false, false
	}
	r.ws()
	return key, true, true
}

// digits reads 0 or a run of digits with no leading zero.
func (r *reader) digits() (u uint64, ok bool) {
	c := r.peek()
	if c < '0' || c > '9' {
		return 0, false
	}
	r.pos++
	if c == '0' {
		return 0, true
	}
	u = uint64(c - '0')
	for c = r.peek(); c >= '0' && c <= '9'; c = r.peek() {
		d := uint64(c - '0')
		if u > (1<<64-1-d)/10 {
			return 0, false
		}
		u = u*10 + d
		r.pos++
	}
	return u, true
}

// int reads an integer that fits a signed type of the given width. A
// fraction or exponent is left unread, which the next step rejects.
func (r *reader) int(bits uint) (int64, bool) {
	neg := r.eat('-')
	u, ok := r.digits()
	limit := uint64(1) << (bits - 1)
	switch {
	case !ok, neg && u == 0, neg && u > limit, !neg && u >= limit:
		return 0, false
	case neg:
		return -int64(u), true
	}
	return int64(u), true
}

// str reads a string value, interning it when short.
func (r *reader) str() (string, bool) {
	b, ok := r.strBytes()
	if !ok {
		return "", false
	}
	if len(b) > internMax {
		return string(b), true
	}
	s, ok := r.intern[string(b)]
	if !ok {
		s = string(b)
		r.intern[s] = s
	}
	return s, true
}

// strBytes reads a string value and returns its decoded bytes: a slice
// of the input when it has no escapes, else of r.scratch.
func (r *reader) strBytes() ([]byte, bool) {
	if !r.eat('"') {
		return nil, false
	}
	start := r.pos
	for r.pos < len(r.data) {
		c := r.data[r.pos]
		switch {
		case c == '"':
			r.pos++
			return r.data[start : r.pos-1], true
		case c == '\\':
			return r.unescape(start)
		case c < ' ':
			return nil, false
		case c < utf8.RuneSelf:
			r.pos++
		default:
			_, size := utf8.DecodeRune(r.data[r.pos:])
			if size == 1 {
				return nil, false
			}
			r.pos += size
		}
	}
	return nil, false
}

// unescape finishes strBytes for a string whose first backslash is at
// the cursor; data[start:pos] is the clean prefix.
func (r *reader) unescape(start int) ([]byte, bool) {
	out := append(r.scratch[:0], r.data[start:r.pos]...)
	for r.pos < len(r.data) {
		c := r.data[r.pos]
		switch {
		case c == '"':
			r.pos++
			r.scratch = out
			return out, true
		case c < ' ':
			return nil, false
		case c < utf8.RuneSelf && c != '\\':
			out = append(out, c)
			r.pos++
		case c != '\\':
			_, size := utf8.DecodeRune(r.data[r.pos:])
			if size == 1 {
				return nil, false
			}
			out = append(out, r.data[r.pos:r.pos+size]...)
			r.pos += size
		default:
			if r.pos+1 >= len(r.data) {
				return nil, false
			}
			r.pos += 2
			switch esc := r.data[r.pos-1]; esc {
			case '"', '\\', '/':
				out = append(out, esc)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				c, ok := r.hex4()
				if !ok {
					return nil, false
				}
				if utf16.IsSurrogate(c) {
					// Decode a well-formed pair; defer on a lone half
					// (encoding/json substitutes U+FFFD there).
					if !r.eat('\\') || !r.eat('u') {
						return nil, false
					}
					lo, ok := r.hex4()
					if c = utf16.DecodeRune(c, lo); !ok || c == utf8.RuneError {
						return nil, false
					}
				}
				out = utf8.AppendRune(out, c)
			default:
				return nil, false
			}
		}
	}
	return nil, false
}

// hex4 reads the four hex digits of a \u escape.
func (r *reader) hex4() (rune, bool) {
	if r.pos+4 > len(r.data) {
		return 0, false
	}
	v, err := strconv.ParseUint(string(r.data[r.pos:r.pos+4]), 16, 16)
	if err != nil {
		return 0, false
	}
	r.pos += 4
	return rune(v), true
}

// viaJSON finds the extent of the object or array at the cursor and
// decodes it with encoding/json, which also does all the checking:
// json.Unmarshal accepts the slice only if it is exactly one valid
// value, and then that is the value a whole-document decode reaches.
func (r *reader) viaJSON(open byte, into any) bool {
	if r.peek() != open {
		return false
	}
	start, depth := r.pos, 0
	for r.pos < len(r.data) {
		c := r.data[r.pos]
		r.pos++
		switch c {
		case '"':
			for r.pos < len(r.data) && r.data[r.pos] != '"' {
				if r.data[r.pos] == '\\' {
					r.pos++
				}
				r.pos++
			}
			r.pos++
		case '{', '[':
			if depth++; depth > skipMaxDepth {
				return false
			}
		case '}', ']':
			if depth--; depth == 0 {
				return json.Unmarshal(r.data[start:r.pos], into) == nil
			}
		}
	}
	return false
}

func (r *reader) manifest(m *Manifest) bool {
	var seen, bit uint
	for first := true; ; first = false {
		key, more, ok := r.nextKey(first)
		if !ok || !more {
			return ok
		}
		var v int64
		switch string(key) {
		case "schema":
			m.Schema, ok = r.str()
			bit = 1 << 0
		case "build":
			m.Build, ok = r.str()
			bit = 1 << 1
		case "seed":
			m.Seed, ok = r.digits()
			bit = 1 << 2
		case "config_digest":
			m.ConfigDigest, ok = r.str()
			bit = 1 << 3
		case "horizon_ticks":
			v, ok = r.int(64)
			m.HorizonTicks = ticks.Ticks(v)
			bit = 1 << 4
		case "node":
			v, ok = r.int(32)
			m.Node = int32(v)
			bit = 1 << 5
		case "node_count":
			v, ok = r.int(strconv.IntSize)
			m.NodeCount = int(v)
			bit = 1 << 6
		case "tasks":
			ok = r.viaJSON('[', &m.Tasks)
			bit = 1 << 7
		case "metrics":
			ok = r.viaJSON('{', &m.Metrics)
			bit = 1 << 8
		case "spans":
			m.Spans, ok = r.spans()
			bit = 1 << 9
		case "events":
			m.Events, ok = r.events()
			bit = 1 << 10
		case "flight_dumps":
			ok = r.viaJSON('[', &m.FlightDumps)
			bit = 1 << 11
		case "totals":
			ok = r.viaJSON('{', &m.Totals)
			bit = 1 << 12
		default:
			return false
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
	}
}

func (r *reader) spans() ([]Span, bool) {
	spans := []Span{}
	for first := true; ; first = false {
		more, ok := r.step(first, '[', ']')
		if !ok {
			return nil, false
		}
		if !more {
			return spans, true
		}
		if first {
			// Sized once: every span opens with a '{', so the braces left
			// in the input bound the count, and in a cluster log nearly all
			// of them are spans. Growing instead copies tens of thousands
			// of 96-byte spans per step.
			spans = make([]Span, 0, bytes.Count(r.data[r.pos:], []byte{'{'}))
		}
		spans = append(spans, Span{})
		if !r.span(&spans[len(spans)-1]) {
			return nil, false
		}
	}
}

func (r *reader) span(sp *Span) bool {
	var seen, bit uint
	for first := true; ; first = false {
		key, more, ok := r.nextKey(first)
		if !ok || !more {
			return ok
		}
		var v int64
		switch string(key) {
		case "id":
			v, ok = r.int(32)
			sp.ID = SpanID(v)
			bit = 1 << 0
		case "parent":
			v, ok = r.int(32)
			sp.Parent = SpanID(v)
			bit = 1 << 1
		case "cat":
			sp.Cat, ok = r.str()
			bit = 1 << 2
		case "name":
			sp.Name, ok = r.str()
			bit = 1 << 3
		case "task":
			sp.Task, ok = r.int(64)
			bit = 1 << 4
		case "begin":
			v, ok = r.int(64)
			sp.Begin = ticks.Ticks(v)
			bit = 1 << 5
		case "end":
			v, ok = r.int(64)
			sp.End = ticks.Ticks(v)
			bit = 1 << 6
		case "detail":
			sp.Detail, ok = r.str()
			bit = 1 << 7
		case "node":
			v, ok = r.int(32)
			sp.Node = int32(v)
			bit = 1 << 8
		case "link":
			v, ok = r.int(32)
			sp.Link = SpanID(v)
			bit = 1 << 9
		case "link_node":
			v, ok = r.int(32)
			sp.LinkNode = int32(v)
			bit = 1 << 10
		default:
			return false
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
	}
}

func (r *reader) events() ([]LogEvent, bool) {
	events := []LogEvent{}
	for first := true; ; first = false {
		more, ok := r.step(first, '[', ']')
		if !ok {
			return nil, false
		}
		if !more {
			return events, true
		}
		events = append(events, LogEvent{})
		if !r.event(&events[len(events)-1]) {
			return nil, false
		}
	}
}

func (r *reader) event(ev *LogEvent) bool {
	var seen, bit uint
	for first := true; ; first = false {
		key, more, ok := r.nextKey(first)
		if !ok || !more {
			return ok
		}
		var v int64
		switch string(key) {
		case "at":
			v, ok = r.int(64)
			ev.At = ticks.Ticks(v)
			bit = 1 << 0
		case "kind":
			ev.Kind, ok = r.str()
			bit = 1 << 1
		case "detail":
			ev.Detail, ok = r.str()
			bit = 1 << 2
		default:
			return false
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
	}
}

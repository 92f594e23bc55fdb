package telemetry

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/ticks"
)

// ReadManifest's fast path: a single-pass reader for exactly the bytes
// WriteJSON writes. The spans and events arrays are ~99 % of a cluster
// manifest's bytes and have eleven and three flat members; decoding
// them by hand instead of by reflection is where the time goes. The
// small members (tasks, metrics, flight_dumps, totals) are located
// here and handed to encoding/json as they stand.
//
// The reader takes the writer's layout and nothing else: its members in
// their order, each recognised by comparing the input with the literal
// emit.go opens it with, its line breaks and indents, and its escape
// set. On anything else — other whitespace or member order, an unknown,
// repeated or differently-cased key, a null, a number that is not a
// plain in-range integer, "-0", an escape the writer does not write,
// invalid UTF-8, a control byte in a string, bytes after the document —
// it gives up, and ReadManifest decodes the same bytes with
// encoding/json. Every value it does produce is the one encoding/json
// produces; FuzzReadManifest holds the two to that.

const (
	// internMax bounds the strings worth interning: categories, names,
	// kinds and the stock details ("granted", "rejected: cpu") are
	// short and repeat tens of thousands of times; long details are
	// mostly unique.
	internMax = 32
	// skipMaxDepth bounds the nesting viaJSON walks through. The members
	// it covers nest four deep; refusing more keeps the sub-decode's
	// depth accounting from ever differing from a whole-document one.
	skipMaxDepth = 16
)

// The layout around the members: a span or event opens and closes on
// lines of its own at depth 2, its list closes at depth 1, and the
// document ends with the line break Encoder.Encode writes.
var (
	elemOpen  = "\n" + strings.Repeat(manifestUnit, 2) + "{"
	elemClose = "\n" + strings.Repeat(manifestUnit, 2) + "}"
	listClose = "\n" + manifestUnit + "]"
)

// reader is the fast path's cursor. The first mismatch sets bad, which
// sticks: later steps may read anything, and the caller discards it.
type reader struct {
	data    []byte
	pos     int
	bad     bool
	intern  map[string]string
	scratch []byte // unescape buffer, reused
}

// readCanonical decodes data into m, or reports false having possibly
// written part of m — the caller starts over with encoding/json.
func readCanonical(data []byte, m *Manifest) bool {
	r := reader{data: data, intern: make(map[string]string, 64)}
	r.manifest(m)
	return !r.bad && r.pos == len(r.data)
}

// lit consumes s if the input continues with it.
func (r *reader) lit(s string) bool {
	if len(r.data)-r.pos >= len(s) && string(r.data[r.pos:r.pos+len(s)]) == s {
		r.pos += len(s)
		return true
	}
	return false
}

// expect is lit for what must come next.
func (r *reader) expect(s string) {
	if !r.lit(s) {
		r.bad = true
	}
}

// next consumes ',' and then the literal that opens a member, if the
// input continues with them: an omitempty member the writer wrote.
func (r *reader) next(lit string) bool {
	if r.pos < len(r.data) && r.data[r.pos] == ',' {
		r.pos++
		if r.lit(lit) {
			return true
		}
		r.pos--
	}
	return false
}

// need is next for a member the writer always writes.
func (r *reader) need(lit string) {
	if !r.next(lit) {
		r.bad = true
	}
}

// digits reads 0 or a run of digits with no leading zero. Nineteen
// digits cannot overflow a uint64; only a longer run, which no tick
// count reaches but a seed may, is parsed again with its overflow
// check.
func (r *reader) digits() uint64 {
	d, start := r.data, r.pos
	var u uint64
	for r.pos < len(d) && d[r.pos]-'0' < 10 {
		u = u*10 + uint64(d[r.pos]-'0')
		r.pos++
	}
	switch n := r.pos - start; {
	case n == 0, n > 1 && d[start] == '0':
		r.bad = true
	case n > 19:
		var err error
		u, err = strconv.ParseUint(string(d[start:r.pos]), 10, 64)
		r.bad = r.bad || err != nil
	}
	return u
}

// int reads an integer that fits a signed type of the given width.
func (r *reader) int(bits uint) int64 {
	neg := r.lit("-")
	u := r.digits()
	limit := uint64(1) << (bits - 1)
	switch {
	case neg && (u == 0 || u > limit), !neg && u >= limit:
		r.bad = true
		return 0
	case neg:
		return -int64(u)
	}
	return int64(u)
}

// str reads a string value, interning it when short.
func (r *reader) str() string {
	b := r.strBytes()
	if len(b) > internMax {
		return string(b)
	}
	s, ok := r.intern[string(b)]
	if !ok {
		s = string(b)
		r.intern[s] = s
	}
	return s
}

// strBytes reads a string value and returns its decoded bytes: a slice
// of the input when it has no escapes, else of r.scratch.
func (r *reader) strBytes() []byte {
	r.expect(`"`)
	start := r.pos
	for r.pos < len(r.data) {
		c := r.data[r.pos]
		switch {
		case c < utf8.RuneSelf && jsonSafe[c]:
			r.pos++
		case c == '"':
			r.pos++
			return r.data[start : r.pos-1]
		case c == '\\':
			return r.unescape(start)
		default:
			if !r.char() {
				return nil
			}
		}
	}
	r.bad = true
	return nil
}

// char steps over one unescaped string character that is not plain
// ASCII: the characters the writer escapes, or a multi-byte UTF-8
// sequence, which must be valid.
func (r *reader) char() bool {
	c := r.data[r.pos]
	size := 1
	switch {
	case c < ' ':
		r.bad = true
	case c >= utf8.RuneSelf:
		if _, size = utf8.DecodeRune(r.data[r.pos:]); size == 1 {
			r.bad = true
		}
	}
	r.pos += size
	return !r.bad
}

// unescape finishes strBytes for a string whose first backslash is at
// the cursor; data[start:pos] is the clean prefix. It decodes the
// escapes the writer writes — \" \\ \b \f \n \r \t and \u with four
// lower-case hex digits — and refuses the rest, \u surrogates included.
func (r *reader) unescape(start int) []byte {
	out := append(r.scratch[:0], r.data[start:r.pos]...)
	for r.pos < len(r.data) && !r.bad {
		c := r.data[r.pos]
		switch {
		case c == '"':
			r.pos++
			r.scratch = out
			return out
		case c != '\\':
			from := r.pos
			if r.char() {
				out = append(out, r.data[from:r.pos]...)
			}
		case r.pos+1 < len(r.data):
			r.pos += 2
			switch esc := r.data[r.pos-1]; esc {
			case '"', '\\':
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
				out = utf8.AppendRune(out, r.hex4())
			default:
				r.bad = true
			}
		default:
			r.bad = true
		}
	}
	r.bad = true
	return nil
}

// hex4 reads the four hex digits of a \u escape that is not half of a
// surrogate pair.
func (r *reader) hex4() rune {
	if len(r.data)-r.pos < 4 {
		r.bad = true
		return 0
	}
	var v rune
	for _, c := range r.data[r.pos : r.pos+4] {
		i := strings.IndexByte(hexDigits, c)
		if i < 0 {
			r.bad = true
		}
		v = v<<4 | rune(i)
	}
	r.pos += 4
	if 0xd800 <= v && v < 0xe000 {
		r.bad = true
	}
	return v
}

// viaJSON finds the extent of the object or array at the cursor and
// decodes it with encoding/json, which also does all the checking:
// json.Unmarshal accepts the slice only if it is exactly one valid
// value, and then that is the value a whole-document decode reaches.
func (r *reader) viaJSON(open byte, into any) {
	if r.bad || r.pos >= len(r.data) || r.data[r.pos] != open {
		r.bad = true
		return
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
				r.bad = true
				return
			}
		case '}', ']':
			if depth--; depth == 0 {
				r.bad = r.bad || json.Unmarshal(r.data[start:r.pos], into) != nil
				return
			}
		}
	}
	r.bad = true
}

func (r *reader) manifest(m *Manifest) {
	const d = 1
	r.expect("{")
	r.expect(kSchema[d])
	m.Schema = r.str()
	if r.next(kBuild[d]) {
		m.Build = r.str()
	}
	r.need(kSeed[d])
	m.Seed = r.digits()
	if r.next(kConfigDigest[d]) {
		m.ConfigDigest = r.str()
	}
	if r.next(kHorizonTicks[d]) {
		m.HorizonTicks = ticks.Ticks(r.int(64))
	}
	if r.next(kNode[d]) {
		m.Node = int32(r.int(32))
	}
	if r.next(kNodeCount[d]) {
		m.NodeCount = int(r.int(strconv.IntSize))
	}
	if r.next(kTasks[d]) {
		r.viaJSON('[', &m.Tasks)
	}
	r.need(kMetrics[d])
	r.viaJSON('{', &m.Metrics)
	if r.next(kSpans[d]) {
		m.Spans = list(r, (*reader).span)
	}
	if r.next(kEvents[d]) {
		m.Events = list(r, (*reader).event)
	}
	if r.next(kFlightDumps[d]) {
		r.viaJSON('[', &m.FlightDumps)
	}
	r.need(kTotals[d])
	r.viaJSON('{', &m.Totals)
	r.expect("\n}\n")
}

// list reads the spans or events of a manifest: a non-empty array of
// objects, each read by elem.
func list[T any](r *reader, elem func(*reader, *T)) []T {
	r.expect("[")
	// Sized once: every element opens with a '{', so the braces left in
	// the input bound the count, and in a cluster log nearly all of them
	// are spans. Growing instead copies tens of thousands of 96-byte
	// spans per step.
	out := make([]T, 0, bytes.Count(r.data[r.pos:], []byte{'{'}))
	for !r.bad {
		var zero T
		out = append(out, zero)
		r.expect(elemOpen)
		elem(r, &out[len(out)-1])
		r.expect(elemClose)
		if !r.lit(",") {
			break
		}
	}
	r.expect(listClose)
	return out
}

func (r *reader) span(sp *Span) {
	const d = 3
	r.expect(kID[d])
	sp.ID = SpanID(r.int(32))
	if r.next(kParent[d]) {
		sp.Parent = SpanID(r.int(32))
	}
	r.need(kCat[d])
	sp.Cat = r.str()
	r.need(kName[d])
	sp.Name = r.str()
	r.need(kTask[d])
	sp.Task = r.int(64)
	r.need(kBegin[d])
	sp.Begin = ticks.Ticks(r.int(64))
	r.need(kEnd[d])
	sp.End = ticks.Ticks(r.int(64))
	if r.next(kDetail[d]) {
		sp.Detail = r.str()
	}
	if r.next(kNode[d]) {
		sp.Node = int32(r.int(32))
	}
	if r.next(kLink[d]) {
		sp.Link = SpanID(r.int(32))
	}
	if r.next(kLinkNode[d]) {
		sp.LinkNode = int32(r.int(32))
	}
}

func (r *reader) event(ev *LogEvent) {
	const d = 3
	r.expect(kAt[d])
	ev.At = ticks.Ticks(r.int(64))
	r.need(kKind[d])
	ev.Kind = r.str()
	if r.next(kDetail[d]) {
		ev.Detail = r.str()
	}
}

package telemetry

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"sync"
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
	shared  *sharedIntern // where a split read's parts take new strings
	scratch []byte        // unescape buffer, reused

	// parts and minSpans are spanList's plan: the most parts to read
	// the spans in (1: never split), and the fewest '{' bytes a list
	// needs to be split. split counts the parts it read.
	parts, minSpans, split int
}

// readCanonical decodes data into m, or reports false having possibly
// written part of m — the caller starts over with encoding/json. It
// also returns how many parts the span list was read in (0: one pass).
func readCanonical(data []byte, m *Manifest, parts, minSpans int) (int, bool) {
	r := reader{data: data, intern: make(map[string]string, 64), parts: parts, minSpans: minSpans}
	r.manifest(m)
	return r.split, !r.bad && r.pos == len(r.data)
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
		s = r.shared.get(b)
		r.intern[s] = s
	}
	return s
}

// sharedIntern is the map the parts of a split read take a string from
// when their own map has none, so that they hold one copy between them
// as one pass does.
type sharedIntern struct {
	mu sync.Mutex
	m  map[string]string
}

// get returns b as a string: t's copy, made if there is none yet; a
// new one when there is no t.
func (t *sharedIntern) get(b []byte) string {
	if t == nil {
		return string(b)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.m[string(b)]
	if !ok {
		s = string(b)
		t.m[s] = s
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
		m.Spans = r.spanList()
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
	out := elems(r, make([]T, 0, bytes.Count(r.data[r.pos:], []byte{'{'})), elem)
	r.expect(listClose)
	return out
}

// elems appends the elements of a list read by elem to out, up to the
// first one no comma follows.
func elems[T any](r *reader, out []T, elem func(*reader, *T)) []T {
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

// elemBoundary precedes the '{' of every span but the first. A raw
// line break is never inside a string the fast path takes, so in the
// span list these bytes can only be layout.
var elemBoundary = []byte("," + elemOpen[:len(elemOpen)-1])

// spanList is list for the spans, split when the plan has two or more
// parts and the list holds minSpans '{'. The list is cut at the commas
// before up to parts−1 element boundaries, evenly by bytes; each part
// reads with elems and a cursor of its own, which must end at the
// part's end, into a window of one slice as long as its part's '{'
// count. A '{' inside a string leaves a window short, and the windows
// are then moved together. If a part refuses, the reader refuses.
func (r *reader) spanList() []Span {
	cuts, offs := r.cutSpans()
	if cuts == nil {
		return list(r, (*reader).span)
	}
	parts := len(cuts) - 1
	out, got := make([]Span, offs[parts]), make([]int, parts)
	shared := &sharedIntern{m: r.intern}
	part := func(k int) int { // the spans read, or -1
		p := reader{data: r.data[:cuts[k+1]], pos: cuts[k] + 1, intern: make(map[string]string, 64), shared: shared}
		if n := len(elems(&p, out[offs[k]:offs[k]:offs[k+1]], (*reader).span)); !p.bad && p.pos == cuts[k+1] {
			return n
		}
		return -1
	}
	var wg sync.WaitGroup
	wg.Add(parts - 1)
	for k := 1; k < parts; k++ {
		go func() {
			defer wg.Done()
			got[k] = part(k)
		}()
	}
	got[0] = part(0)
	wg.Wait()
	n := 0
	for k, g := range got {
		if g < 0 {
			r.bad = true
			return nil
		}
		if n != offs[k] {
			copy(out[n:], out[offs[k]:offs[k]+g])
		}
		n += g
	}
	r.split, r.pos = parts, cuts[parts]
	r.expect(listClose)
	return out[:n]
}

// cutSpans plans spanList's parts: cuts from the list's '[' through its
// commas to its closing line, and offs, the running '{' counts. It
// returns nil for a list to read in one pass.
func (r *reader) cutSpans() (cuts, offs []int) {
	d, start := r.data, r.pos
	if r.parts < 2 || start >= len(d) || d[start] != '[' {
		return nil, nil
	}
	// The list ends at the first ']' that follows a line break and one
	// indent: a span holds no array, and a string no raw line break.
	end := start + 1
	for !bytes.HasSuffix(d[:end], []byte(listClose)) {
		i := bytes.IndexByte(d[end:], ']')
		if i < 0 {
			return nil, nil
		}
		end += i + 1
	}
	end -= len(listClose)
	// Enough '{' to split? Counted a block at a time, so a long list
	// costs a few blocks and a short one allocates nothing.
	n := 0
	for i := start; i < end && n < r.minSpans; i += emitBufSize {
		n += bytes.Count(d[i:min(i+emitBufSize, end)], []byte{'{'})
	}
	if n < r.minSpans {
		return nil, nil
	}
	cuts = append(make([]int, 0, r.parts+1), start)
	for k := 1; k < r.parts; k++ {
		at := max(start+k*(end-start)/r.parts, cuts[len(cuts)-1]+len(elemBoundary)+1)
		for at < end && (d[at] != '{' || !bytes.HasSuffix(d[:at], elemBoundary)) {
			if i := bytes.IndexByte(d[at+1:end], '{'); i >= 0 {
				at += i + 1
			} else {
				at = end
			}
		}
		if at < end {
			cuts = append(cuts, at-len(elemBoundary))
		}
	}
	cuts = append(cuts, end)
	offs = make([]int, len(cuts))
	for k := 1; k < len(cuts); k++ {
		offs[k] = offs[k-1] + bytes.Count(d[cuts[k-1]:cuts[k]], []byte{'{'})
	}
	if len(cuts) < 3 {
		return nil, nil
	}
	return cuts, offs
}

// ValidatePerfetto's fast path reads exactly what WritePerfetto writes,
// with the manifest reader's cursor and member literals, and says yes
// only to its layout, member order and escapes, plain non-negative ts
// and dur, known phases, b/e and s/t/f paired per (cat, id) and closed.
var (
	pListOpen, pListEnd = "{" + pTraceEvents[1] + "[", "\n ]," + pDisplayTimeUnit[1]
	pEventOpen          = "\n  {" + pName[3] // an event at depth 2, up to its name's value
)

func perfettoCanonical(data []byte) bool {
	const d = 3
	r := reader{data: data, intern: make(map[string]string, 16)}
	async, flows := map[pairKey]int{}, map[pairKey]int{}
	r.expect(pListOpen)
	for more := true; more && !r.bad; more = r.lit(",") {
		var key pairKey
		r.expect(pEventOpen)
		r.strBytes()
		if r.next(pCat[d]) {
			key.cat = r.str()
		}
		r.need(pPh[d])
		ph := string(r.strBytes()) // one byte: no allocation
		r.need(pTs[d])
		r.decimal()
		if r.next(pDur[d]) {
			r.decimal()
		}
		r.need(pPid[d])
		r.int(strconv.IntSize)
		r.need(pTid[d])
		r.int(64)
		if r.next(pID[d]) {
			key.id = r.int(64)
		}
		if r.next(pS[d]) {
			r.strBytes()
		}
		if r.next(pBp[d]) {
			r.strBytes()
		}
		if r.next(pArgs[d]) {
			r.args()
		}
		r.expect("\n  }")
		pairs := async // a table drops a key whose count returns to zero
		if ph == "s" || ph == "t" || ph == "f" {
			pairs = flows
		}
		switch n := pairs[key]; ph {
		case "M", "X", "i", "C":
		case "b", "s":
			pairs[key] = n + 1
		case "t":
			r.bad = r.bad || n == 0
		case "e", "f":
			r.bad = r.bad || n == 0
			if pairs[key] = n - 1; n <= 1 {
				delete(pairs, key)
			}
		default:
			r.bad = true
		}
	}
	r.expect(pListEnd)
	r.strBytes()
	r.expect("\n}\n")
	return !r.bad && r.pos == len(data) && len(async) == 0 && len(flows) == 0
}

// args reads one or more of the writer's args, in a map's key order.
func (r *reader) args() {
	r.expect("{")
	first := true // no comma before the first member
	for _, k := range [...]*member{pDetail, pLink, pName, pParent, pValue} {
		if first && r.lit(k[4]) || !first && r.next(k[4]) {
			first = false
			if k == pDetail || k == pName {
				r.strBytes()
			} else {
				r.int(64)
			}
		}
	}
	r.expect("\n   }")
}

// decimal reads digits and an optional fraction: no sign, no exponent.
func (r *reader) decimal() {
	r.digits()
	if start := r.pos + 1; r.lit(".") {
		for r.pos < len(r.data) && r.data[r.pos]-'0' < 10 {
			r.pos++
		}
		r.bad = r.bad || r.pos == start
	}
}

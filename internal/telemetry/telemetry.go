// Package telemetry is the simulator's deterministic observability
// layer (docs/OBSERVABILITY.md): a registry of named counters, gauges,
// and fixed-bucket histograms that every subsystem pre-registers into
// at setup, plus decision spans (spans.go) and per-run manifests
// (manifest.go, perfetto.go).
//
// The design contract has three parts:
//
//   - Virtual-time native. Nothing in this package reads the host
//     clock or draws randomness; every timestamp is a ticks.Ticks
//     value handed in by the instrumented code. Telemetry being on or
//     off therefore cannot change what a run does — only what it
//     records — and same-seed runs snapshot byte-identically.
//
//   - Zero allocation on the hot path. Instruments are looked up by
//     name once, at wiring time (Registry.Counter and friends are the
//     cold API; the hotalloc analyzer flags them inside //rd:hotpath
//     files). The handles they return do one nil check plus an integer
//     update per operation, and every handle method is safe on a nil
//     receiver, so disabled telemetry is a nil check and nothing else.
//
//   - Worker-count-invariant aggregation. Snapshots merge like
//     metrics.Summary: the sweep engine merges per-run snapshots in
//     fixed spec order, so rdsweep -workers N emits byte-identical
//     JSON for every N.
//
// Instrument names are dotted lowercase paths, subsystem first:
// "sched.dispatch.granted", "rm.admit.rejected", "sim.switch.cost".
package telemetry

import (
	"math"
	"slices"
	"strings"
)

// Counter is a monotonically increasing int64 instrument. The nil
// Counter is a valid no-op, so hot paths increment unconditionally.
type Counter struct {
	name string
	v    int64
	gen  uint64 // the Registry generation it last registered in
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v++
}

// Add adds n (n may be any sign; counters in this simulator only ever
// grow, but clamping here would hide the bug).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v += n
}

// Value reports the current count; zero on a nil Counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a last-value instrument with a high-water mark. The nil
// Gauge is a valid no-op.
type Gauge struct {
	name string
	v    int64
	max  int64
	gen  uint64
}

// Set records the current value and updates the high-water mark.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v = v
	if v > g.max {
		g.max = v
	}
}

// Value reports the last value set; zero on a nil Gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Max reports the high-water mark; zero on a nil Gauge.
func (g *Gauge) Max() int64 {
	if g == nil {
		return 0
	}
	return g.max
}

// Histogram is a fixed-geometry bucket instrument: bins buckets of
// equal width starting at zero, plus an implicit overflow bucket.
// Geometry is fixed at registration so same-named histograms from
// different runs merge bucket-by-bucket. The nil Histogram is a valid
// no-op.
type Histogram struct {
	name   string
	width  int64
	counts []int64 // len = bins+1; the last bucket is overflow
	sum    int64
	n      int64
	gen    uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0 // negative samples land in the first bucket
	if uint64(v|h.width) <= math.MaxUint32 {
		// Both non-negative and 32-bit — every tick slice and switch
		// cost is: the 32-bit divide is several times cheaper.
		i = int(uint32(v) / uint32(h.width))
	} else if v > 0 {
		i = int(v / h.width)
	}
	if i >= len(h.counts) {
		i = len(h.counts) - 1
	}
	h.counts[i]++
	h.sum += v
	h.n++
}

// Count reports the number of samples; zero on a nil Histogram.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n
}

// Sum reports the sum of all samples; zero on a nil Histogram.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Registry holds a run's instruments, name-sorted. The zero value is
// an empty registry. A nil Registry is a valid source of nil
// instruments, so wiring code registers unconditionally and the nil
// handles make disabled telemetry free.
//
// A registry outlives its run: Reset starts the next one, retiring
// every instrument but keeping its storage. Only instruments
// registered since the last Reset are live; a run that asks for a
// retired name gets the old instrument back, zeroed. A registry
// belongs to one goroutine, and the handles of a run that is over must
// not be used again.
//
// All Registry methods are cold-path: they look instruments up by
// string. The hotalloc analyzer rejects them in //rd:hotpath files —
// pre-register at setup and keep the returned handles.
type Registry struct {
	gen      uint64
	counters []*Counter
	gauges   []*Gauge
	hists    []*Histogram
	// Live instruments of each kind, and the live histograms' buckets:
	// what a Snapshot will hold.
	nc, ng, nh, nb int
	// Where new instruments and bucket arrays come from.
	cs chunks[Counter]
	gs chunks[Gauge]
	hs chunks[Histogram]
	bs chunks[int64]
}

// chunks hands out values from blocks that never move, so a handle
// stays put while its registry grows: the first block holds 4 values,
// each next one twice the last, and a block too small for the request
// that opens it holds two such requests.
type chunks[T any] struct {
	free []T // the newest block's unused tail
	next int // the next block's size
}

// insert puts a new value from c into list at i. A full list grows by
// what c's block has left, so it grows as often as c opens a block.
func insert[T any](list []*T, i int, c *chunks[T]) []*T {
	v := &c.take(1)[0]
	if len(list) == cap(list) {
		list = slices.Grow(list, len(c.free)+1)
	}
	return slices.Insert(list, i, v)
}

// take returns n zeroed, adjacent values.
func (c *chunks[T]) take(n int) []T {
	if len(c.free) < n {
		size := max(c.next, 4)
		if size < n {
			size = 2 * n
		}
		c.free, c.next = make([]T, size), 2*size
	}
	s := c.free[:n:n]
	c.free = c.free[n:]
	return s
}

func byCounterName(c *Counter, name string) int     { return strings.Compare(c.name, name) }
func byGaugeName(g *Gauge, name string) int         { return strings.Compare(g.name, name) }
func byHistogramName(h *Histogram, name string) int { return strings.Compare(h.name, name) }

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return new(Registry) }

// Reset retires every instrument: the next run registers, and
// snapshots, only its own.
func (r *Registry) Reset() {
	r.gen++
	r.nc, r.ng, r.nh, r.nb = 0, 0, 0, 0
}

// Counter returns the named counter, creating it on first use.
// Returns nil (a valid no-op handle) on a nil Registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	i, ok := slices.BinarySearchFunc(r.counters, name, byCounterName)
	if !ok {
		r.counters = insert(r.counters, i, &r.cs)
	}
	c := r.counters[i]
	if !ok || c.gen != r.gen {
		*c = Counter{name: name, gen: r.gen}
		r.nc++
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns
// nil (a valid no-op handle) on a nil Registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	i, ok := slices.BinarySearchFunc(r.gauges, name, byGaugeName)
	if !ok {
		r.gauges = insert(r.gauges, i, &r.gs)
	}
	g := r.gauges[i]
	if !ok || g.gen != r.gen {
		*g = Gauge{name: name, gen: r.gen}
		r.ng++
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// geometry on first use. Width must be positive and bins at least one;
// re-registration with a different geometry panics — the name is the
// contract that makes cross-run merges well-defined — unless the
// histogram is a retired one, which takes the new run's geometry.
// Returns nil (a valid no-op handle) on a nil Registry.
func (r *Registry) Histogram(name string, width int64, bins int) *Histogram {
	if r == nil {
		return nil
	}
	if width <= 0 || bins < 1 {
		panic("telemetry: Histogram needs width > 0 and bins >= 1")
	}
	i, ok := slices.BinarySearchFunc(r.hists, name, byHistogramName)
	if !ok {
		r.hists = insert(r.hists, i, &r.hs)
	}
	h := r.hists[i]
	switch {
	case !ok || h.gen != r.gen:
		counts := h.counts
		if len(counts) != bins+1 {
			counts = r.bs.take(bins + 1)
		}
		clear(counts)
		*h = Histogram{name: name, width: width, counts: counts, gen: r.gen}
		r.nh, r.nb = r.nh+1, r.nb+bins+1
	case h.width != width || len(h.counts) != bins+1:
		panic("telemetry: histogram " + name + " re-registered with different geometry")
	}
	return h
}

// Lookup finds an already-registered counter by name without creating
// it. It exists for tests and exporters; like every by-name method it
// is forbidden in //rd:hotpath files.
func (r *Registry) Lookup(name string) (*Counter, bool) {
	if r == nil {
		return nil, false
	}
	i, ok := slices.BinarySearchFunc(r.counters, name, byCounterName)
	if !ok || r.counters[i].gen != r.gen {
		return nil, false
	}
	return r.counters[i], true
}

// --- snapshots ---

// CounterSnap is one counter's frozen value.
type CounterSnap struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeSnap is one gauge's frozen value and high-water mark.
type GaugeSnap struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
	Max   int64  `json:"max"`
}

// HistSnap is one histogram's frozen buckets.
type HistSnap struct {
	Name   string  `json:"name"`
	Width  int64   `json:"width"`
	Counts []int64 `json:"counts"` // last bucket is overflow
	Sum    int64   `json:"sum"`
	Count  int64   `json:"count"`
}

// Snapshot is a frozen, name-sorted view of a Registry, safe to
// marshal and to merge. The zero Snapshot is empty and valid.
type Snapshot struct {
	Counters   []CounterSnap `json:"counters"`
	Gauges     []GaugeSnap   `json:"gauges"`
	Histograms []HistSnap    `json:"histograms"`
}

// Snapshot freezes the registry's live instruments. They appear sorted
// by name, so same-seed runs produce byte-identical marshalled
// snapshots. The snapshot shares nothing with the registry. A nil
// Registry snapshots empty.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	r.SnapshotInto(&s)
	return s
}

// SnapshotInto is Snapshot into s's storage: s's lists and buckets are
// refilled, and only those too short for r are allocated, so a caller
// that merges registry after registry through one snapshot allocates
// for the first. What s held before is overwritten; s shares nothing
// with r afterwards.
func (r *Registry) SnapshotInto(s *Snapshot) {
	if r == nil {
		*s = Snapshot{}
		return
	}
	// Each list is allocated at its size; in a fresh snapshot a kind
	// with no live instrument stays nil and marshals as null.
	old := s.Histograms
	s.Counters, s.Gauges, s.Histograms = refill(s.Counters, r.nc), refill(s.Gauges, r.ng), refill(s.Histograms, r.nh)
	for _, c := range r.counters {
		if c.gen == r.gen {
			s.Counters = append(s.Counters, CounterSnap{Name: c.name, Value: c.v})
		}
	}
	for _, g := range r.gauges {
		if g.gen == r.gen {
			s.Gauges = append(s.Gauges, GaugeSnap{Name: g.name, Value: g.v, Max: g.max})
		}
	}
	// A histogram's buckets go where the one before it in s kept its
	// own, if they fit; the others share one block, allocated at the
	// first that does not for every bucket still to come.
	var block []int64
	left := r.nb
	for _, h := range r.hists {
		if h.gen != r.gen {
			continue
		}
		n, k := len(h.counts), len(s.Histograms)
		var counts []int64
		if k < len(old) && cap(old[k].Counts) >= n {
			counts = old[k].Counts[:n]
		} else {
			if len(block) < n {
				block = make([]int64, left)
			}
			counts, block = block[:n:n], block[n:]
		}
		left -= n
		copy(counts, h.counts)
		s.Histograms = append(s.Histograms, HistSnap{
			Name: h.name, Width: h.width, Counts: counts, Sum: h.sum, Count: h.n,
		})
	}
}

// refill returns list emptied with room for n entries: its own storage
// when that is large enough.
func refill[T any](list []T, n int) []T {
	if cap(list) < n {
		return make([]T, 0, n)
	}
	return list[:0]
}

// Merge folds o into s: counters and histogram buckets add, gauge
// high-water marks take the max, gauge values take o's (merges run in
// fixed caller order, so "last wins" is deterministic — the sweep
// engine merges per-run snapshots in spec order, which makes the
// result worker-count invariant). Instruments missing on either side
// are unioned in; same-named histograms must share geometry.
//
// s must own its lists and buckets — a Snapshot fresh from a Registry
// or built by Merge does — because Merge adds into them where it can.
// o is only read, and s shares nothing with it afterwards.
func (s *Snapshot) Merge(o Snapshot) {
	s.Counters = merge(s.Counters, o.Counters)
	s.Gauges = merge(s.Gauges, o.Gauges)
	s.Histograms = merge(s.Histograms, o.Histograms)
}

// entry is what merge needs of the three snapshot entry types.
type entry[T any] interface {
	*T
	key() string
	fold(o *T) // add a same-named entry's values
	own()      // stop sharing storage with the entry this one was copied from
}

func (c *CounterSnap) key() string         { return c.Name }
func (c *CounterSnap) fold(o *CounterSnap) { c.Value += o.Value }
func (c *CounterSnap) own()                {}

func (g *GaugeSnap) key() string { return g.Name }
func (g *GaugeSnap) fold(o *GaugeSnap) {
	g.Value, g.Max = o.Value, max(g.Max, o.Max)
}
func (g *GaugeSnap) own() {}

func (h *HistSnap) key() string { return h.Name }
func (h *HistSnap) fold(o *HistSnap) {
	if h.Width != o.Width || len(h.Counts) != len(o.Counts) {
		panic("telemetry: merging histogram " + h.Name + " with different geometry")
	}
	for k, n := range o.Counts {
		h.Counts[k] += n
	}
	h.Sum += o.Sum
	h.Count += o.Count
}
func (h *HistSnap) own() { h.Counts = slices.Clone(h.Counts) }

// merge folds the name-sorted list b into the name-sorted list a. For
// as long as a carries b's names — all the way, on every per-run and
// per-node merge after a cell's or a report's first — it adds in place
// and allocates nothing; from the first name a lacks it builds the
// union in a new list.
func merge[T any, P entry[T]](a, b []T) []T {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		// Equality first: the common case, and cheap — same-named
		// entries mostly share one name string.
		if an, bn := P(&a[i]).key(), P(&b[j]).key(); an == bn {
			P(&a[i]).fold(&b[j])
			j++
		} else if an > bn {
			break
		}
		i++
	}
	if j == len(b) {
		if a == nil {
			a = []T{} // a merged list marshals as [], never null
		}
		return a
	}
	out := make([]T, i, len(a)+len(b)-j)
	copy(out, a)
	for j < len(b) {
		switch {
		case i < len(a) && P(&a[i]).key() == P(&b[j]).key():
			out = append(out, a[i])
			P(&out[len(out)-1]).fold(&b[j])
			i, j = i+1, j+1
		case i < len(a) && P(&a[i]).key() < P(&b[j]).key():
			out = append(out, a[i])
			i++
		default:
			out = append(out, b[j])
			P(&out[len(out)-1]).own()
			j++
		}
	}
	return append(out, a[i:]...)
}

// CounterValue reports the value of the named counter in a snapshot,
// zero if absent — a convenience for tests and report tables.
func (s *Snapshot) CounterValue(name string) int64 {
	for i := range s.Counters {
		if s.Counters[i].Name == name {
			return s.Counters[i].Value
		}
	}
	return 0
}

// Set bundles the two halves of a run's telemetry: the instrument
// registry and the decision-span log. A nil *Set (and the nil
// Registry/Spans inside a partial one) disables everything it would
// have recorded, at the cost of a nil check.
type Set struct {
	Registry *Registry
	Spans    *Spans
}

// NewSet returns a Set with a fresh registry and span log.
func NewSet() *Set {
	return &Set{Registry: NewRegistry(), Spans: NewSpans()}
}

// Reg returns the registry, nil on a nil Set.
func (t *Set) Reg() *Registry {
	if t == nil {
		return nil
	}
	return t.Registry
}

// SpanLog returns the span log, nil on a nil Set.
func (t *Set) SpanLog() *Spans {
	if t == nil {
		return nil
	}
	return t.Spans
}

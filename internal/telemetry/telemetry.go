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
	"sort"
)

// Counter is a monotonically increasing int64 instrument. The nil
// Counter is a valid no-op, so hot paths increment unconditionally.
type Counter struct {
	name string
	v    int64
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

// Registry holds a run's instruments, keyed by name. The zero value
// is not usable; call NewRegistry. A nil Registry is a valid source of
// nil instruments, so wiring code registers unconditionally and the
// nil handles make disabled telemetry free.
//
// All Registry methods are cold-path: they look instruments up by
// string. The hotalloc analyzer rejects them in //rd:hotpath files —
// pre-register at setup and keep the returned handles.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
// Returns nil (a valid no-op handle) on a nil Registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{name: name}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns
// nil (a valid no-op handle) on a nil Registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{name: name}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// geometry on first use. Width must be positive and bins at least one;
// re-registration with a different geometry panics — the name is the
// contract that makes cross-run merges well-defined. Returns nil (a
// valid no-op handle) on a nil Registry.
func (r *Registry) Histogram(name string, width int64, bins int) *Histogram {
	if r == nil {
		return nil
	}
	if width <= 0 || bins < 1 {
		panic("telemetry: Histogram needs width > 0 and bins >= 1")
	}
	h, ok := r.hists[name]
	if ok {
		if h.width != width || len(h.counts) != bins+1 {
			panic("telemetry: histogram " + name + " re-registered with different geometry")
		}
		return h
	}
	h = &Histogram{name: name, width: width, counts: make([]int64, bins+1)}
	r.hists[name] = h
	return h
}

// Lookup finds an already-registered counter by name without creating
// it. It exists for tests and exporters; like every by-name method it
// is forbidden in //rd:hotpath files.
func (r *Registry) Lookup(name string) (*Counter, bool) {
	if r == nil {
		return nil, false
	}
	c, ok := r.counters[name]
	return c, ok
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

// Snapshot freezes the registry. Instruments appear sorted by name,
// so same-seed runs produce byte-identical marshalled snapshots. A nil
// Registry snapshots empty.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	cnames := make([]string, 0, len(r.counters))
	for name := range r.counters {
		cnames = append(cnames, name)
	}
	sort.Strings(cnames)
	for _, name := range cnames {
		s.Counters = append(s.Counters, CounterSnap{Name: name, Value: r.counters[name].v})
	}
	gnames := make([]string, 0, len(r.gauges))
	for name := range r.gauges {
		gnames = append(gnames, name)
	}
	sort.Strings(gnames)
	for _, name := range gnames {
		g := r.gauges[name]
		s.Gauges = append(s.Gauges, GaugeSnap{Name: name, Value: g.v, Max: g.max})
	}
	hnames := make([]string, 0, len(r.hists))
	for name := range r.hists {
		hnames = append(hnames, name)
	}
	sort.Strings(hnames)
	for _, name := range hnames {
		h := r.hists[name]
		counts := make([]int64, len(h.counts))
		copy(counts, h.counts)
		s.Histograms = append(s.Histograms, HistSnap{
			Name: name, Width: h.width, Counts: counts, Sum: h.sum, Count: h.n,
		})
	}
	return s
}

// Merge folds o into s: counters and histogram buckets add, gauge
// high-water marks take the max, gauge values take o's (merges run in
// fixed caller order, so "last wins" is deterministic — the sweep
// engine merges per-run snapshots in spec order, which makes the
// result worker-count invariant). Instruments missing on either side
// are unioned in; same-named histograms must share geometry.
func (s *Snapshot) Merge(o Snapshot) {
	s.Counters = mergeCounters(s.Counters, o.Counters)
	s.Gauges = mergeGauges(s.Gauges, o.Gauges)
	s.Histograms = mergeHists(s.Histograms, o.Histograms)
}

// mergeCounters unions two name-sorted counter lists, adding values on
// common names. Both inputs are sorted (Snapshot emits sorted; Merge
// preserves it), so this is a linear merge.
func mergeCounters(a, b []CounterSnap) []CounterSnap {
	out := make([]CounterSnap, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Name == b[j].Name:
			out = append(out, CounterSnap{Name: a[i].Name, Value: a[i].Value + b[j].Value})
			i++
			j++
		case a[i].Name < b[j].Name:
			out = append(out, a[i])
			i++
		default:
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

func mergeGauges(a, b []GaugeSnap) []GaugeSnap {
	out := make([]GaugeSnap, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Name == b[j].Name:
			m := a[i].Max
			if b[j].Max > m {
				m = b[j].Max
			}
			out = append(out, GaugeSnap{Name: a[i].Name, Value: b[j].Value, Max: m})
			i++
			j++
		case a[i].Name < b[j].Name:
			out = append(out, a[i])
			i++
		default:
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

func mergeHists(a, b []HistSnap) []HistSnap {
	out := make([]HistSnap, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Name == b[j].Name:
			x, y := a[i], b[j]
			if x.Width != y.Width || len(x.Counts) != len(y.Counts) {
				panic("telemetry: merging histogram " + x.Name + " with different geometry")
			}
			counts := make([]int64, len(x.Counts))
			for k := range counts {
				counts[k] = x.Counts[k] + y.Counts[k]
			}
			out = append(out, HistSnap{
				Name: x.Name, Width: x.Width, Counts: counts,
				Sum: x.Sum + y.Sum, Count: x.Count + y.Count,
			})
			i++
			j++
		case a[i].Name < b[j].Name:
			out = append(out, a[i])
			i++
		default:
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
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

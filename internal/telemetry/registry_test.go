package telemetry

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
)

// --- the registry lifecycle ---

func TestRegistryReset(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Add(7)
	r.Gauge("g").Set(9)
	r.Histogram("h", 10, 4).Observe(15)
	r.Counter("only.first").Inc()

	r.Reset()
	if s := r.Snapshot(); s.Counters != nil || s.Gauges != nil || s.Histograms != nil {
		t.Errorf("a reset registry snapshots %+v, want nothing", s)
	}
	if _, ok := r.Lookup("c"); ok {
		t.Error("Lookup found a retired counter")
	}
	if c2 := r.Counter("c"); c2 != c || c2.Value() != 0 {
		t.Errorf("revived counter: same storage %v, value %d; want the old storage, zeroed", c2 == c, c2.Value())
	}
	if g := r.Gauge("g"); g.Value() != 0 || g.Max() != 0 {
		t.Errorf("revived gauge = %d (max %d), want zero", g.Value(), g.Max())
	}
	// A retired histogram takes the new run's geometry; inside the run
	// the name is a contract again.
	h := r.Histogram("h", 5, 8)
	h.Observe(12)
	mustPanic(t, "re-register in the same generation", func() { r.Histogram("h", 10, 4) })
	want := NewRegistry()
	want.Counter("c")
	want.Gauge("g")
	want.Histogram("h", 5, 8).Observe(12)
	if got := r.Snapshot(); !reflect.DeepEqual(got, want.Snapshot()) {
		t.Errorf("second generation snapshots\n %+v, want a fresh registry's\n %+v", got, want.Snapshot())
	}

	// Re-registering inside a generation — a restarted fleet node —
	// keeps the value.
	r.Counter("c").Add(3)
	if v := r.Counter("c").Value(); v != 3 {
		t.Errorf("re-registered counter = %d, want 3", v)
	}
}

// FuzzRegistryReuse drives one registry through generations of
// register / update / Reset / Snapshot and, beside it, a registry built
// new for each generation. Every snapshot must marshal to the same
// bytes on both, and name exactly the instruments the generation
// registered: what a registry held before a Reset never shows.
func FuzzRegistryReuse(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 4, 1, 5, 9, 7, 0, 6, 0, 0, 1, 4, 6, 7, 0})
	f.Add([]byte{4, 0, 5, 200, 6, 0, 4, 1, 5, 3, 7, 0, 6, 0, 7, 0})
	f.Add([]byte{3, 2, 3, 250, 0, 5, 2, 131, 6, 0, 6, 0, 3, 2, 7, 0, 4, 2, 4, 3})

	names := []string{"m", "a.b", "a", "z.last", "a.b.c", "m.x"}
	geoms := []struct {
		width int64
		bins  int
	}{{1, 1}, {5, 4}, {5, 8}, {10, 4}}

	f.Fuzz(func(t *testing.T, tape []byte) {
		reused, fresh := NewRegistry(), NewRegistry()
		live := map[string]bool{} // "c:"/"g:"/"h:" + name, this generation
		geom := map[string]int{}  // histogram name → geometry, this generation
		check := func() {
			t.Helper()
			s := reused.Snapshot()
			a, err := json.Marshal(s)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(fresh.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("reused registry snapshots\n %s\nfresh one\n %s", a, b)
			}
			if n := len(s.Counters) + len(s.Gauges) + len(s.Histograms); n != len(live) {
				t.Fatalf("snapshot names %d instruments, the generation registered %d", n, len(live))
			}
			for _, c := range s.Counters {
				if !live["c:"+c.Name] {
					t.Fatalf("counter %q leaked from an earlier generation", c.Name)
				}
			}
			for _, g := range s.Gauges {
				if !live["g:"+g.Name] {
					t.Fatalf("gauge %q leaked from an earlier generation", g.Name)
				}
			}
			for _, h := range s.Histograms {
				if !live["h:"+h.Name] {
					t.Fatalf("histogram %q leaked from an earlier generation", h.Name)
				}
			}
		}
		for i := 0; i+1 < len(tape); i += 2 {
			op, arg := tape[i]%8, tape[i+1]
			name := names[int(arg)%len(names)]
			v := int64(int8(arg))
			for _, r := range []*Registry{reused, fresh} {
				switch op {
				case 0:
					r.Counter(name)
				case 1:
					r.Counter(name).Inc()
				case 2:
					r.Counter(name).Add(v)
				case 3:
					r.Gauge(name).Set(v)
				case 4, 5:
					k := int(arg) / len(names) % len(geoms)
					if had, ok := geom[name]; ok && op == 5 {
						k = had
					} else if ok && had != k {
						mustPanic(t, "geometry changed inside a generation", func() {
							r.Histogram(name, geoms[k].width, geoms[k].bins)
						})
						continue
					}
					h := r.Histogram(name, geoms[k].width, geoms[k].bins)
					if r == fresh {
						geom[name] = k
					}
					if op == 5 {
						h.Observe(v)
					}
				}
			}
			switch op {
			case 0, 1, 2:
				live["c:"+name] = true
			case 3:
				live["g:"+name] = true
			case 4, 5:
				live["h:"+name] = true
			case 6:
				check()
				reused.Reset()
				fresh = NewRegistry()
				clear(live)
				clear(geom)
			case 7:
				check()
			}
		}
		check()
	})
}

// --- merging ---

// mergeRef is Merge as it was before it learned to add in place: three
// linear unions into fresh lists. (Its union branches share histogram
// buckets with their operand; the values are what it is kept for.)
func mergeRef(s, o Snapshot) Snapshot {
	var out Snapshot
	out.Counters = make([]CounterSnap, 0, len(s.Counters)+len(o.Counters))
	i, j := 0, 0
	for i < len(s.Counters) && j < len(o.Counters) {
		a, b := s.Counters[i], o.Counters[j]
		switch {
		case a.Name == b.Name:
			out.Counters = append(out.Counters, CounterSnap{Name: a.Name, Value: a.Value + b.Value})
			i, j = i+1, j+1
		case a.Name < b.Name:
			out.Counters = append(out.Counters, a)
			i++
		default:
			out.Counters = append(out.Counters, b)
			j++
		}
	}
	out.Counters = append(append(out.Counters, s.Counters[i:]...), o.Counters[j:]...)

	out.Gauges = make([]GaugeSnap, 0, len(s.Gauges)+len(o.Gauges))
	i, j = 0, 0
	for i < len(s.Gauges) && j < len(o.Gauges) {
		a, b := s.Gauges[i], o.Gauges[j]
		switch {
		case a.Name == b.Name:
			out.Gauges = append(out.Gauges, GaugeSnap{Name: a.Name, Value: b.Value, Max: max(a.Max, b.Max)})
			i, j = i+1, j+1
		case a.Name < b.Name:
			out.Gauges = append(out.Gauges, a)
			i++
		default:
			out.Gauges = append(out.Gauges, b)
			j++
		}
	}
	out.Gauges = append(append(out.Gauges, s.Gauges[i:]...), o.Gauges[j:]...)

	out.Histograms = make([]HistSnap, 0, len(s.Histograms)+len(o.Histograms))
	i, j = 0, 0
	for i < len(s.Histograms) && j < len(o.Histograms) {
		a, b := s.Histograms[i], o.Histograms[j]
		switch {
		case a.Name == b.Name:
			counts := make([]int64, len(a.Counts))
			for k := range counts {
				counts[k] = a.Counts[k] + b.Counts[k]
			}
			out.Histograms = append(out.Histograms, HistSnap{
				Name: a.Name, Width: a.Width, Counts: counts, Sum: a.Sum + b.Sum, Count: a.Count + b.Count,
			})
			i, j = i+1, j+1
		case a.Name < b.Name:
			out.Histograms = append(out.Histograms, a)
			i++
		default:
			out.Histograms = append(out.Histograms, b)
			j++
		}
	}
	out.Histograms = append(append(out.Histograms, s.Histograms[i:]...), o.Histograms[j:]...)
	return out
}

// randomSnapshot registers each of names with probability p (in a
// shuffled order, so the sorted insert is exercised) and gives
// everything a random value.
func randomSnapshot(rng *rand.Rand, names []string, p float64) Snapshot {
	r := NewRegistry()
	for _, k := range rng.Perm(len(names)) {
		name := names[k]
		if rng.Float64() < p {
			r.Counter("c." + name).Add(rng.Int63n(1000))
		}
		if rng.Float64() < p {
			g := r.Gauge("g." + name)
			g.Set(rng.Int63n(100))
			g.Set(rng.Int63n(100))
		}
		if rng.Float64() < p {
			h := r.Histogram("h."+name, 5, 1+len(name))
			for n := rng.Intn(6); n > 0; n-- {
				h.Observe(rng.Int63n(60))
			}
		}
	}
	return r.Snapshot()
}

func snapshotJSON(t *testing.T, s Snapshot) string {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSnapshotMergeInPlaceMatchesUnion holds Merge — in place where
// the receiver carries the operand's names, a union from the first
// name it lacks — to the plain union it replaced, over random pairs
// with the same names, a subset either way, disjoint names and nothing
// at all, down to null against [] in the marshalled form. The operand
// must come out of every merge untouched.
func TestSnapshotMergeInPlaceMatchesUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	names := []string{"a", "b", "b.c", "d", "m", "m.x", "q", "z"}
	for round := 0; round < 400; round++ {
		var s, o Snapshot
		switch round % 5 {
		case 0: // same names, the in-place path end to end
			s, o = randomSnapshot(rng, names, 1), randomSnapshot(rng, names, 1)
		case 1: // the operand a subset: in place, skipping
			s, o = randomSnapshot(rng, names, 1), randomSnapshot(rng, names, 0.5)
		case 2: // the receiver a subset: in place up to the first gap
			s, o = randomSnapshot(rng, names, 0.5), randomSnapshot(rng, names, 1)
		case 3: // disjoint
			s, o = randomSnapshot(rng, names[:4], 0.7), randomSnapshot(rng, names[4:], 0.7)
		case 4: // one side, or both, empty
			s, o = randomSnapshot(rng, names, float64(round%2)), randomSnapshot(rng, names, float64(round/5%2))
		}
		// Twice: the second merge is in place whatever the first was,
		// into lists and buckets the first one built.
		want := snapshotJSON(t, mergeRef(mergeRef(s, o), o))
		before := snapshotJSON(t, o)
		s.Merge(o)
		s.Merge(o)
		if got := snapshotJSON(t, s); got != want {
			t.Fatalf("round %d: Merge gives\n %s\nthe union\n %s", round, got, want)
		}
		if after := snapshotJSON(t, o); after != before {
			t.Fatalf("round %d: Merge changed its operand\n from %s\n   to %s", round, before, after)
		}
	}
}

// TestMergedSnapshotOwnsItsBuckets: a merge that unions an operand's
// histogram in must copy its buckets. Sharing them was harmless only
// while every later merge reallocated; now later merges add in place,
// and would be adding into the operand.
func TestMergedSnapshotOwnsItsBuckets(t *testing.T) {
	ra, rb := NewRegistry(), NewRegistry()
	ra.Counter("only.a").Inc()
	rb.Histogram("only.b", 5, 4).Observe(7)
	a, b := ra.Snapshot(), rb.Snapshot()

	var merged Snapshot
	merged.Merge(a)
	merged.Merge(b) // unions only.b in
	merged.Merge(b) // adds in place
	if got := b.Histograms[0].Counts[1]; got != 1 {
		t.Errorf("operand bucket = %d after being merged twice, want 1: the merged snapshot aliases it", got)
	}
	b.Histograms[0].Counts[1] = 100
	if got := merged.Histograms[0].Counts[1]; got != 2 {
		t.Errorf("merged bucket = %d after the operand was written, want 2", got)
	}
}

// --- benchmarks ---

// benchRegistry has the shape of a single-node run's registry: sixty
// counters, a dozen gauges, six histograms.
func benchRegistry() *Registry {
	r := NewRegistry()
	for i := 0; i < 60; i++ {
		r.Counter("bench.counter." + string(rune('a'+i%26)) + string(rune('a'+i/26))).Add(int64(i))
	}
	for i := 0; i < 12; i++ {
		r.Gauge("bench.gauge." + string(rune('a'+i))).Set(int64(i))
	}
	for i := 0; i < 6; i++ {
		r.Histogram("bench.hist."+string(rune('a'+i)), 100, 16).Observe(int64(100 * i))
	}
	return r
}

// BenchmarkRegistrySnapshot: one allocation per list plus one for all
// the buckets, whatever the instrument count.
func BenchmarkRegistrySnapshot(b *testing.B) {
	r := benchRegistry()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := r.Snapshot(); len(s.Counters) != 60 {
			b.Fatal("short snapshot")
		}
	}
}

// BenchmarkSnapshotMerge folds a run's snapshot into a cell that
// already carries its names — every merge of a cell but the first.
func BenchmarkSnapshotMerge(b *testing.B) {
	run := benchRegistry().Snapshot()
	var cell Snapshot
	cell.Merge(run)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cell.Merge(run)
	}
}

func TestSnapshotAndMergeAllocFree(t *testing.T) {
	r := benchRegistry()
	if n := testing.AllocsPerRun(100, func() { r.Snapshot() }); n > 4 {
		t.Errorf("Snapshot allocates %v objects, want at most 4 (three lists and the bucket block)", n)
	}
	run := r.Snapshot()
	var cell Snapshot
	cell.Merge(run)
	if n := testing.AllocsPerRun(100, func() { cell.Merge(run) }); n != 0 {
		t.Errorf("merging same-named snapshots allocates %v objects, want 0", n)
	}
	if got, want := cell.CounterValue("bench.counter.bb"), int64(27*(1+101)); got != want {
		t.Errorf("bench.counter.bb = %d after 102 merges, want %d", got, want)
	}
}

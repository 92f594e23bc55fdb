package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 || s.Median() != 0 {
		t.Error("empty summary should report zeros")
	}
	for _, v := range []float64{5, 1, 3, 2, 4} {
		s.Add(v)
	}
	if s.N() != 5 || s.Sum() != 15 {
		t.Errorf("N=%d Sum=%v, want 5/15", s.N(), s.Sum())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Errorf("min/max = %v/%v", s.Min(), s.Max())
	}
	if s.Mean() != 3 {
		t.Errorf("mean = %v, want 3", s.Mean())
	}
	if s.Median() != 3 {
		t.Errorf("median = %v, want 3", s.Median())
	}
}

func TestSummaryAddAfterRead(t *testing.T) {
	var s Summary
	s.Add(10)
	_ = s.Min() // forces sort
	s.Add(1)
	if s.Min() != 1 {
		t.Error("Add after Min() broke ordering")
	}
}

func TestPercentiles(t *testing.T) {
	var s Summary
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	cases := map[float64]float64{0: 1, 25: 25, 50: 50, 99: 99, 100: 100}
	for p, want := range cases {
		if got := s.Percentile(p); got != want {
			t.Errorf("P%v = %v, want %v", p, got, want)
		}
	}
}

func TestStddev(t *testing.T) {
	var s Summary
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if got := s.Stddev(); math.Abs(got-2) > 1e-9 {
		t.Errorf("stddev = %v, want 2", got)
	}
}

func TestSummaryString(t *testing.T) {
	var s Summary
	s.Add(11.5)
	s.Add(18.3)
	s.Add(32.3)
	str := s.String()
	if !strings.Contains(str, "min 11.5") || !strings.Contains(str, "n=3") {
		t.Errorf("String() = %q", str)
	}
}

func TestMedianLEMeanForRightSkew(t *testing.T) {
	// Property: for non-negative samples, min <= median <= max and
	// min <= mean <= max.
	f := func(vals []uint16) bool {
		if len(vals) == 0 {
			return true
		}
		var s Summary
		for _, v := range vals {
			s.Add(float64(v))
		}
		return s.Min() <= s.Median() && s.Median() <= s.Max() &&
			s.Min() <= s.Mean() && s.Mean() <= s.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummaryMerge(t *testing.T) {
	// Merging parts in order must equal adding the whole sequence in
	// order — the invariant the sweep engine's deterministic
	// aggregation rests on.
	vals := []float64{5, 1, 4, 2, 8, 3, 9, 7}
	var whole Summary
	for _, v := range vals {
		whole.Add(v)
	}
	var a, b, merged Summary
	for _, v := range vals[:4] {
		a.Add(v)
	}
	for _, v := range vals[4:] {
		b.Add(v)
	}
	merged.Merge(&a)
	merged.Merge(&b)
	merged.Merge(nil)        // nil is a no-op
	merged.Merge(&Summary{}) // empty is a no-op
	if merged.N() != whole.N() || merged.Sum() != whole.Sum() {
		t.Fatalf("merged n=%d sum=%v, want n=%d sum=%v", merged.N(), merged.Sum(), whole.N(), whole.Sum())
	}
	for _, p := range []float64{0, 25, 50, 90, 100} {
		if m, w := merged.Percentile(p), whole.Percentile(p); m != w {
			t.Errorf("p%.0f: merged %v, whole %v", p, m, w)
		}
	}
	if merged.Mean() != whole.Mean() || merged.Stddev() != whole.Stddev() {
		t.Errorf("merged mean/stddev %v/%v, whole %v/%v",
			merged.Mean(), merged.Stddev(), whole.Mean(), whole.Stddev())
	}
	// The source is left intact.
	if a.N() != 4 || b.N() != 4 {
		t.Errorf("Merge consumed its source: a.N=%d b.N=%d", a.N(), b.N())
	}
}

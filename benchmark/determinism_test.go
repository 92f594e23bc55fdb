package main

import (
	"reflect"
	"testing"
)

// TestFixedPassRepeats runs the fixed pass twice in one process: the
// stats_digest and every exact work count must repeat, or neither
// could gate anything.
func TestFixedPassRepeats(t *testing.T) {
	for _, name := range []string{"fleet-deny", "paper-short"} {
		w, err := workloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := smallConfig(t, w, false)
		a, err := fixedPass(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := fixedPass(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if a.digest != b.digest {
			t.Errorf("%s: stats_digest %s then %s", name, a.digest, b.digest)
		}
		if len(a.counts) == 0 || !reflect.DeepEqual(a.counts, b.counts) {
			t.Errorf("%s: work counts differ between passes:\n%v\n%v", name, a.counts, b.counts)
		}
		cfg.seed = 2
		c, err := fixedPass(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if c.digest == a.digest {
			t.Errorf("%s: -seed 2 reproduced -seed 1's digest; the seed does not reach the inputs", name)
		}
	}
}

func TestPercentile(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: percentile must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		p      float64
		want   float64
		backed bool
	}{
		{100, 90, 90, true},   // exactly 10 samples beyond
		{99, 90, 90, false},   // 9 beyond
		{1000, 90, 900, true}, // 100 beyond
		{19, 90, 18, false},   // n < 20 never backs a p90
		{20, 50, 10, true},    // the median of 20 has 10 beyond
		{19, 50, 10, false},
		{1, 90, 1, false},
	} {
		got, backed := percentile(ramp(tc.n), tc.p)
		if got != tc.want || backed != tc.backed {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", tc.n, tc.p, got, backed, tc.want, tc.backed)
		}
	}
	if v, backed := percentile(nil, 90); v != 0 || backed {
		t.Errorf("percentile(nil) = %v, %v", v, backed)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v", got)
	}
}

func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"repro/internal/sched.(*Scheduler).RunUntil", "main.main"}, "sched.cpu_share"},
		{[]string{"repro/internal/sweep.Run.func1", "runtime.goexit"}, "sweep.cpu_share"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "repro/internal/rm.(*Manager).RequestAdmittance"}, shareAlloc},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2"}, shareGC},
		{[]string{"runtime.scanobject", "runtime.gcAssistAlloc", "runtime.mallocgc"}, shareGC},
		{[]string{"fmt.(*pp).doPrintf", "fmt.Errorf", "repro/internal/rm.(*Manager).RequestAdmittance"}, shareFmt},
		{[]string{"encoding/json.(*encodeState).marshal", "repro/internal/telemetry.(*Manifest).WriteJSON"}, shareOther},
		{[]string{"repro/internal/analysis.Run"}, shareOther},
		// The harness's own work is not the simulator's.
		{[]string{"runtime.mallocgc", "main.calBurst"}, ""},
		{[]string{"encoding/json.Unmarshal", "main.(*pass).checkSweep"}, ""},
		{[]string{"runtime.futex", "runtime.findRunnable"}, ""},
	} {
		if got := classify(tc.stack); got != tc.want {
			t.Errorf("classify(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

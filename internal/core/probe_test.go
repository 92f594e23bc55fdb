package core_test

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/ticks"
	"repro/internal/trace"
	"repro/internal/workload"
)

// runMediaTrace drives modem + 3D + MPEG under the stochastic paper
// switch-cost model in 100 ms chunks, optionally hammering every
// read-only kernel probe between chunks, and returns the serialized
// trace. Both variants use the same chunking so the only difference
// between them is the probe calls themselves.
func runMediaTrace(t *testing.T, probed bool) []byte {
	t.Helper()
	const ms = ticks.PerMillisecond
	rec := trace.New()
	d := core.New(core.Config{Seed: 7, Observer: rec})

	modem := workload.NewModem()
	if _, err := d.RequestAdmittance(modem.Task(false)); err != nil {
		t.Fatal(err)
	}
	g3d := workload.NewGraphics3D(9)
	if _, err := d.RequestAdmittance(g3d.Task()); err != nil {
		t.Fatal(err)
	}
	mpeg := workload.NewMPEG()
	if _, err := d.RequestAdmittance(mpeg.Task()); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 20; i++ {
		d.Run(100 * ms)
		if probed {
			k := d.Kernel()
			_ = k.Now()
			_, _ = k.NextEventTime()
			_ = k.Stats()
			_ = k.CacheRefill()
		}
	}

	// The Table 4 set is the paper's Figure 3 guarantee: under the
	// stochastic switch costs too, nothing misses.
	if n := rec.MissCount(); n != 0 {
		t.Errorf("%d deadline misses on the Table 4 set under paper switch costs", n)
	}

	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceByteIdenticalUnderProbes holds the kernel's read-only
// probes to their contract: a run's trace must be byte-identical with
// and without interleaved probe calls. (The PR 2 probe bug was a probe
// that consumed the kernel's one RNG stream, shifting every
// subsequently sampled switch cost and with it every slice boundary in
// the trace.)
func TestTraceByteIdenticalUnderProbes(t *testing.T) {
	clean := runMediaTrace(t, false)
	probed := runMediaTrace(t, true)
	if !bytes.Equal(clean, probed) {
		t.Fatalf("probing changed the simulation: %d vs %d bytes (first divergence at byte %d)",
			len(clean), len(probed), firstDiff(clean, probed))
	}
}

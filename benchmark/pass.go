package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"runtime"
	"time"

	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// pass accumulates one pass over a workload: the fixed pass, the
// timed pass or the traced pass. Only the calls into the simulator are
// on the clock (wall, runMS, mallocs, allocBytes); expanding the
// matrix, checking outputs and recording spans happen between them.
type pass struct {
	w  workload
	tr *tracer // nil = tracing off
	id int     // this pass's root span

	rounds     int
	runs       int
	wall       time.Duration // on the clock, as measured
	ref        float64       // the same in seconds at the reference machine speed (calibrate.go)
	runMS      []float64     // per-run wall time at the reference speed
	mallocs    uint64
	allocBytes uint64
	peaksMiB   []float64 // resident-set high-water mark of each timed section
	lastSpeed  float64   // machine speed measured after the previous section

	famRuns map[string]int
	famRef  map[string]float64 // seconds at the reference speed

	// digestOf hashes one line per cell per round (sweep workloads) or
	// per iteration (cluster-manifest), in order.
	digestOf hash.Hash
	jsonBuf  bytes.Buffer // the sweep JSON or manifest the program wrote last

	// cluster-manifest workloads.
	manifestBytes int64
	manifestRef   float64 // stitch + write + read/validate, reference seconds
	spansOnRef    float64 // RunFleetCluster, reference seconds
	perfettoBuf   bytes.Buffer

	// Output checks, folded in round by round.
	failed   int
	problems []string
	counts   map[string]int64 // telemetry counters, summed over cells
	digest   string           // set when the pass ends
}

func newPass(w workload, tr *tracer, name string) *pass {
	return &pass{
		w: w, tr: tr, id: tr.begin(name, 0, 0),
		famRuns: map[string]int{}, famRef: map[string]float64{},
		digestOf: sha256.New(), counts: map[string]int64{},
	}
}

// run executes rounds from seed `next` on until the clock has `budget`
// on it (at least one round), checking each round's outputs as it goes.
func (p *pass) run(next uint64, seedsPerRound int, budget time.Duration) error {
	p.lastSpeed = speedAfter(0)
	for {
		seeds := sweep.SeedRange(next, seedsPerRound)
		next += uint64(seedsPerRound)
		var err error
		if p.w.manifest {
			err = p.manifestRound(seeds)
		} else {
			err = p.sweepRound(seeds)
		}
		if err != nil {
			return err
		}
		p.rounds++
		if p.wall >= budget {
			break
		}
	}
	p.digest = hex.EncodeToString(p.digestOf.Sum(nil))
	p.tr.end(p.id)
	return nil
}

// sweepRound is one closed-loop sweep.Run over every cell × seeds with
// a single worker: the next run starts when the previous one returns,
// and Progress deltas are the per-run wall times.
func (p *pass) sweepRound(seeds []uint64) error {
	m := p.w.matrix
	m.Seeds = seeds

	expand := p.tr.begin("sweep.expand", p.id, 0)
	specs, err := m.Specs()
	p.tr.end(expand)
	if err != nil {
		return err
	}

	var before, after runtime.MemStats
	resetPeakRSS()
	runtime.ReadMemStats(&before)
	total := p.tr.begin("sweep.run_total", p.id, 0)
	start := time.Now()
	last := start
	first := len(p.runMS)
	famWall := map[string]time.Duration{}
	res, err := sweep.Run(m, sweep.Options{Workers: 1, Progress: func(done, _ int) {
		now := time.Now()
		d := now.Sub(last)
		fam := family(specs[done-1].Scenario)
		p.runMS = append(p.runMS, float64(d)/float64(time.Millisecond))
		p.famRuns[fam]++
		famWall[fam] += d
		p.tr.complete("sweep.run."+fam, total, p.runs+done, last, now)
		last = now
	}})
	elapsed := time.Since(start)
	p.tr.end(total)
	runtime.ReadMemStats(&after)
	if err != nil {
		return err
	}
	if err := p.notePeakRSS(); err != nil {
		return err
	}
	speed := p.speedAround(elapsed)
	p.wall += elapsed
	p.ref += elapsed.Seconds() * speed
	for i := first; i < len(p.runMS); i++ {
		p.runMS[i] *= speed
	}
	for fam, d := range famWall {
		p.famRef[fam] += d.Seconds() * speed
	}
	p.runs += len(specs)
	p.mallocs += after.Mallocs - before.Mallocs
	p.allocBytes += after.TotalAlloc - before.TotalAlloc

	// Off the clock: write the round's JSON and check it. Nothing of
	// the round is kept, so the heap the next round runs in is the
	// simulator's own and not the harness's.
	p.jsonBuf.Reset()
	write := p.tr.begin("sweep.aggregate_write", p.id, 0)
	err = res.WriteJSON(&p.jsonBuf)
	p.tr.end(write)
	if err != nil {
		return err
	}
	return p.checkSweep(res)
}

// manifestRound runs one iteration per (cell, seed): a fleet run with
// the full span log on, stitched, serialised, read back, validated and
// exported — telemetry used the other way round from every other
// workload, which record counters only.
func (p *pass) manifestRound(seeds []uint64) error {
	m := p.w.matrix
	m.Seeds = seeds
	specs, err := m.Specs()
	if err != nil {
		return err
	}
	for _, spec := range specs {
		if err := p.manifestIteration(spec); err != nil {
			return fmt.Errorf("%s/%s/%s seed %d: %w", spec.Scenario, spec.CostModel, spec.Policy, spec.Seed, err)
		}
	}
	return nil
}

// manifestIteration stands for the two processes a user runs to get
// from a spec to a viewable trace: `rdsweep -cluster-manifest` (run
// with the span log on, stitch, write the manifest) and `rdtrace
// export` (read and validate it, write Perfetto JSON). Each starts on
// a collected heap, as a fresh process would, and nothing of the first
// but the bytes it wrote reaches the second; the collections are off
// the clock.
func (p *pass) manifestIteration(spec sweep.RunSpec) error {
	run := p.runs + 1
	it := p.tr.begin("manifest.iteration", p.id, run)
	var before, after runtime.MemStats

	runtime.GC()
	resetPeakRSS()
	runtime.ReadMemStats(&before)
	w, err := p.writeManifest(spec, it, run)
	runtime.ReadMemStats(&after)
	if err != nil {
		return err
	}
	p.mallocs += after.Mallocs - before.Mallocs
	p.allocBytes += after.TotalAlloc - before.TotalAlloc

	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	back, err := telemetry.ReadManifest(bytes.NewReader(p.jsonBuf.Bytes())) // validates
	if err != nil {
		return err
	}
	t1 := time.Now()
	p.perfettoBuf.Reset()
	if err := telemetry.WritePerfetto(&p.perfettoBuf, back); err != nil {
		return err
	}
	t2 := time.Now()
	runtime.ReadMemStats(&after)
	p.tr.complete("telemetry.read_validate", it, run, t0, t1)
	p.tr.complete("telemetry.perfetto", it, run, t1, t2)
	p.tr.end(it)
	p.mallocs += after.Mallocs - before.Mallocs
	p.allocBytes += after.TotalAlloc - before.TotalAlloc
	if err := p.notePeakRSS(); err != nil {
		return err
	}

	elapsed := w.run + w.stitch + w.write + t2.Sub(t0)
	speed := p.speedAround(elapsed)
	p.runs++
	p.wall += elapsed
	p.ref += elapsed.Seconds() * speed
	p.runMS = append(p.runMS, elapsed.Seconds()*1e3*speed)
	p.famRuns["fleet"]++
	p.famRef["fleet"] += elapsed.Seconds() * speed
	p.spansOnRef += w.run.Seconds() * speed
	p.manifestRef += (w.stitch + w.write + t1.Sub(t0)).Seconds() * speed
	p.manifestBytes += int64(p.jsonBuf.Len())

	// Off the clock: check the export.
	if err := telemetry.ValidatePerfetto(bytes.NewReader(p.perfettoBuf.Bytes())); err != nil {
		return err
	}
	if len(back.Spans) != w.spans {
		return fmt.Errorf("manifest read back %d spans, wrote %d", len(back.Spans), w.spans)
	}
	return nil
}

// written is what outlives the writing half of a manifest iteration.
type written struct {
	run, stitch, write time.Duration
	spans              int
}

// writeManifest runs the spec as a live cluster with full span
// logging, stitches its manifest and serialises it into p.jsonBuf,
// then checks the run and folds it into the pass's digest and counts.
func (p *pass) writeManifest(spec sweep.RunSpec, it, run int) (written, error) {
	t0 := time.Now()
	c, rep, err := sweep.RunFleetCluster(spec, 1)
	if err != nil {
		return written{}, err
	}
	t1 := time.Now()
	man, err := c.Manifest()
	if err != nil {
		return written{}, err
	}
	t2 := time.Now()
	p.jsonBuf.Reset()
	if err := man.WriteJSON(&p.jsonBuf); err != nil {
		return written{}, err
	}
	t3 := time.Now()
	p.tr.complete("fleet.run_spans_on", it, run, t0, t1)
	p.tr.complete("telemetry.stitch", it, run, t1, t2)
	p.tr.complete("telemetry.write", it, run, t2, t3)

	if rep.Violations != 0 || len(rep.Stalled) != 0 || rep.Misses != 0 && faultFree(spec.Scenario) {
		p.failed++
		p.problems = append(p.problems, fmt.Sprintf("%s/%s/%s seed %d: %d violations, %d stalled nodes, %d misses",
			spec.Scenario, spec.CostModel, spec.Policy, spec.Seed, rep.Violations, len(rep.Stalled), rep.Misses))
	}
	fmt.Fprintf(p.digestOf, "%s|%s|%s|%d|%s|%d|%d\n",
		spec.Scenario, spec.CostModel, spec.Policy, spec.Seed, rep.Summary(), len(man.Spans), p.jsonBuf.Len())
	for _, cs := range man.Metrics.Counters {
		p.counts[cs.Name] += cs.Value
	}
	p.counts["telemetry.spans"] += int64(len(man.Spans))
	p.counts["telemetry.manifest_bytes"] += int64(p.jsonBuf.Len())
	return written{run: t1.Sub(t0), stitch: t2.Sub(t1), write: t3.Sub(t2), spans: len(man.Spans)}, nil
}

// cellRow is the schema-independent projection of one cell of the
// JSON the program writes: the fields every rdsweep schema version has
// carried, read by name so a schema bump that keeps them keeps the
// digest.
type cellRow struct {
	Scenario  string `json:"scenario"`
	CostModel string `json:"cost_model"`
	Policy    string `json:"policy"`
	Runs      int    `json:"runs"`
	Errors    int    `json:"errors"`
	Denied    int64  `json:"denied_admissions"`
	Misses    struct {
		Mean float64 `json:"mean"`
		Max  float64 `json:"max"`
	} `json:"misses_per_run"`
	Loss struct {
		Mean float64 `json:"mean"`
	} `json:"unplanned_loss_rate"`
	Utilization struct {
		Mean float64 `json:"mean"`
	} `json:"utilization"`
	Violations struct {
		Max float64 `json:"max"`
	} `json:"invariant_violations"`
}

// checkSweep checks one round's outputs, read from the JSON the
// program just wrote, and folds its digest lines and work counts into
// the pass. It fails only when the JSON cannot be read; wrong outputs
// are recorded in failed/problems so the caller can report them.
func (p *pass) checkSweep(res *sweep.Result) error {
	var out struct {
		Cells []cellRow `json:"cells"`
	}
	if err := json.Unmarshal(p.jsonBuf.Bytes(), &out); err != nil {
		return fmt.Errorf("sweep JSON: %w", err)
	}
	if len(out.Cells) == 0 {
		return fmt.Errorf("sweep JSON has no cells")
	}
	var bits [8]byte
	for _, c := range out.Cells {
		fmt.Fprintf(p.digestOf, "%s|%s|%s|%d|%d|%d", c.Scenario, c.CostModel, c.Policy, c.Runs, c.Errors, c.Denied)
		for _, f := range []float64{c.Misses.Mean, c.Loss.Mean, c.Utilization.Mean} {
			binary.BigEndian.PutUint64(bits[:], math.Float64bits(f))
			p.digestOf.Write(bits[:])
		}
		p.failed += c.Errors
		if c.Errors != 0 {
			p.problems = append(p.problems, fmt.Sprintf("%s/%s/%s: %d failed runs", c.Scenario, c.CostModel, c.Policy, c.Errors))
		}
		// admitted ⇒ guaranteed: an RD cell with an invariant violation,
		// or with a deadline miss nothing was injected to cause, is a
		// wrong simulator, however fast.
		if rdPolicy(c.Policy) && (c.Violations.Max != 0 || c.Misses.Max != 0 && faultFree(c.Scenario)) {
			p.failed++
			p.problems = append(p.problems, fmt.Sprintf("%s/%s/%s: max misses/run %g, max violations/run %g",
				c.Scenario, c.CostModel, c.Policy, c.Misses.Max, c.Violations.Max))
		}
	}
	for _, c := range res.Cells() {
		for _, cs := range c.Telemetry.Counters {
			p.counts[cs.Name] += cs.Value
		}
	}
	return nil
}

// notePeakRSS records the resident-set high-water mark since the last
// resetPeakRSS.
func (p *pass) notePeakRSS() error {
	peak, err := peakRSSMiB()
	if err != nil {
		return err
	}
	p.peaksMiB = append(p.peaksMiB, peak)
	return nil
}

// speedAround measures the machine speed after a timed section of
// length d and returns its mean with the speed measured before the
// section, i.e. after the previous one.
func (p *pass) speedAround(d time.Duration) float64 {
	after := speedAfter(d)
	speed := (p.lastSpeed + after) / 2
	p.lastSpeed = after
	return speed
}

// runsPerSec is the pass's throughput at the reference machine speed.
func (p *pass) runsPerSec() float64 { return float64(p.runs) / p.ref }

// speed is the machine's mean speed over the pass, as a share of the
// reference speed.
func (p *pass) speed() float64 { return p.ref / p.wall.Seconds() }

// Command benchmark is this repository's one yard-stick for
// performance: six frozen workloads driven through the public
// functions of internal/*, end-to-end metrics measured with tracing
// off, and a per-layer ledger measured from outside the program. See
// README.md in this directory.
//
//	bash benchmark/run.sh -workload paper-short
//	bash benchmark/run.sh -workload fleet-wide -seed 7 -seconds 10 -trace 1
//	bash benchmark/run.sh -workload all
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"time"

	"repro/internal/sweep"
)

// processStart is read before main so the first set-up includes
// package initialisation (the scenario and cost-model registries).
var processStart = time.Now()

// baselineJSON carries, per workload, the stats_digest the fixed pass
// must reproduce at -seed 1, next to the first measured baseline.
//
//go:embed baseline.json
var baselineJSON []byte

// outDir is where a traced run leaves its span file and CPU profile,
// relative to the directory the benchmark is run from.
const outDir = "benchmark/out"

// setups is how many times a run repeats its set-up; setup_s is the
// median, so one slow repeat does not move it.
const setups = 3

type metric struct {
	Name  string
	Value float64
	Unit  string
}

// config is one run of one workload.
type config struct {
	w       workload
	seed    uint64
	seconds float64
	trace   bool
	// wantDigest is the stats_digest the fixed pass must produce;
	// empty means print it without comparing.
	wantDigest string
	outDir     string
	log        io.Writer
}

// report is what a run found.
type report struct {
	correct   bool
	attempted int
	failed    int
	digest    string
	problems  []string
	metrics   []metric
}

func (r *report) emit(name string, v float64, unit string) {
	r.metrics = append(r.metrics, metric{name, v, unit})
}

// wrong records a failed check of the run as a whole.
func (r *report) wrong(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// absorb folds a finished pass's output checks into the report.
func (r *report) absorb(p *pass) {
	r.attempted += p.runs
	r.failed += p.failed
	r.problems = append(r.problems, p.problems...)
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name, or 'all' for every workload in turn (one process each)")
		seed    = flag.Uint64("seed", 1, "workload seed; the matrices' seed ranges derive from it (1 = the committed stats_digest)")
		seconds = flag.Float64("seconds", 10, "how long the timed pass measures")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced pass, a CPU profile and the layer drivers")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: benchmark -workload <name|all> [-seed N] [-seconds S] [-trace 0|1]")
		os.Exit(2)
	}
	if *name == "all" {
		os.Exit(runAll("-seed", fmt.Sprint(*seed), "-seconds", fmt.Sprint(*seconds), "-trace", fmt.Sprint(*trace)))
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	cfg := config{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: outDir, log: os.Stdout}
	if *seed == 1 {
		if cfg.wantDigest, err = committedDigest(w.name); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
	}
	rep, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	printReport(os.Stdout, w.name, rep)
	if !rep.correct {
		os.Exit(1)
	}
}

// runAll re-executes this binary once per workload, so peak_rss_mb
// stays a per-workload number.
func runAll(args ...string) int {
	code := 0
	for _, w := range workloads() {
		cmd := exec.Command(os.Args[0], append([]string{"-workload", w.name}, args...)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: workload %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

func committedDigest(workload string) (string, error) {
	var b struct {
		Workloads map[string]struct {
			StatsDigest string `json:"stats_digest"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(baselineJSON, &b); err != nil {
		return "", fmt.Errorf("baseline.json: %w", err)
	}
	d := b.Workloads[workload].StatsDigest
	if d == "" {
		return "", fmt.Errorf("baseline.json has no stats_digest for workload %s", workload)
	}
	return d, nil
}

// runWorkload runs one workload and returns its metrics: the
// end-to-end set with tracing off, or the per-layer set.
func runWorkload(cfg config) (*report, error) {
	rep := &report{}
	var err error
	if cfg.trace {
		err = runTraced(cfg, rep)
	} else {
		err = runTimed(cfg, rep)
	}
	if err != nil {
		return nil, err
	}
	if cfg.wantDigest != "" && rep.digest != cfg.wantDigest {
		rep.wrong("stats_digest %s, committed %s", rep.digest, cfg.wantDigest)
	}
	rep.correct = rep.failed == 0
	for _, m := range rep.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.Name, m.Value)
		}
	}
	return rep, nil
}

// fixedPass is the set-up: expand the matrix and run warmSeeds seeds
// of every cell from the workload's first seed, then check and digest
// the outputs. It is the same work on every commit for a given -seed.
func fixedPass(cfg config, tr *tracer) (*pass, error) {
	p := newPass(cfg.w, tr, "pass.fixed")
	return p, p.run(firstSeed(cfg.seed), cfg.w.warmSeeds, 0)
}

// timedPass runs whole rounds, continuing from the seeds after the
// fixed pass, until budget is on the clock.
func timedPass(cfg config, tr *tracer, name string, budget time.Duration) (*pass, error) {
	p := newPass(cfg.w, tr, name)
	return p, p.run(firstSeed(cfg.seed)+uint64(cfg.w.warmSeeds), cfg.w.roundSeeds, budget)
}

func dur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// runTimed measures the end-to-end metrics, tracing off: set-up
// (repeated, median reported), then the timed pass.
func runTimed(cfg config, rep *report) error {
	setupS := make([]float64, 0, setups)
	start := processStart
	for i := 0; i < setups; i++ {
		p, err := fixedPass(cfg, nil)
		if err != nil {
			return err
		}
		setupS = append(setupS, time.Since(start).Seconds()*p.speed())
		start = time.Now()
		rep.absorb(p)
		if i == 0 {
			rep.digest = p.digest
		} else if p.digest != rep.digest {
			// Determinism is the repo's contract: the same seeds must
			// give the same outputs within one process too.
			rep.wrong("set-up %d digest %s differs from the first, %s", i+1, p.digest, rep.digest)
		}
	}

	p, err := timedPass(cfg, nil, "pass.timed", dur(cfg.seconds))
	if err != nil {
		return err
	}
	rep.absorb(p)

	p50, _ := percentile(p.runMS, 50)
	fmt.Fprintf(cfg.log, "# timed pass: %d runs in %d rounds, %.3f s on the clock; run_ms_p50 from %d samples\n",
		p.runs, p.rounds, p.wall.Seconds(), len(p.runMS))
	fmt.Fprintf(cfg.log, "# machine speed %.3f of reference; as measured: %.2f runs/s\n",
		p.speed(), float64(p.runs)/p.wall.Seconds())
	rep.emit("runs_per_s", p.runsPerSec(), "runs/s")
	rep.emit("run_ms_p50", p50, "ms")
	rep.emit("allocs_per_run", float64(p.mallocs)/float64(p.runs), "count")
	rep.emit("alloc_kb_per_run", float64(p.allocBytes)/1024/float64(p.runs), "KiB")
	rep.emit("peak_rss_mb", mean(p.peaksMiB), "MiB")
	rep.emit("setup_s", median(setupS), "s")
	return nil
}

// runTraced measures the per-layer metrics. The fixed pass gives the
// exact work counts; an untraced and a traced pass from the same first
// round give the tracing overhead; the traced pass carries the harness
// spans and the CPU profile; the layer drivers run last.
func runTraced(cfg config, rep *report) error {
	tr := newTracer()
	fixed, err := fixedPass(cfg, tr)
	if err != nil {
		return err
	}
	rep.absorb(fixed)
	rep.digest = fixed.digest

	// Whichever pass runs first runs on a colder heap, so the untraced
	// pass is split in two around the traced one.
	budget := dur(cfg.seconds * 0.3)
	plain, err := timedPass(cfg, nil, "pass.untraced", budget/2)
	if err != nil {
		return err
	}
	var traced *pass
	profile, err := cpuProfile(cfg.outDir, cfg.w.name, func() error {
		var err error
		traced, err = timedPass(cfg, tr, "pass.traced", budget)
		return err
	})
	if err != nil {
		return err
	}
	plain2, err := timedPass(cfg, nil, "pass.untraced", budget/2)
	if err != nil {
		return err
	}
	rep.absorb(plain)
	rep.absorb(traced)
	rep.absorb(plain2)
	plain.runs += plain2.runs
	plain.wall += plain2.wall
	plain.ref += plain2.ref
	for name, n := range plain2.counts {
		plain.counts[name] += n
	}

	// Source 1: harness spans of the traced pass.
	spanMetrics(cfg, rep, tr, traced)
	if err := poolMetrics(cfg, rep, traced); err != nil {
		return err
	}

	// Source 2: sampled self time by package.
	shares, samples, err := cpuShares(profile)
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.log, "# cpu shares from %d samples (%s)\n", samples, profile)
	for _, l := range shareLayers {
		rep.emit(l+".cpu_share", shares[l+".cpu_share"], "ratio")
	}
	for _, name := range []string{shareGC, shareAlloc, shareFmt, shareOther} {
		rep.emit(name, shares[name], "ratio")
	}
	rep.emit("trace_overhead_ratio", traced.runsPerSec()/plain.runsPerSec(), "ratio")
	fmt.Fprintf(cfg.log, "# untraced %.2f runs/s, traced %.2f runs/s at the reference speed; traced pass as measured: %.2f runs/s at machine speed %.3f\n",
		plain.runsPerSec(), traced.runsPerSec(), float64(traced.runs)/traced.wall.Seconds(), traced.speed())

	// Source 3: exact work counts of the fixed pass.
	countMetrics(rep, fixed, plain)

	// Source 4: layer drivers.
	layerDrivers(dur(cfg.seconds/40), rep.emit)

	path, err := tr.write(cfg.outDir, cfg.w.name)
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.log, "# %d harness spans written to %s\n", len(tr.spans), path)
	return nil
}

// spanMetrics turns the traced pass's spans into per-layer times.
// Sweep rows are per round (a round is a fixed number of runs of every
// cell); manifest rows are per iteration.
func spanMetrics(cfg config, rep *report, tr *tracer, traced *pass) {
	by := tr.byName(traced.id)
	speed := traced.speed() // spans hold measured times
	perMS := func(name string, n int) float64 {
		if n == 0 {
			return 0
		}
		return by[name].total.Seconds() * speed * 1e3 / float64(n)
	}
	sweepRounds, iterations := traced.rounds, 0
	if cfg.w.manifest {
		sweepRounds, iterations = 0, traced.runs
	}
	rep.emit("sweep.expand_ms", perMS("sweep.expand", sweepRounds), "ms")
	rep.emit("sweep.run_total_ms", perMS("sweep.run_total", sweepRounds), "ms")
	selfMS := 0.0
	if sweepRounds > 0 {
		selfMS = by["sweep.run_total"].self.Seconds() * speed * 1e3 / float64(sweepRounds)
	}
	rep.emit("sweep.run_self_ms", selfMS, "ms")
	rep.emit("sweep.aggregate_write_ms", perMS("sweep.aggregate_write", sweepRounds), "ms")
	// The tail of the per-run times, where enough samples back it.
	p90, backed := percentile(traced.runMS, 90)
	if !backed {
		fmt.Fprintf(cfg.log, "# sweep.run_ms_p90 needs %d samples beyond it, the traced pass has %d in all: reported as 0; raise -seconds\n",
			minBeyond, len(traced.runMS))
		p90 = 0
	}
	rep.emit("sweep.run_ms_p90", p90, "ms")
	for _, fam := range []string{"paper-core", "fault", "baseline", "fleet"} {
		v := 0.0
		if n := traced.famRuns[fam]; n > 0 {
			v = float64(n) / traced.famRef[fam]
		}
		rep.emit("sweep."+fam+".runs_per_s", v, "runs/s")
	}
	rep.emit("fleet.run_spans_on_ms", perMS("fleet.run_spans_on", iterations), "ms")
	rep.emit("telemetry.stitch_ms", perMS("telemetry.stitch", iterations), "ms")
	rep.emit("telemetry.read_validate_ms", perMS("telemetry.read_validate", iterations), "ms")
	rep.emit("telemetry.perfetto_ms", perMS("telemetry.perfetto", iterations), "ms")
	writeRate, manifestRate := 0.0, 0.0
	if cfg.w.manifest {
		mib := float64(traced.manifestBytes) / (1 << 20)
		writeRate = mib / (by["telemetry.write"].total.Seconds() * speed)
		manifestRate = mib / traced.manifestRef
	}
	rep.emit("telemetry.write_mb_per_s", writeRate, "MiB/s")
	rep.emit("telemetry.manifest_mb_per_s", manifestRate, "MiB/s")
}

// poolMetrics reports what a second worker buys — report-only on a
// shared 2-core box — and, on the manifest workload, what the full
// span log costs over the counters-only run of the same specs.
func poolMetrics(cfg config, rep *report, traced *pass) error {
	m := cfg.w.matrix
	m.Seeds = sweep.SeedRange(firstSeed(cfg.seed), cfg.w.warmSeeds)
	specs, err := m.Specs()
	if err != nil {
		return err
	}
	// refSeconds times fn at the reference machine speed.
	refSeconds := func(fn func() error) (float64, error) {
		t := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		d := time.Since(t)
		return d.Seconds() * speedAfter(d), nil
	}
	sweepWith := func(workers int) func() error {
		return func() error {
			_, err := sweep.Run(m, sweep.Options{Workers: workers})
			return err
		}
	}

	w1, err := refSeconds(sweepWith(1))
	if err != nil {
		return err
	}
	sweepSpeedup, spanlog := 0.0, 0.0
	if cfg.w.manifest {
		// w1 is the counters-only run of the cells whose spans-on runs
		// the traced pass timed.
		spanlog = (traced.spansOnRef / float64(traced.runs)) / (w1 / float64(len(specs)))
	} else {
		w2, err := refSeconds(sweepWith(2))
		if err != nil {
			return err
		}
		sweepSpeedup = w1 / w2
	}
	rep.emit("sweep.pool_speedup_w2", sweepSpeedup, "ratio")
	rep.emit("telemetry.spanlog_overhead_ratio", spanlog, "ratio")

	fleetSpeedup := 0.0
	if family(specs[0].Scenario) == "fleet" {
		var ref [2]float64
		for i, workers := range []int{1, 2} {
			if ref[i], err = refSeconds(func() error {
				_, _, err := sweep.RunFleetCluster(specs[0], workers)
				return err
			}); err != nil {
				return err
			}
		}
		fleetSpeedup = ref[0] / ref[1]
	}
	rep.emit("fleet.pool_speedup_w2", fleetSpeedup, "ratio")
	return nil
}

// countMetrics reports the work the simulator counted for itself on
// the fixed pass. These repeat exactly for a given -seed; a change in
// any of them between commits means the simulated behaviour changed.
func countMetrics(rep *report, fixed, plain *pass) {
	c := fixed.counts
	ratio := func(num, den int64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	dispatches := func(c map[string]int64) int64 {
		return c["sched.dispatch.granted"] + c["sched.dispatch.overtime"] + c["sched.dispatch.grace"] +
			c["sched.dispatch.sporadic"] + c["sched.dispatch.idle"]
	}
	count := func(name string, v int64) { rep.emit(name, float64(v), "count") }

	count("sim.switches", c["sim.switch.voluntary"]+c["sim.switch.involuntary"])
	count("sim.interrupts", c["sim.interrupt.count"])
	count("sched.dispatches", dispatches(c))
	count("sched.period_rollovers", c["sched.period.rollovers"])
	count("sched.grants_collected", c["sched.grants.collected"])
	count("rm.admit_accepted", c["rm.admit.accepted"])
	count("rm.admit_rejected", c["rm.admit.rejected"])
	rep.emit("rm.admit_accept_ratio", ratio(c["rm.admit.accepted"], c["rm.admit.accepted"]+c["rm.admit.rejected"]), "ratio")
	count("rm.grant_recomputes", c["rm.grants.recompute"])
	rep.emit("rm.grant_fastpath_ratio", ratio(c["rm.grants.fastpath"], c["rm.grants.fastpath"]+c["rm.grants.recompute"]), "ratio")
	count("rm.sheds", c["rm.degrade.sheds"])
	count("policy.consults", c["policy.box.consults"])
	count("invariant.violations", c["invariant.violations"])
	count("fault.fired", c["fault.fired"])
	count("fleet.placed", c["fleet.placed"])
	count("fleet.spillovers", c["fleet.spillovers"])
	count("fleet.retries", c["fleet.retries"])
	count("fleet.migrations", c["fleet.migrations"])
	count("fleet.node_restarts", c["fleet.node_restarts"])
	count("fleet.flight_dumps", c["fleet.flight.dumps"])
	// Wasted work: node-level admission attempts per placement won.
	rep.emit("fleet.admit_attempts_per_placed", ratio(c["rm.admit.accepted"]+c["rm.admit.rejected"], c["fleet.placed"]), "ratio")
	count("telemetry.spans", c["telemetry.spans"])
	count("telemetry.manifest_bytes", c["telemetry.manifest_bytes"])
	// Host time per simulated event, tracing off.
	rep.emit("sched.host_ns_per_dispatch", plain.ref*1e9/math.Max(1, float64(dispatches(plain.counts))), "ns")
}

// printReport prints every metric by name and unit, then the one-line
// JSON result the driver reads.
func printReport(w io.Writer, workload string, rep *report) {
	fmt.Fprintf(w, "# workload %s: stats_digest %s\n", workload, rep.digest)
	for _, p := range rep.problems {
		fmt.Fprintf(w, "# WRONG OUTPUT: %s\n", p)
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]jsonMetric, len(rep.metrics))
	for _, m := range rep.metrics {
		fmt.Fprintf(w, "%-34s %16.6f %s\n", m.Name, m.Value, m.Unit)
		ms[m.Name] = jsonMetric{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{rep.correct, rep.attempted, rep.failed, ms})
	if err != nil {
		panic(err) // finite floats and strings always marshal
	}
	fmt.Fprintf(w, "%s\n", line)
}

// rdsweep runs parallel Monte-Carlo sweeps over the Resource
// Distributor: a matrix of (scenario × switch-cost model × policy ×
// seed) simulations executed on a bounded worker pool, aggregated
// into per-cell loss rates, utilization, overhead fractions and
// admission-latency percentiles. The aggregate is independent of
// -workers: each run owns its single-goroutine kernel, and results
// are folded in a fixed order.
//
//	go run ./cmd/rdsweep -scenarios all -seeds 64 -workers 8
//	go run ./cmd/rdsweep -scenarios settop,overload -costs paper -json sweep.json
//	go run ./cmd/rdsweep -scenarios fault -seeds 32   # the fault-injection family
//	go run ./cmd/rdsweep -scenarios baseline -seeds 8 # the §3.4 comparator family
//	go run ./cmd/rdsweep -scenarios fleet -seeds 8    # the multi-node fleet family
//	go run ./cmd/rdsweep -list
//
// A cell's "policy" is a value of the one axis its scenario varies;
// -policies filters every scenario's own values and never adds any:
//
//	axis        values                                          varied by
//	policy-box  invent, audio-first, video-first                settop, media, overload, quiescent, studio, stress, fault-*
//	comparator  invent, baseline-{fairshare,lottery,stride,cfs} baseline-media, baseline-overload
//	allocator   invent, streamer-{maxmin,maxthru}               baseline-streamer
//	placement   first-fit, least-loaded, rr-hash                fleet-*
//
// Cluster-manifest mode runs a single fleet-family spec with full span
// logging and writes its stitched rdtel/v2 cluster manifest (and,
// optionally, the per-node manifests it was stitched from):
//
//	go run ./cmd/rdsweep -scenarios fleet-crash -cluster-manifest cluster.json
//	go run ./cmd/rdsweep -scenarios fleet-crash -cluster-manifest cluster.json \
//	    -node-manifests dir/ -cluster-workers 4
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/ticks"
)

func main() { os.Exit(run()) }

// run is main's body; it returns the exit status (1: some runs failed,
// 2: the sweep could not run) so deferred profile writers still fire.
func run() int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "rdsweep:", err)
		return 2
	}
	var (
		scenariosFlag = flag.String("scenarios", "all", "comma-separated scenario names, 'all', or a family name ('fault', 'baseline', 'fleet') for every member scenario (see -list)")
		costsFlag     = flag.String("costs", strings.Join(sweep.DefaultCostModels(), ","), "comma-separated switch-cost models, or 'all'")
		policiesFlag  = flag.String("policies", "all", "comma-separated policy variants, or 'all'")
		seedsFlag     = flag.Int("seeds", 16, "number of seeds per cell")
		seedBase      = flag.Uint64("seed-base", 1, "first seed; runs use seed-base .. seed-base+seeds-1")
		workers       = flag.Int("workers", 0, "worker pool size; 0 = GOMAXPROCS. The cores it leaves idle advance fleet cluster nodes; neither affects results")
		horizonMS     = flag.Int64("horizon-ms", 0, "simulated duration per run in ms; 0 = default (2000)")
		jsonPath      = flag.String("json", "", "write machine-readable aggregates to this file ('-' for stdout)")
		quiet         = flag.Bool("quiet", false, "suppress the human-readable table")
		list          = flag.Bool("list", false, "list scenarios, cost models and policy axes, then exit")
		cpuProfile    = flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		memProfile    = flag.String("memprofile", "", "write an allocation profile (alloc_objects/alloc_space) to this file")

		clusterManifest = flag.String("cluster-manifest", "", "run one fleet-family spec with full span logging and write its stitched rdtel/v2 cluster manifest to this file ('-' for stdout); requires exactly one scenario, cost model, policy and seed")
		nodeManifests   = flag.String("node-manifests", "", "with -cluster-manifest: also write the coordinator and per-node manifests into this directory (coord.manifest.json, node000.manifest.json, ...)")
		clusterWorkers  = flag.Int("cluster-workers", 1, "with -cluster-manifest: cluster node-advance pool size (never affects output bytes)")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		// Record every allocation so small sweeps still produce a
		// usable alloc_objects profile.
		runtime.MemProfileRate = 1
		f, err := os.Create(*memProfile)
		if err != nil {
			return fail(err)
		}
		defer func() {
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fail(err)
			}
			f.Close()
		}()
	}

	if *list {
		width := 0
		for _, name := range sweep.ScenarioNames() {
			width = max(width, len(name))
		}
		fmt.Println("scenarios:")
		for _, sc := range sweep.Scenarios() {
			fmt.Printf("  %-*s %s (%s: %s)\n", width, sc.Name, sc.Desc, sc.Axis, strings.Join(sc.Policies, ", "))
		}
		fmt.Printf("cost models: %s (default %s)\n",
			strings.Join(sweep.CostModelNames(), ", "), strings.Join(sweep.DefaultCostModels(), ", "))
		fmt.Println("policy axes (a scenario varies exactly one):")
		for _, a := range sweep.Axes() {
			fmt.Printf("  %-*s %s\n", width, a, strings.Join(a.Values(), ", "))
		}
		return 0
	}

	if *clusterManifest != "" {
		costsSet := false
		flag.Visit(func(f *flag.Flag) { costsSet = costsSet || f.Name == "costs" })
		spec, err := clusterSpec(*scenariosFlag, *costsFlag, costsSet, *policiesFlag, *seedBase, *horizonMS)
		if err == nil {
			err = runClusterManifest(spec, *clusterWorkers, *clusterManifest, *nodeManifests)
		}
		if err != nil {
			return fail(err)
		}
		return 0
	}
	if *nodeManifests != "" {
		return fail(errors.New("-node-manifests requires -cluster-manifest"))
	}

	m := sweep.Matrix{
		Scenarios:  splitOrAll(*scenariosFlag),
		CostModels: splitOrAll(*costsFlag),
		Policies:   splitOrAll(*policiesFlag),
		Seeds:      sweep.SeedRange(*seedBase, *seedsFlag),
		Horizon:    ticks.FromMilliseconds(*horizonMS),
	}
	res, err := sweep.Run(m, sweep.Options{Workers: *workers})
	if err != nil {
		return fail(err)
	}

	if !*quiet {
		fmt.Printf("rdsweep: %d runs (workers=%s)\n\n", res.TotalRuns, workersLabel(*workers))
		fmt.Print(res.Table())
	}
	if *jsonPath != "" {
		if err := telemetry.WriteFile(*jsonPath, res.WriteJSON); err != nil {
			return fail(err)
		}
	}
	if n := res.Errors(); n > 0 {
		fmt.Fprintf(os.Stderr, "rdsweep: %d run(s) failed\n", n)
		return 1
	}
	return 0
}

// clusterSpec resolves the -cluster-manifest mode's flags to its one
// run. costsSet reports whether -costs was given: left untouched, its
// two-model default picks the paper model; given, it must name one.
func clusterSpec(scenarios, costs string, costsSet bool, policies string, seed uint64, horizonMS int64) (sweep.RunSpec, error) {
	scenario, err := singleValue("scenarios", splitOrAll(scenarios), "")
	if err != nil {
		return sweep.RunSpec{}, err
	}
	if !costsSet {
		costs = "paper"
	}
	cost, err := singleValue("costs", splitOrAll(costs), "paper")
	if err != nil {
		return sweep.RunSpec{}, err
	}
	// An unnamed policy falls back to the first value of the
	// scenario's axis.
	fallback := ""
	for _, sc := range sweep.Scenarios() {
		if sc.Name == scenario {
			fallback = sc.Policies[0]
		}
	}
	if fallback == "" {
		return sweep.RunSpec{}, fmt.Errorf("unknown scenario %q (see -list)", scenario)
	}
	policy, err := singleValue("policies", splitOrAll(policies), fallback)
	if err != nil {
		return sweep.RunSpec{}, err
	}
	if horizonMS < 0 {
		return sweep.RunSpec{}, fmt.Errorf("-horizon-ms %d must not be negative", horizonMS)
	}
	horizon := ticks.FromMilliseconds(horizonMS)
	if horizon == 0 {
		horizon = sweep.DefaultHorizon
	}
	return sweep.RunSpec{
		Scenario: scenario, CostModel: cost, Policy: policy,
		Seed: seed, Horizon: horizon,
	}, nil
}

// runClusterManifest is the -cluster-manifest mode: spec's fleet-family
// run with full span logging, its stitched cluster manifest written to
// path and (optionally) the coordinator/per-node manifests it stitches
// into a directory.
func runClusterManifest(spec sweep.RunSpec, workers int, path, nodeDir string) error {
	c, _, err := sweep.RunFleetCluster(spec, workers)
	if err != nil {
		return err
	}

	cluster, err := c.Manifest()
	if err != nil {
		return err
	}
	if err := telemetry.WriteFile(path, cluster.WriteJSON); err != nil {
		return err
	}
	if nodeDir == "" {
		return nil
	}
	if err := os.MkdirAll(nodeDir, 0o755); err != nil {
		return err
	}
	coord, err := c.CoordManifest()
	if err != nil {
		return err
	}
	if err := telemetry.WriteFile(filepath.Join(nodeDir, "coord.manifest.json"), coord.WriteJSON); err != nil {
		return err
	}
	for i := 0; i < c.NodeCount(); i++ {
		nm, err := c.NodeManifest(i)
		if err != nil {
			return err
		}
		name := fmt.Sprintf("node%03d.manifest.json", i)
		if err := telemetry.WriteFile(filepath.Join(nodeDir, name), nm.WriteJSON); err != nil {
			return err
		}
	}
	return nil
}

// singleValue reduces a split flag to the one value cluster mode
// needs: an explicit single entry wins, 'all'/empty falls back to
// fallback (or errors when there is none), multiple entries error.
func singleValue(name string, vals []string, fallback string) (string, error) {
	switch {
	case len(vals) == 1:
		return vals[0], nil
	case len(vals) == 0 && fallback != "":
		return fallback, nil
	case len(vals) == 0:
		return "", fmt.Errorf("-cluster-manifest needs exactly one value for -%s", name)
	default:
		return "", fmt.Errorf("-cluster-manifest needs exactly one value for -%s, got %d", name, len(vals))
	}
}

func splitOrAll(s string) []string {
	s = strings.TrimSpace(s)
	if s == "" || s == "all" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func workersLabel(n int) string {
	if n <= 0 {
		return "auto"
	}
	return strconv.Itoa(n)
}

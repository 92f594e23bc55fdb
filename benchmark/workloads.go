package main

import (
	"fmt"
	"strings"

	"repro/internal/sweep"
	"repro/internal/ticks"
)

// workload is one frozen set of inputs. The matrices are explicit
// lists — never "all" — with the policy aliases that re-run `invent`
// under another name left out, so a change to what a scenario
// advertises cannot change what is measured here.
type workload struct {
	name string

	// matrix holds the cell lists; Seeds is filled per pass. On the
	// cluster-manifest workload it is the list of specs each iteration
	// runs→stitches→writes→reads→exports.
	matrix sweep.Matrix
	// manifest marks the cluster-manifest workload: one run is a full
	// RunFleetCluster → Manifest → WriteJSON → ReadManifest →
	// WritePerfetto iteration instead of one sweep.Run run.
	manifest bool

	// warmSeeds sizes the fixed pass (≈1 s on the reference box): it
	// warms the process, is timed as setup_s, and — being the same
	// work for a given -seed on every commit — is what stats_digest
	// and the exact work counts are taken from.
	warmSeeds int
	// roundSeeds sizes one round of the timed pass. A round runs every
	// cell roundSeeds times, so any number of whole rounds has the
	// same cell mix; the pass ends at the first round boundary after
	// -seconds.
	roundSeeds int
}

var (
	costs      = []string{"zero", "paper"}
	placements = []string{sweep.PolicyFleetFirstFit, sweep.PolicyFleetLeastLoaded, sweep.PolicyFleetRRHash}
	paperCore  = sweep.Matrix{
		// settop{invent,video-first}; media, quiescent, studio × 3;
		// overload, stress {invent}: 13 cells per cost model.
		Scenarios:  []string{"settop", "media", "quiescent", "studio", "overload", "stress"},
		CostModels: costs,
		Policies:   []string{sweep.PolicyInvent, sweep.PolicyAudioFirst, sweep.PolicyVideoFirst},
	}
)

func withHorizon(m sweep.Matrix, ms int64) sweep.Matrix {
	m.Horizon = ticks.FromMilliseconds(ms)
	return m
}

// workloads lists the six in the order BENCHMARK.json declares them.
// Seed counts were sized on the reference 2-core box; per-run costs
// in the comments are from that sizing.
func workloads() []workload {
	return []workload{
		{ // ≈0.25 ms/run: construction, admission and grant set-up are a large share
			name:   "paper-short",
			matrix: withHorizon(paperCore, 2000), warmSeeds: 160, roundSeeds: 16,
		},
		{ // ≈2.6 ms/run: same cells, steady state dominates
			name:   "paper-long",
			matrix: withHorizon(paperCore, 30000), warmSeeds: 16, roundSeeds: 2,
		},
		{ // ≈0.17 ms/run: checker, injectors, governor, comparators, streamer allocators
			name: "fault-baseline",
			matrix: withHorizon(sweep.Matrix{
				Scenarios: []string{
					"fault-overrun", "fault-crash", "fault-storm", "fault-jitter", "fault-policy",
					"baseline-media", "baseline-overload", "baseline-streamer",
				},
				CostModels: costs,
				Policies: []string{
					sweep.PolicyInvent,
					sweep.PolicyBaselineFairShare, sweep.PolicyBaselineLottery,
					sweep.PolicyBaselineStride, sweep.PolicyBaselineCFS,
					sweep.PolicyStreamerMaxMin, sweep.PolicyStreamerMaxThru,
				},
			}, 2000), warmSeeds: 160, roundSeeds: 16,
		},
		{ // ≈9 ms/run: 16 tight nodes, several denials per accept
			name: "fleet-deny",
			matrix: withHorizon(sweep.Matrix{
				Scenarios: []string{"fleet-spill"}, CostModels: costs, Policies: placements,
			}, 2000), warmSeeds: 16, roundSeeds: 4,
		},
		{ // ≈71 ms/run: 120 nodes, crash/restart + storm
			name: "fleet-wide",
			matrix: withHorizon(sweep.Matrix{
				Scenarios: []string{"fleet-crash"}, CostModels: costs, Policies: placements,
			}, 2000), warmSeeds: 2, roundSeeds: 1,
		},
		{ // ≈0.4 s and ≈11 MB per iteration: full span log on, stitch, serialise
			name: "cluster-manifest", manifest: true,
			matrix: withHorizon(sweep.Matrix{
				Scenarios: []string{"fleet-crash"}, CostModels: []string{"paper"}, Policies: placements,
			}, 2000), warmSeeds: 1, roundSeeds: 1,
		},
	}
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s, or all)", name, strings.Join(names, ", "))
}

// firstSeed maps the -seed argument to the workload's first matrix
// seed. Different -seed values give disjoint seed ranges; -seed 1
// starts at 1, rdsweep's own default.
func firstSeed(seed uint64) uint64 { return (seed-1)<<20 + 1 }

// family names the scenario family of a run, the row key of the
// per-family throughput ledger.
func family(scenario string) string {
	for _, f := range []string{"fault", "baseline", "fleet"} {
		if strings.HasPrefix(scenario, f+"-") {
			return f
		}
	}
	return "paper-core"
}

// faultFree reports whether a scenario injects no faults. Only there
// is a deadline miss a wrong output: under an injected overrun, storm
// or crash the contract is "recorded, never silent", which the
// invariant checker audits and a miss count alone cannot.
func faultFree(scenario string) bool {
	return family(scenario) != "fault" && scenario != "fleet-crash"
}

// rdPolicy reports whether a cell runs the Resource Distributor (as
// opposed to a comparator scheduler or streamer allocator standing in
// for it), i.e. whether "admitted ⇒ guaranteed" must hold on it.
func rdPolicy(policy string) bool {
	switch policy {
	case sweep.PolicyInvent, sweep.PolicyAudioFirst, sweep.PolicyVideoFirst,
		sweep.PolicyFleetFirstFit, sweep.PolicyFleetLeastLoaded, sweep.PolicyFleetRRHash:
		return true
	}
	return false
}

// Command rdbench regenerates every table and figure from the
// paper's evaluation (§6), printing paper-reported values next to the
// values measured on this reproduction's simulator. The paper's task
// sets come from internal/workload's builders, and the sweep-*
// experiments run fixed matrices of rdsweep registry cells. Its output
// is a pure function of the source: golden_test.go pins every byte of it
// against testdata/rdbench.golden (go test ./cmd/rdbench; -update
// regenerates), and EXPERIMENTS.md quotes that file.
//
// Usage:
//
//	rdbench             # run every experiment
//	rdbench -exp fig5   # run one
//	rdbench -list       # list experiments
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/sweep"
)

// experiment is one reproducible artifact from the paper.
type experiment struct {
	name  string
	title string
	run   func(w io.Writer)
}

// experiments is every table, figure, ablation and cell matrix
// rdbench runs, in print order. They stage fixed task sets and drop
// admission errors: a denial changes the golden-pinned output.
var experiments = []experiment{
	{"table2", "Table 2: MPEG resource list", expTable2},
	{"table3", "Table 3: 3D graphics resource list", expTable3},
	{"table4", "Table 4: grant set for modem + 3D + MPEG", expTable4},
	{"table5", "Table 5: example Policy Box", expTable5},
	{"fig3", "Figure 3: EDF schedule of the Table 4 grant set", expFig3},
	{"switch", "§6.1: context-switch costs", expSwitch},
	{"admission", "§6.2: admissions control cost", expAdmission},
	{"grantset", "§6.3: grant-set determination cost", expGrantSet},
	{"preempt", "§6.4: managed preemption cost", expPreempt},
	{"fig4", "Figure 4 / §6.5: four periodic threads + Sporadic Server", expFig4},
	{"table6", "Table 6: resource list for threads 2-6", expTable6},
	{"fig5", "Figure 5 / §6.5: overload staircase", expFig5},
	{"baselines", "§3.4/3.5: RD vs fair-share vs capacity reserves", expBaselines},
	{"clock", "§5.4: external-clock skew compensation", expClock},
	{"periods", "§6.1: arbitrary vs harmonic periods (the Rialto contrast)", expPeriods},
	{"ablate-override", "ablation: small-overlap override window (§4.2)", expAblateOverride},
	{"ablate-grace", "ablation: grace period length (§5.6's open question)", expAblateGrace},
	{"ablate-reserve", "ablation: interrupt reserve size (§5.2)", expAblateReserve},
	{"ablate-slice", "ablation: Sporadic Server assignment slice (§5.1)", expAblateSlice},
	{"interrupts", "§5.2: interrupt load vs the reserve", expInterrupts},
	{"sporadic-latency", "§5.1: sporadic response vs server allocation", expSporadicLatency},
	{"notify", "§3.5: notification-based shedding vs the Policy Box", expNotify},
	{"latency", "§4.2: the 2·period − 2·CPU latency bound", expLatency},
	{"streamer", "Data Streamer: bandwidth grants metering real DMA", expStreamer},
	{"fig4fix", "§6.5: the Figure 4 application bug, fixed with events", expFig4Fix},
	{"sweep-core", "rdsweep cells: the six paper-core scenarios, paper costs, 8 seeds × 2 s", expSweepCore},
	{"sweep-baseline", "rdsweep cells: the baseline family, paper costs, 8 seeds × 900 ms", expSweepBaseline},
	{"sweep-fleet", "rdsweep cells: the fleet family, paper costs, 8 seeds × 2 s", expSweepFleet},
}

// run writes each experiment under its banner with a blank line after
// it — a section of the golden.
func run(w io.Writer, exps []experiment) {
	for _, e := range exps {
		banner(w, e.title)
		e.run(w)
		fmt.Fprintln(w)
	}
}

func main() {
	exp := flag.String("exp", "", "run a single experiment by name")
	list := flag.Bool("list", false, "list experiment names")
	flag.Parse()

	if *list {
		for _, e := range experiments {
			fmt.Printf("%-10s %s\n", e.name, e.title)
		}
		return
	}
	exps := experiments
	if *exp != "" {
		i := slices.IndexFunc(experiments, func(e experiment) bool { return e.name == *exp })
		if i < 0 {
			fmt.Fprintf(os.Stderr, "rdbench: unknown experiment %q (try -list)\n", *exp)
			os.Exit(2)
		}
		exps = experiments[i : i+1]
	}
	run(os.Stdout, exps)
}

// cells runs a matrix of sweep registry cells on one worker and prints
// sweep's own table, so rdbench never re-stages a sweep scenario.
func cells(w io.Writer, m sweep.Matrix) {
	res, err := sweep.Run(m, sweep.Options{Workers: 1})
	if err != nil {
		fmt.Fprintln(w, "  ", err)
		return
	}
	fmt.Fprint(w, res.Table())
}

// The sweep-* experiments: each a matrix of registry cells under the
// paper's cost model, 8 seeds.
var paperCosts, eightSeeds = []string{"paper"}, sweep.SeedRange(1, 8)

func expSweepCore(w io.Writer) {
	paperCore := []string{"settop", "media", "overload", "quiescent", "studio", "stress"}
	cells(w, sweep.Matrix{Scenarios: paperCore, CostModels: paperCosts, Seeds: eightSeeds})
}

func expSweepBaseline(w io.Writer) {
	cells(w, sweep.Matrix{Scenarios: []string{sweep.BaselineFamily}, CostModels: paperCosts, Seeds: eightSeeds, Horizon: 900 * ms})
}

func expSweepFleet(w io.Writer) {
	cells(w, sweep.Matrix{Scenarios: []string{sweep.FleetFamily}, CostModels: paperCosts, Seeds: eightSeeds})
}

func banner(w io.Writer, title string) {
	line := strings.Repeat("=", len(title)+4)
	fmt.Fprintf(w, "%s\n| %s |\n%s\n", line, title, line)
}

// Command rdsim runs a named Resource Distributor scenario in the
// virtual-time simulator and prints the grant set, schedule timeline,
// per-task accounting, and application quality.
//
// Usage:
//
//	rdsim -scenario settop -horizon 2s -gantt 100ms
//	rdsim -list
//
// Scenarios: settop (Table 4 / Figure 3), fig4, fig5, quiescent
// (§5.3), avsync (§5.4 phase lock).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/extclock"
	"repro/internal/task"
	"repro/internal/telemetry"
	"repro/internal/ticks"
	"repro/internal/trace"
	"repro/internal/workload"
)

const ms = ticks.PerMillisecond

type scenario struct {
	name string
	desc string
	// setup admits the scenario's tasks, returning the error of a denied
	// admission. report, when non-nil, runs after the run's summary: it
	// prints the application quality, or exits on a denial made mid-run.
	setup func(d *core.Distributor) (report func(), err error)
	// reserve is the interrupt reserve percentage for the run.
	reserve int64
}

var scenarios = []scenario{
	{name: "settop", desc: "modem + 3D + MPEG (Table 4, Figure 3)", setup: setupSettop},
	{name: "fig4", desc: "four periodic threads + Sporadic Server (Figure 4)", setup: setupFig4},
	{name: "fig5", desc: "overload staircase (Table 6, Figure 5)", setup: setupFig5, reserve: 4},
	{name: "quiescent", desc: "DVD + audio + telephone-answering modem (§5.3)", setup: setupQuiescent},
	{name: "avsync", desc: "display phase-locked to a drifting clock (§5.4)", setup: setupAVSync},
}

func main() {
	name := flag.String("scenario", "settop", "scenario to run")
	list := flag.Bool("list", false, "list scenarios")
	horizon := flag.Duration("horizon", 2*time.Second, "simulated run length")
	ganttWin := flag.Duration("gantt", 100*time.Millisecond, "timeline window rendered from t=0")
	cols := flag.Int("cols", 100, "timeline width in characters")
	seed := flag.Uint64("seed", 1, "simulation seed")
	jsonOut := flag.String("json", "", "write the full trace as JSON to this file ('-' for stdout)")
	manifestOut := flag.String("manifest", "", "write the rdtel/v2 run manifest as JSON to this file ('-' for stdout)")
	build := flag.String("build", defaultBuild, "build identifier stamped into the manifest ('' to omit, for byte-comparable output)")
	flag.Parse()

	if *list {
		for _, s := range scenarios {
			fmt.Printf("%-10s %s\n", s.name, s.desc)
		}
		return
	}
	var sc *scenario
	for i := range scenarios {
		if scenarios[i].name == *name {
			sc = &scenarios[i]
		}
	}
	if sc == nil {
		fmt.Fprintf(os.Stderr, "rdsim: unknown scenario %q (try -list)\n", *name)
		os.Exit(2)
	}

	rec := trace.New()
	rec.Reserve(trace.HintForHorizon(ticks.FromDuration(*horizon)))
	var tel *telemetry.Set
	if *manifestOut != "" {
		tel = telemetry.NewSet()
	}
	d := core.New(core.Config{
		Seed:                    *seed,
		InterruptReservePercent: sc.reserve,
		Observer:                rec,
		Telemetry:               tel,
	})
	report, err := sc.setup(d)
	if err != nil {
		fatal(err)
	}
	d.Run(ticks.FromDuration(*horizon))

	fmt.Printf("scenario %q after %v simulated:\n\n", sc.name, *horizon)
	fmt.Println("grant set:")
	gs := d.Grants()
	for _, g := range gs.All() {
		fmt.Printf("  %v\n", g)
	}
	fmt.Printf("  total %.1f%% of CPU\n\n", 100*gs.TotalFrac().Float())

	fmt.Printf("timeline, first %v:\n", *ganttWin)
	fmt.Println(rec.Gantt(0, ticks.FromDuration(*ganttWin), *cols))

	fmt.Println("per-task accounting:")
	for _, id := range rec.TaskIDs() {
		st, ok := d.Stats(id)
		if !ok {
			continue
		}
		fmt.Printf("  %-10s periods=%-5d misses=%-3d granted=%-10v used=%-10v overtime=%v\n",
			rec.NameOf(id), st.Periods, st.Misses, st.GrantedTicks, st.UsedTicks, st.OvertimeTicks)
	}

	ks := d.KernelStats()
	fmt.Printf("\nkernel: %d voluntary + %d involuntary switches (%.2f%% of CPU), idle %v\n",
		ks.VolSwitches, ks.InvolSwitches, 100*ks.SwitchOverheadFraction(), ks.IdleTicks)
	fmt.Printf("deadline misses: %d\n", rec.MissCount())

	if report != nil {
		report()
	}

	if *jsonOut != "" {
		if err := telemetry.WriteFile(*jsonOut, rec.WriteJSON); err != nil {
			fatal(err)
		}
		if *jsonOut != "-" {
			fmt.Printf("\ntrace written to %s\n", *jsonOut)
		}
	}

	if *manifestOut != "" {
		man := telemetry.NewManifest(*seed)
		if *build == defaultBuild {
			man.Build = telemetry.GitDescribe()
		} else {
			man.Build = *build
		}
		man.ConfigDigest = telemetry.ConfigDigest(struct {
			Scenario string
			Horizon  int64
			Seed     uint64
		}{sc.name, int64(ticks.FromDuration(*horizon)), *seed})
		man.HorizonTicks = ticks.FromDuration(*horizon)
		for _, id := range rec.TaskIDs() {
			man.Tasks = append(man.Tasks, telemetry.TaskInfo{ID: int64(id), Name: rec.NameOf(id)})
		}
		man.Fill(tel)
		man.DeriveTotals()
		if err := telemetry.WriteFile(*manifestOut, man.WriteJSON); err != nil {
			fatal(err)
		}
		if *manifestOut != "-" {
			fmt.Printf("manifest written to %s\n", *manifestOut)
		}
	}
}

// defaultBuild is the -build sentinel meaning "ask git describe".
const defaultBuild = "auto"

func setupSettop(d *core.Distributor) (func(), error) {
	modem, g3d, mpeg, err := workload.Settop(d)
	return func() {
		mpeg.Flush()
		fmt.Printf("\napplication quality:\n  modem: %s\n", modem.Stats().QualityString())
		fmt.Printf("  3d:    %s\n", g3d.Stats().QualityString())
		fmt.Printf("  mpeg:  %s\n", mpeg.Stats().QualityString())
	}, err
}

func setupFig4(d *core.Distributor) (func(), error) { return nil, workload.Figure4(d) }

// setupFig5's threads are admitted mid-run, so a denial is found after
// it: a thread the run reached that holds no ID.
func setupFig5(d *core.Distributor) (func(), error) {
	_, threads, err := workload.Figure5(d)
	return func() {
		for i, id := range threads {
			if id == task.NoID && d.Now() > ticks.Ticks(i)*workload.Figure5Stagger {
				fatal(fmt.Errorf("fig5: thread%d was denied admission", i+2))
			}
		}
	}, err
}

func setupQuiescent(d *core.Distributor) (func(), error) {
	_, ac3, modem, err := workload.Quiescent(d, 500*ms)
	return func() {
		ac3.Flush()
		fmt.Printf("\napplication quality:\n  ac3:   %s\n", ac3.Stats().QualityString())
		fmt.Printf("  modem: %s\n", modem.Stats().QualityString())
	}, err
}

func setupAVSync(d *core.Distributor) (func(), error) {
	pl, err := extclock.NewPhaseLock(extclock.New(120, 0), 270_000, 269_500)
	if err != nil {
		return nil, err
	}
	display, err := workload.PhaseLockedDisplay(d, pl, 269_500, 1,
		func(ctx task.RunContext) ticks.Ticks { return pl.Insertion(ctx.PeriodStart) })
	if err != nil {
		return nil, err
	}
	_, err = d.RequestAdmittance(&task.Task{
		Name: "worker", List: task.SingleLevel(10*ms, 3*ms, "W"),
		Body: task.PeriodicWork(3 * ms),
	})
	return func() {
		fmt.Printf("\napplication quality:\n  display: %d periods, max phase error %.1fus against the drifting clock\n",
			display.Periods, display.MaxPhaseError.MicrosecondsF())
	}, err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rdsim:", err)
	os.Exit(1)
}

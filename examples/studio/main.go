// Studio is the capstone scenario: a MAP1000-class set-top/studio
// box exercising every Resource Distributor feature at once over ten
// simulated seconds —
//
//   - a live MPEG transport stream (bounded buffer, blocking decoder)
//   - AC3 audio, protected by a user policy (audio before video, §4.3)
//   - a 3D overlay renderer holding the exclusive FFU, shedding by
//     policy when the machine fills
//   - a quiescent telephone-answering modem that wakes mid-run (§5.3)
//   - a Sporadic Server running background jobs (§5.1)
//   - periodic interrupt load inside the §5.2 reserve
//   - a display task phase-locked to a drifting refresh crystal (§5.4)
//
// Every grant is delivered in every period: zero deadline misses.
//
//	go run ./examples/studio
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/extclock"
	"repro/internal/policy"
	"repro/internal/rm"
	"repro/internal/task"
	"repro/internal/ticks"
	"repro/internal/trace"
	"repro/internal/workload"
)

const ms = ticks.PerMillisecond

func main() {
	// Policy: overload demotions walk least-important-first (§6.3),
	// so audio must outrank the overlay — "most users are more
	// sensitive to the quality of audio" (§4.3). The overlay is the
	// designated shedding victim when the modem wakes.
	box := policy.NewBox()
	members := map[string]policy.MemberID{}
	for _, n := range []string{"ac3", "mpeg-live", "overlay", "modem", "display", "sporadic"} {
		members[n] = box.Register(n)
	}
	shares := policy.Ranking{
		members["mpeg-live"]: 33, members["ac3"]: 25, members["overlay"]: 15,
		members["display"]: 12, members["modem"]: 10, members["sporadic"]: 1,
	}
	if err := box.SetDefault(policy.Policy{Shares: shares}); err != nil {
		log.Fatal(err)
	}
	// The same ranking governs the pre-call set (modem quiescent).
	preCall := policy.Ranking{}
	for m, v := range shares {
		if m != members["modem"] {
			preCall[m] = v
		}
	}
	if err := box.SetDefault(policy.Policy{Shares: preCall}); err != nil {
		log.Fatal(err)
	}

	names := map[task.ID]string{}
	rec := trace.New()
	d := core.New(core.Config{
		Seed:                    2026,
		InterruptReservePercent: 4,
		PolicyBox:               box,
		Streamer:                rm.Capacity{StreamerMBps: 400},
		Observer:                rec,
	})

	// Live MPEG from a 30fps transport stream.
	stream := workload.NewTransportStream(d, 900_000, 6)
	dec := workload.NewStreamedMPEG(stream)
	mpegID, err := d.RequestAdmittance(dec.Task())
	if err != nil {
		log.Fatal(err)
	}
	names[mpegID] = "mpeg-live"
	stream.Start(d, mpegID)

	// AC3 audio.
	ac3 := workload.NewAC3()
	ac3ID, err := d.RequestAdmittance(ac3.Task())
	if err != nil {
		log.Fatal(err)
	}
	names[ac3ID] = "ac3"

	// Graphics overlay with a shed menu (the §5.5 FFU interplay has
	// its own example in examples/multiresource).
	overlay, err := d.RequestAdmittance(&task.Task{
		Name: "overlay",
		List: task.ResourceList{
			{Period: 10 * ms, CPU: 2 * ms, Fn: "OverlayFull", StreamerMBps: 80},
			{Period: 10 * ms, CPU: 1 * ms, Fn: "OverlayHalf", StreamerMBps: 40},
		},
		Body:      task.YieldAll(),
		Semantics: task.ReturnSemantics,
	})
	if err != nil {
		log.Fatal(err)
	}
	names[overlay] = "overlay"

	// Quiescent modem: the call comes at t=4s.
	modem := workload.NewModem()
	modemID, err := d.RequestAdmittance(modem.Task(true))
	if err != nil {
		log.Fatal(err)
	}
	names[modemID] = "modem"
	d.At(4*ticks.PerSecond, func() {
		if err := d.Wake(modemID); err != nil {
			log.Fatal(err)
		}
	})

	// Display phase-locked to a +100ppm refresh crystal.
	ext := extclock.New(100, 0)
	lock, err := extclock.NewEstimatingPhaseLock(270_000, 269_400, 0.5)
	if err != nil {
		log.Fatal(err)
	}
	var displayID task.ID
	var maxPhaseErr ticks.Ticks
	oracle, _ := extclock.NewPhaseLock(ext, 270_000, 269_400)
	displayPeriods := 0
	displayID, err = d.RequestAdmittance(&task.Task{
		Name: "display",
		List: task.SingleLevel(269_400, 2*ms, "Refresh"),
		Body: task.BodyFunc(func(ctx task.RunContext) task.RunResult {
			if ctx.NewPeriod {
				displayPeriods++
				if displayPeriods > 5 {
					if e := oracle.PhaseErrorAt(ctx.PeriodStart); e > maxPhaseErr {
						maxPhaseErr = e
					}
				}
				lock.Observe(ctx.Now, ext.ReadAt(ctx.Now))
				_ = d.InsertIdleCycles(displayID, lock.Insertion(ctx.PeriodStart, ctx.Now, ext.ReadAt(ctx.Now)))
			}
			left := 2*ms - ctx.UsedThisPeriod
			if left <= 0 {
				return task.RunResult{Op: task.OpYield, Completed: true}
			}
			if left > ctx.Span {
				left = ctx.Span
			}
			return task.RunResult{Used: left, Op: task.OpYield, Completed: true}
		}),
	})
	if err != nil {
		log.Fatal(err)
	}
	names[displayID] = "display"

	// Sporadic Server with two background jobs.
	ssID, err := d.AddSporadicServer("sporadic", task.SingleLevel(10*ms, ms/2, "SS"), true)
	if err != nil {
		log.Fatal(err)
	}
	names[ssID] = "sporadic"
	var indexed, compressed ticks.Ticks
	d.AddSporadic("indexer", task.BodyFunc(func(ctx task.RunContext) task.RunResult {
		indexed += ctx.Span
		return task.RunResult{Used: ctx.Span, Op: task.OpRanOut}
	}))
	d.AddSporadic("compress", task.BodyFunc(func(ctx task.RunContext) task.RunResult {
		compressed += ctx.Span
		return task.RunResult{Used: ctx.Span, Op: task.OpRanOut}
	}))

	// Interrupt load inside the reserve: 25us every millisecond.
	if err := d.AddInterruptLoad(ms, 25*ticks.PerMicrosecond); err != nil {
		log.Fatal(err)
	}

	fmt.Println("grants before the call:")
	printGrants(d, names)
	d.Run(10 * ticks.PerSecond)
	fmt.Println("\ngrants after the call (modem active):")
	printGrants(d, names)

	ac3.Flush()
	ks := d.KernelStats()
	fmt.Println("\nten seconds of studio operation:")
	fmt.Printf("  mpeg:    %s / %s\n", dec.Stats().QualityString(), stream.Stats().QualityString())
	fmt.Printf("  ac3:     %s\n", ac3.Stats().QualityString())
	fmt.Printf("  modem:   %s (woken at t=4s)\n", modem.Stats().QualityString())
	fmt.Printf("  display: %d periods, max phase error %.1fus vs the drifting crystal\n",
		displayPeriods, maxPhaseErr.MicrosecondsF())
	fmt.Printf("  sporadic work: indexer %v, compress %v\n", indexed, compressed)
	fmt.Printf("  interrupts: %d (%.1f%% of CPU, inside the 4%% reserve)\n",
		ks.Interrupts, 100*ks.InterruptLoadFraction())
	fmt.Printf("  switches: %d (%.2f%% of CPU); idle %.1f%%\n",
		ks.VolSwitches+ks.InvolSwitches, 100*ks.SwitchOverheadFraction(),
		100*float64(ks.IdleTicks)/float64(ks.Now))
	fmt.Printf("  deadline misses: %d\n", rec.MissCount())
}

func printGrants(d *core.Distributor, names map[task.ID]string) {
	gs := d.Grants()
	for _, g := range gs.All() {
		ffu := ""
		if g.Entry.NeedsFFU {
			ffu = " +FFU"
		}
		fmt.Printf("  %-10s %7s  %s%s\n", names[g.Task], g.Entry.Rate(), g.Entry.Fn, ffu)
	}
	fmt.Printf("  total %.1f%%\n", 100*gs.TotalFrac().Float())
}

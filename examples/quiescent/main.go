// Quiescent reproduces the §5.3 telephone-answering scenario: a user
// studies DVD multimedia while waiting for a teleconference call. The
// modem is admitted quiescent — it holds an admission reservation but
// uses no resources — so the DVD runs at its 95% maximum. When the
// call arrives the modem wakes, cannot be denied, and the DVD sheds
// load per the Policy Box. Audio is protected throughout (users are
// more sensitive to audio than video, §4.3).
//
//	go run ./examples/quiescent
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/ticks"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	// Default policy: when dvd-video, ac3 audio and the modem all
	// contend, audio and modem stay whole and video takes the cut.
	box := policy.NewBox()
	video := box.Register("dvd")
	audio := box.Register("ac3")
	modemM := box.Register("modem")
	if err := box.SetDefault(policy.Policy{
		Shares: policy.Ranking{video: 70, audio: 12, modemM: 10},
	}); err != nil {
		log.Fatal(err)
	}
	if err := box.SetDefault(policy.Policy{
		Shares: policy.Ranking{video: 80, audio: 12},
	}); err != nil {
		log.Fatal(err)
	}

	rec := trace.New()
	d := core.New(core.Config{PolicyBox: box, Observer: rec})

	// The telephone rings half a second in; the modem wakes then.
	dvd, ac3, modem, err := workload.Quiescent(d, 500*ticks.PerMillisecond)
	if err != nil {
		log.Fatalf("admit: %v", err)
	}

	fmt.Println("before the call (modem quiescent):")
	printGrants(d)

	d.Run(ticks.FromSeconds(1))

	fmt.Println("\nafter the call (modem active, dvd shed):")
	printGrants(d)

	ac3.Flush()
	fmt.Println("\nquality across the transition:")
	fmt.Printf("  ac3:   %s  (audio stays intact)\n", ac3.Stats().QualityString())
	fmt.Printf("  modem: %s (answered promptly)\n", modem.Stats().QualityString())
	dvdSeries := rec.AllocationSeries(dvd)
	fmt.Printf("  dvd allocation: %.1fms -> %.1fms per 10ms period\n",
		dvdSeries[0].CPU.MillisecondsF(), dvdSeries[len(dvdSeries)-1].CPU.MillisecondsF())

	if n := rec.MissCount(); n != 0 {
		fmt.Printf("\nDEADLINE MISSES: %d (should be zero)\n", n)
	} else {
		fmt.Println("\ndeadline misses: 0 — no task was terminated or disturbed")
	}
}

func printGrants(d *core.Distributor) {
	gs := d.Grants()
	for _, g := range gs.All() {
		fmt.Printf("  %v\n", g)
	}
	fmt.Printf("  total %.1f%% of CPU\n", 100*gs.TotalFrac().Float())
}

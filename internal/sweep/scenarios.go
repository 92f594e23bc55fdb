package sweep

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/rm"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/ticks"
	"repro/internal/workload"
)

const ms = ticks.PerMillisecond

// Seed substreams. Stream 1 is reserved (see sim.SplitSeed); the sweep
// forks its own decorrelated streams off the run seed so scenario-level
// randomness never touches the kernel's cost stream. The rngstream
// analyzer checks fleet-wide that no other package claims these values
// and that everything stays below the fault-injector band at
// fault.StreamBase.
const (
	streamStress   = 2 // stress-generator workload parameters
	streamGraphics = 3 // 3D renderer scene costs
)

// share is one (task name → percent) row used to declare policy
// rankings as ordered literals, keeping registration order (and so
// MemberID assignment) deterministic without ranging over a map.
type share struct {
	name string
	pct  int
}

// rankedBox builds a Policy Box holding one default policy per given
// ranking. Task names shared between rankings register once.
func rankedBox(rankings ...[]share) *policy.Box {
	box := policy.NewBox()
	ids := make(map[string]policy.MemberID)
	for _, ranking := range rankings {
		for _, s := range ranking {
			if _, ok := ids[s.name]; !ok {
				ids[s.name] = box.Register(s.name)
			}
		}
	}
	for _, ranking := range rankings {
		r := policy.Ranking{}
		for _, s := range ranking {
			r[ids[s.name]] = s.pct
		}
		if err := box.SetDefault(policy.Policy{Shares: r}); err != nil {
			panic(fmt.Sprintf("sweep: bad built-in policy: %v", err))
		}
	}
	return box
}

// --- scenarios ---

func runSettop(e *env) error {
	var box *policy.Box
	if e.spec.Policy == PolicyVideoFirst {
		box = rankedBox([]share{{"mpeg", 34}, {"3d", 45}, {"modem", 10}})
	}
	d := e.start(core.Config{PolicyBox: box})

	modem, mpeg := workload.NewModem(), workload.NewMPEG()
	g3d := workload.NewGraphics3D(sim.SplitSeed(e.spec.Seed, streamGraphics))
	if err := e.admitAll(modem.Task(false), g3d.Task(), mpeg.Task()); err != nil {
		return err
	}

	if err := e.run(d.Run); err != nil {
		return err
	}
	mpeg.Flush()
	vs, mo := mpeg.Stats(), modem.Stats()
	e.m.Loss = int64(vs.UnplannedLoss + mo.Overruns)
	e.m.Opportunities = int64(vs.Decoded + vs.PlannedDrops + vs.UnplannedLoss + mo.Serviced + mo.Overruns)
	return nil
}

func runMedia(e *env) error {
	var box *policy.Box
	switch e.spec.Policy {
	case PolicyAudioFirst:
		box = rankedBox([]share{{"ac3", 12}, {"modem", 10}, {"mpeg", 34}, {"3d", 30}})
	case PolicyVideoFirst:
		box = rankedBox([]share{{"mpeg", 34}, {"3d", 45}, {"modem", 10}, {"ac3", 1}})
	}
	d := e.start(core.Config{PolicyBox: box})

	modem, ac3, mpeg := workload.NewModem(), workload.NewAC3(), workload.NewMPEG()
	g3d := workload.NewGraphics3D(sim.SplitSeed(e.spec.Seed, streamGraphics))
	if err := e.admitAll(modem.Task(false), ac3.Task(), g3d.Task(), mpeg.Task()); err != nil {
		return err
	}

	if err := e.run(d.Run); err != nil {
		return err
	}
	mpeg.Flush()
	ac3.Flush()
	vs, as, mo := mpeg.Stats(), ac3.Stats(), modem.Stats()
	e.m.Loss = int64(vs.UnplannedLoss + as.Dropouts + mo.Overruns)
	e.m.Opportunities = int64(vs.Decoded+vs.PlannedDrops+vs.UnplannedLoss) +
		int64(as.Frames+as.Dropouts+mo.Serviced+mo.Overruns)
	return nil
}

func runOverload(e *env) error {
	d := e.start(core.Config{InterruptReservePercent: 4})

	if _, err := e.server("sporadic", task.SingleLevel(2_700_000, 27_000, "SporadicServer"), true); err != nil {
		return err
	}
	d.AddSporadic("soaker", task.BusySilent())

	// Figure 5's 20 ms stagger, jittered per seed so the admission
	// points (and hence the staircase boundaries) vary across runs.
	rng := sim.NewRNG(sim.SplitSeed(e.spec.Seed, streamStress))
	for i := 0; i < 5; i++ {
		at := ticks.Ticks(i)*20*ms + ticks.FromMilliseconds(int64(rng.Intn(6)))
		name := fmt.Sprintf("thread%d", i+2)
		d.At(at, func() {
			_, _ = e.admit(workload.BusyLoopTask(name))
		})
	}

	if err := e.run(d.Run); err != nil {
		return err
	}
	// Figure 5's claim is "no missed deadlines through every admission".
	e.missesOverPeriods()
	return nil
}

func runQuiescent(e *env) error {
	var box *policy.Box
	switch e.spec.Policy {
	case PolicyAudioFirst:
		box = rankedBox(
			[]share{{"dvd", 70}, {"ac3", 12}, {"modem", 10}},
			[]share{{"dvd", 80}, {"ac3", 12}})
	case PolicyVideoFirst:
		box = rankedBox(
			[]share{{"dvd", 85}, {"ac3", 1}, {"modem", 10}},
			[]share{{"dvd", 90}, {"ac3", 1}})
	}
	d := e.start(core.Config{PolicyBox: box})

	ac3, modem := workload.NewAC3(), workload.NewModem()
	if err := e.admitAll(&task.Task{
		Name: "dvd",
		List: task.UniformLevels(10*ms, "DecodeDVD", 85, 70, 55, 40),
		Body: task.YieldAll(),
	}, ac3.Task()); err != nil {
		return err
	}
	modemID, err := e.admit(modem.Task(true))
	if err != nil {
		return err
	}
	e.wakeAt(e.spec.Horizon/2, modemID) // the telephone rings mid-run

	if err := e.run(d.Run); err != nil {
		return err
	}
	ac3.Flush()
	as, mo := ac3.Stats(), modem.Stats()
	e.m.Loss = int64(as.Dropouts + mo.Overruns)
	e.m.Opportunities = int64(as.Frames + as.Dropouts + mo.Serviced + mo.Overruns)
	return nil
}

func runStudio(e *env) error {
	var box *policy.Box
	switch e.spec.Policy {
	case PolicyAudioFirst:
		box = rankedBox(
			[]share{{"mpeg-live", 33}, {"ac3", 25}, {"overlay", 15}, {"modem", 10}, {"sporadic", 1}},
			[]share{{"mpeg-live", 40}, {"ac3", 25}, {"overlay", 15}, {"sporadic", 1}})
	case PolicyVideoFirst:
		box = rankedBox(
			[]share{{"mpeg-live", 50}, {"ac3", 12}, {"overlay", 20}, {"modem", 10}, {"sporadic", 1}},
			[]share{{"mpeg-live", 55}, {"ac3", 12}, {"overlay", 20}, {"sporadic", 1}})
	}
	d := e.start(core.Config{
		InterruptReservePercent: 4,
		PolicyBox:               box,
		Streamer:                rm.Capacity{StreamerMBps: 400},
	})

	stream := workload.NewTransportStream(d, 900_000, 6)
	dec := workload.NewStreamedMPEG(stream)
	mpegID, err := e.admit(dec.Task())
	if err != nil {
		return err
	}
	stream.Start(d, mpegID)

	ac3, modem := workload.NewAC3(), workload.NewModem()
	if err := e.admitAll(ac3.Task(), &task.Task{
		Name: "overlay",
		List: task.ResourceList{
			{Period: 10 * ms, CPU: 2 * ms, Fn: "OverlayFull", StreamerMBps: 80},
			{Period: 10 * ms, CPU: 1 * ms, Fn: "OverlayHalf", StreamerMBps: 40},
		},
		Body:      task.YieldAll(),
		Semantics: task.ReturnSemantics,
	}); err != nil {
		return err
	}
	modemID, err := e.admit(modem.Task(true))
	if err != nil {
		return err
	}
	e.wakeAt(e.spec.Horizon/2, modemID)

	if _, err := e.server("sporadic", task.SingleLevel(10*ms, ms/2, "SS"), true); err != nil {
		return err
	}
	d.AddSporadic("indexer", task.BusySilent())
	if err := d.AddInterruptLoad(ms, 25*ticks.PerMicrosecond); err != nil {
		return err
	}

	if err := e.run(d.Run); err != nil {
		return err
	}
	ac3.Flush()
	ss, ds, as, mo := stream.Stats(), dec.Stats(), ac3.Stats(), modem.Stats()
	e.m.Loss = int64(ss.Overruns + ds.Ruined + as.Dropouts + mo.Overruns)
	e.m.Opportunities = int64(ss.Arrived + as.Frames + as.Dropouts + mo.Serviced + mo.Overruns)
	return nil
}

// runStress is the seed-jittered stress generator: a randomized task
// population (periods, level menus, staggered admissions, natural
// exits) plus mid-run sporadic grant assignment and removal. All
// randomness comes from a substream forked off the run seed, so a
// given spec replays identically.
func runStress(e *env) error {
	rng := sim.NewRNG(sim.SplitSeed(e.spec.Seed, streamStress))
	d := e.start(core.Config{InterruptReservePercent: int64(rng.Intn(5))})

	var periodsRun int64
	periodChoices := []int64{5, 10, 15, 20, 30, 50} // ms
	n := 4 + rng.Intn(5)
	var donor task.ID
	for i := 0; i < n; i++ {
		period := ticks.FromMilliseconds(periodChoices[rng.Intn(len(periodChoices))])
		pct := 15 + rng.Intn(56) // top level 15..70%
		var list task.ResourceList
		for len(list) < 4 && pct >= 5 {
			list = append(list, task.Entry{
				Period: period,
				CPU:    period / 100 * ticks.Ticks(pct),
				Fn:     "Stress",
			})
			pct = pct * (5 + rng.Intn(5)) / 10 // shed to 50-90% of previous
		}
		exitAfter := 0
		if rng.Intn(2) == 1 {
			exitAfter = 20 + rng.Intn(60) // periods until natural exit
		}
		at := ticks.FromMilliseconds(int64(rng.Intn(80)))
		name := fmt.Sprintf("gen%d", i)
		spec := &task.Task{Name: name, List: list, Body: stressBody(exitAfter, &periodsRun)}
		wantDonor := exitAfter == 0
		d.At(at, func() {
			id, err := e.admit(spec)
			if err == nil && wantDonor && donor == task.NoID {
				donor = id
			}
		})
	}

	// Mid-run sporadic machinery: a general §5.1 grant assignment to a
	// sporadic task, then removal of that task while the assignment
	// may still be active — the RemoveSporadic regression surface.
	sp := d.AddSporadic("burst", task.BusySilent())
	d.At(100*ms, func() {
		if donor != task.NoID {
			_ = d.AssignGrant(donor, sp, 40*ms)
		}
	})
	d.At(ticks.FromMilliseconds(int64(120+rng.Intn(40))), func() {
		d.RemoveSporadic(sp)
	})

	if err := e.run(d.Run); err != nil {
		return err
	}
	e.m.Loss, e.m.Opportunities = e.m.Misses, periodsRun
	return nil
}

// stressBody builds a generator body: consume the span, count
// periods, and exit after exitAfter periods (0 = never).
func stressBody(exitAfter int, periodsRun *int64) task.Body {
	periods := 0
	return task.BodyFunc(func(ctx task.RunContext) task.RunResult {
		if ctx.NewPeriod {
			periods++
			*periodsRun++
			if exitAfter > 0 && periods > exitAfter {
				return task.RunResult{Op: task.OpExit}
			}
		}
		return task.RunResult{Used: ctx.Span, Op: task.OpYield, Completed: true}
	})
}

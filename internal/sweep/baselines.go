package sweep

// The baseline scenario family: the §3.4/§3.5 comparator experiments
// as sweep cells. Each member runs the same offered load either under
// the Resource Distributor (PolicyInvent — the reference column) or
// under one of the proportional-share comparators from
// internal/baseline (the baseline-* policies), on a bare kernel with
// the same seed and switch-cost model. The streamer member swaps the
// CPU comparison for a bandwidth one: three DMA producers over
// capacity under metered, max-min fair and maximum-throughput
// allocation.
//
// The whole family can be requested at once: the matrix scenario name
// "baseline" expands to every baseline-* scenario.

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/streamer"
	"repro/internal/task"
	"repro/internal/telemetry"
	"repro/internal/ticks"
	"repro/internal/workload"
)

// streamBaseline is the SplitSeed substream for baseline-family
// workload parameter jitter (periods, demands, admission stagger) —
// distinct from streamStress/streamGraphics and from
// baseline.StreamLottery, per the fleet-wide rngstream namespace.
const streamBaseline = 5

// comparator is the interface the proportional-share schedulers share
// (FairShare, Lottery, Stride, CFS all satisfy it).
type comparator interface {
	Add(name string, period ticks.Ticks, weight int64, body task.Body)
	RunUntil(limit ticks.Ticks)
	Stats(name string) (baseline.Stats, bool)
	Instrument(t *telemetry.Set)
}

// startComparator assembles a bare kernel under the scheduler the
// spec's baseline-* policy names (newEnv admits no other value of the
// comparator axis, and callers stage invent on a Distributor).
func (e *env) startComparator() (*sim.Kernel, comparator) {
	k := e.startKernel()
	q := ticks.PerMillisecond
	var c comparator
	switch e.spec.Policy {
	case PolicyBaselineFairShare:
		c = baseline.NewFairShare(k, q)
	case PolicyBaselineLottery:
		c = baseline.NewLottery(k, q, e.spec.Seed)
	case PolicyBaselineStride:
		c = baseline.NewStride(k, q)
	case PolicyBaselineCFS:
		c = baseline.NewCFS(k, q)
	default:
		panic(fmt.Sprintf("sweep: policy %q is not a baseline comparator", e.spec.Policy))
	}
	c.Instrument(e.tel)
	return k, c
}

// tally folds a comparator's own period accounting into the run
// metrics — the comparators have no probe/observer chain, so Misses
// comes from here — and returns the period starts it counted.
func (e *env) tally(c comparator, names []string) (periods int64) {
	for _, n := range names {
		if st, ok := c.Stats(n); ok {
			e.m.Misses += st.MissedPeriods
			e.m.CompletedPeriods += st.Completed
			periods += st.Periods
		}
	}
	return periods
}

// runBaselineMedia is the §3.5 experiment as a sweep cell: an MPEG
// decoder (needs ~33%) against three 30% workers — 120% offered load.
// Under the RD (invent) the workers present honest shed menus and the
// decoder keeps every I frame; under a comparator everyone gets a
// fair fraction and frames die by accident of timing.
func runBaselineMedia(e *env) error {
	const mpegPeriod = 900_000 // 30 fps
	mpeg := workload.NewMPEG()
	workers := []string{"w1", "w2", "w3"}
	if e.spec.Policy == PolicyInvent {
		d := e.start(core.Config{})
		if _, err := e.admit(mpeg.Task()); err != nil {
			return err
		}
		for _, n := range workers {
			if _, err := e.admit(&task.Task{
				Name: n,
				List: task.UniformLevels(10*ms, "W", 30, 20),
				Body: task.YieldAll(),
			}); err != nil {
				return err
			}
		}
		if err := e.run(d.Run); err != nil {
			return err
		}
	} else {
		_, c := e.startComparator()
		c.Add("mpeg", mpegPeriod, 1, mpeg)
		for _, n := range workers {
			c.Add(n, 10*ms, 1, task.PeriodicWork(3*ms))
		}
		if err := e.run(c.RunUntil); err != nil {
			return err
		}
		e.tally(c, append([]string{"mpeg"}, workers...))
	}
	mpeg.Flush()
	vs := mpeg.Stats()
	e.m.Loss = int64(vs.UnplannedLoss)
	e.m.Opportunities = int64(vs.Decoded + vs.PlannedDrops + vs.UnplannedLoss)
	return nil
}

// baselineGenMix draws the jittered overload mix shared by RD and
// comparator runs: ~130-160% of the CPU across six periodic tasks.
type genSpec struct {
	name   string
	period ticks.Ticks
	cpu    ticks.Ticks
	shed   ticks.Ticks // the RD menu's second level
	weight int64
	at     ticks.Ticks
}

func baselineGenMix(seed uint64) []genSpec {
	rng := sim.NewRNG(sim.SplitSeed(seed, streamBaseline))
	periods := []int64{10, 20, 30}
	out := make([]genSpec, 6)
	for i := range out {
		period := ticks.FromMilliseconds(periods[rng.Intn(len(periods))])
		pct := int64(20 + rng.Intn(16)) // 20-35% each: ~165% offered in expectation
		cpu := period / 100 * ticks.Ticks(pct)
		out[i] = genSpec{
			name:   fmt.Sprintf("gen%d", i),
			period: period,
			cpu:    cpu,
			shed:   cpu / 2,
			weight: int64(1 + rng.Intn(3)),
			at:     ticks.FromMilliseconds(int64(rng.Intn(60))),
		}
	}
	return out
}

// runBaselineOverload stages the jittered mix. The RD admits what
// fits (shedding via two-level menus, denying the rest); the
// comparators accept everything and split the machine.
func runBaselineOverload(e *env) error {
	specs := baselineGenMix(e.spec.Seed)
	if e.spec.Policy == PolicyInvent {
		d := e.start(core.Config{})
		for i := range specs {
			g := specs[i]
			d.At(g.at, func() {
				_, _ = e.admit(&task.Task{
					Name: g.name,
					List: task.ResourceList{
						{Period: g.period, CPU: g.cpu, Fn: "Gen"},
						{Period: g.period, CPU: g.shed, Fn: "GenShed"},
					},
					Body:      task.YieldAll(),
					Semantics: task.ReturnSemantics,
				})
			})
		}
		if err := e.run(d.Run); err != nil {
			return err
		}
		e.missesOverPeriods()
		return nil
	}

	k, c := e.startComparator()
	names := make([]string, 0, len(specs))
	for i := range specs {
		g := specs[i]
		names = append(names, g.name)
		k.At(g.at, func() {
			c.Add(g.name, g.period, g.weight, task.PeriodicWork(g.cpu))
		})
	}
	if err := e.run(c.RunUntil); err != nil {
		return err
	}
	e.m.Opportunities = e.tally(c, names)
	e.m.Loss = e.m.Misses
	return nil
}

// dmaProducer is a periodic CPU stage that submits one DMA frame per
// period; the frame is late when its transfer completes after the
// period's deadline. Frames complete in submit order, so every frame
// shares one done callback, which checks the oldest deadline queued.
type dmaProducer struct {
	k      *sim.Kernel
	ch     *streamer.Channel
	period ticks.Ticks
	cpu    ticks.Ticks
	frame  int64
	done   func()

	deadlines []ticks.Ticks // deadlines[head:] are the in-flight frames'
	head      int

	stopped   bool
	submitted int64
	late      int64
	delivered int64
}

func (p *dmaProducer) Run(ctx task.RunContext) task.RunResult {
	left := p.cpu - ctx.UsedThisPeriod
	if left > ctx.Span {
		return task.RunResult{Used: ctx.Span, Op: task.OpRanOut}
	}
	if !p.stopped {
		p.submitted++
		if p.head > 0 && 2*p.head >= cap(p.deadlines) {
			n := copy(p.deadlines, p.deadlines[p.head:])
			p.deadlines, p.head = p.deadlines[:n], 0
		}
		p.deadlines = append(p.deadlines, ctx.PeriodStart+p.period)
		_ = p.ch.Submit(p.frame, p.done)
	}
	return task.RunResult{Used: left, Op: task.OpYield, Completed: true}
}

// frameDone retires the oldest in-flight frame.
func (p *dmaProducer) frameDone() {
	p.delivered++
	if p.k.Now() > p.deadlines[p.head] {
		p.late++
	}
	p.head++
}

// runBaselineStreamer is the contended-streamer scenario: three DMA
// producers demanding 420 MB/s of a 300 MB/s part, their CPU stages
// scheduled by a stride comparator so CPU grants and DMA rates
// interact. The policy axis picks the bandwidth allocator: invent =
// the RD's metered FCFS reservations, or max-min fair /
// maximum-throughput. Mid-run the video channel doubles its demand
// and the archive channel closes, exercising reallocation.
func runBaselineStreamer(e *env) error {
	k := e.startKernel()
	var alloc streamer.Allocator
	switch e.spec.Policy {
	case PolicyStreamerMaxMin:
		alloc = streamer.MaxMinFair{}
	case PolicyStreamerMaxThru:
		alloc = streamer.MaxThroughput{}
	default:
		alloc = streamer.Metered{}
	}
	eng := streamer.NewAllocated(k, 300, alloc)
	eng.Instrument(e.tel)

	c := baseline.NewStride(k, ticks.PerMillisecond)
	c.Instrument(e.tel)

	type chanSpec struct {
		name    string
		mbps    int64
		quality int64
		period  ticks.Ticks
		cpu     ticks.Ticks
		frame   int64
	}
	chans := []chanSpec{
		{"video", 200, 3, 10 * ms, 2 * ms, 1_500_000},
		{"preview", 120, 2, 20 * ms, 3 * ms, 1_000_000},
		{"archive", 100, 1, 30 * ms, 1 * ms, 2_000_000},
	}
	producers := make([]*dmaProducer, len(chans))
	channels := make([]*streamer.Channel, len(chans))
	names := make([]string, len(chans))
	for i, cs := range chans {
		ch, err := eng.OpenQuality(cs.name, cs.mbps, cs.quality)
		if err != nil {
			return err
		}
		channels[i] = ch
		p := &dmaProducer{k: k, ch: ch, period: cs.period, cpu: cs.cpu, frame: cs.frame}
		p.done = p.frameDone
		producers[i] = p
		c.Add(cs.name, cs.period, cs.quality, p)
		names[i] = cs.name
	}

	// Grant-change traffic: video's demand toggles every 150 ms (a
	// level change upstream), and archive closes at 70% of the run.
	toggle := false
	var retoggle func()
	retoggle = func() {
		toggle = !toggle
		want := int64(200)
		if toggle {
			want = 80
		}
		_ = channels[0].SetRate(want)
		k.After(150*ms, retoggle)
	}
	k.After(150*ms, retoggle)
	k.After(e.spec.Horizon*7/10, func() {
		producers[2].stopped = true
		channels[2].Close()
	})

	if err := e.run(c.RunUntil); err != nil {
		return err
	}
	for _, p := range producers {
		e.m.Loss += p.late + (p.submitted - p.delivered)
		e.m.Opportunities += p.submitted
	}
	e.tally(c, names)
	return nil
}

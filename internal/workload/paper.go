package workload

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/extclock"
	"repro/internal/task"
	"repro/internal/ticks"
)

// The paper's evaluation task sets, each staged here once. A builder
// only admits tasks into a Distributor its caller configured (costs,
// reserve, seed, observer) and returns its first admission's denial.

// Settop admits Table 4's set-top set in order: the modem (not
// quiescent), the 3D renderer (scene seed 42) and the MPEG decoder. It
// returns the three workloads for their quality figures.
func Settop(d *core.Distributor) (*Modem, *Graphics3D, *MPEG, error) {
	modem, g3d, mpeg := NewModem(), NewGraphics3D(42), NewMPEG()
	return modem, g3d, mpeg, admitAll(d, modem.Task(false), g3d.Task(), mpeg.Task())
}

// Figure4 admits §6.5's first run: the Sporadic Server, then four
// threads at a 1/30 s period — producer7 (13 ms, never finishes),
// data8 (2 ms) and data10 (3 ms), which busy-wait their grants, and
// producer9, which completes 3 ms each period.
func Figure4(d *core.Distributor) error {
	if _, err := d.AddSporadicServer("sporadic", task.SingleLevel(2_700_000, 27_000, "SS"), true); err != nil {
		return err
	}
	period, ms := ticks.PerSecond/30, ticks.PerMillisecond
	return admitAll(d,
		&task.Task{Name: "producer7", List: task.SingleLevel(period, 13*ms, "P"), Body: task.Busy()},
		&task.Task{Name: "data8", List: task.SingleLevel(period, 2*ms, "D"), Body: task.YieldAll()},
		&task.Task{Name: "producer9", List: task.SingleLevel(period, 3*ms, "P"), Body: task.PeriodicWork(3 * ms)},
		&task.Task{Name: "data10", List: task.SingleLevel(period, 3*ms, "D"), Body: task.YieldAll()})
}

// Figure5Stagger is the interval between Figure 5's thread admissions.
const Figure5Stagger = 20 * ticks.PerMillisecond

// Figure5 admits §6.5's overload staircase: the Sporadic Server now,
// then the Table 6 threads thread2..thread6, thread i+2 at
// i·Figure5Stagger. It returns the server's ID and the threads' IDs,
// each filled in when its admission runs; a denied one stays
// task.NoID.
func Figure5(d *core.Distributor) (server task.ID, threads []task.ID, err error) {
	server, err = d.AddSporadicServer("sporadic", task.SingleLevel(2_700_000, 27_000, "SS"), true)
	if err != nil {
		return task.NoID, nil, err
	}
	threads = make([]task.ID, 5)
	for i := range threads {
		d.At(ticks.Ticks(i)*Figure5Stagger, func() {
			threads[i], _ = d.RequestAdmittance(BusyLoopTask(fmt.Sprintf("thread%d", i+2)))
		})
	}
	return server, threads, nil
}

// Quiescent admits §5.3's telephone-answering set in order: the DVD
// decoder (85/70/55/40 % of a 10 ms period, busy-waiting its grants),
// the AC3 decoder and the modem, quiescent, which it wakes at wake. It
// returns the DVD's ID and the two workloads for their quality
// figures; after a denial no wake-up is armed.
func Quiescent(d *core.Distributor, wake ticks.Ticks) (dvd task.ID, ac3 *AC3, modem *Modem, err error) {
	ac3, modem = NewAC3(), NewModem()
	dvd, err = d.RequestAdmittance(&task.Task{
		Name: "dvd",
		List: task.UniformLevels(10*ticks.PerMillisecond, "DecodeDVD", 85, 70, 55, 40),
		Body: task.YieldAll(),
	})
	if err != nil {
		return task.NoID, nil, nil, err
	}
	if _, err = d.RequestAdmittance(ac3.Task()); err != nil {
		return task.NoID, nil, nil, err
	}
	modemID, err := d.RequestAdmittance(modem.Task(true))
	if err != nil {
		return task.NoID, nil, nil, err
	}
	d.At(wake, func() {
		if err := d.Wake(modemID); err != nil {
			panic(err)
		}
	})
	return dvd, ac3, modem, nil
}

// LockedDisplay is PhaseLockedDisplay's tally, filled in as the
// display's periods start.
type LockedDisplay struct {
	ID      task.ID
	Periods int
	// MaxPhaseError is the largest phase error against the oracle at
	// a period start after the first warm-up periods.
	MaxPhaseError ticks.Ticks
}

// PhaseLockedDisplay admits §5.4's display: 2 ms of refresh work in
// each nominal-tick period, paced by the external clock behind
// oracle. At each period start it postpones the next start by
// insert(ctx), which must not be negative; a nil insert leaves the
// display uncompensated.
func PhaseLockedDisplay(d *core.Distributor, oracle *extclock.PhaseLock, nominal ticks.Ticks, warmup int,
	insert func(task.RunContext) ticks.Ticks) (*LockedDisplay, error) {
	const refresh = 2 * ticks.PerMillisecond
	ld := &LockedDisplay{}
	body := task.BodyFunc(func(ctx task.RunContext) task.RunResult {
		if ctx.NewPeriod {
			ld.Periods++
			if e := oracle.PhaseErrorAt(ctx.PeriodStart); e > ld.MaxPhaseError && ld.Periods > warmup {
				ld.MaxPhaseError = e
			}
			if insert != nil {
				if err := d.InsertIdleCycles(ld.ID, insert(ctx)); err != nil {
					panic(err)
				}
			}
		}
		return task.RunResult{Used: max(min(refresh-ctx.UsedThisPeriod, ctx.Span), 0), Op: task.OpYield, Completed: true}
	})
	id, err := d.RequestAdmittance(&task.Task{
		Name: "display", List: task.SingleLevel(nominal, refresh, "Refresh"), Body: body,
	})
	if err != nil {
		return nil, err
	}
	ld.ID = id
	return ld, nil
}

func admitAll(d *core.Distributor, tasks ...*task.Task) error {
	for _, t := range tasks {
		if _, err := d.RequestAdmittance(t); err != nil {
			return err
		}
	}
	return nil
}

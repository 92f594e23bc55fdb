package workload

import (
	"fmt"

	"repro/internal/core"
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

func admitAll(d *core.Distributor, tasks ...*task.Task) error {
	for _, t := range tasks {
		if _, err := d.RequestAdmittance(t); err != nil {
			return err
		}
	}
	return nil
}

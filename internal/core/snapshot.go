package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/rm"
	"repro/internal/task"
	"repro/internal/ticks"
)

// Snapshot is a point-in-time view of the whole Resource Distributor:
// what the user would see in a system monitor. It is built from the
// Resource Manager's admission records and the Scheduler's
// accounting; taking one does not perturb the run.
type Snapshot struct {
	Now       ticks.Ticks
	Tasks     []TaskSnapshot
	TotalRate float64 // granted CPU fraction
	Reserve   float64 // §5.2 interrupt reserve fraction

	VolSwitches    int64
	InvolSwitches  int64
	SwitchOverhead float64
	InterruptLoad  float64
	IdleFraction   float64
	Misses         int64
}

// TaskSnapshot is one task's view.
type TaskSnapshot struct {
	ID    task.ID
	Name  string
	State task.State

	Grant    rm.Grant
	HasGrant bool

	Periods       int64
	Misses        int64
	GrantedTicks  ticks.Ticks
	UsedTicks     ticks.Ticks
	OvertimeTicks ticks.Ticks
}

// Snapshot captures the current system state.
func (d *Distributor) Snapshot() Snapshot {
	var s Snapshot
	s.Now = d.kernel.Now()
	grants := d.rm.Committed()
	s.TotalRate = grants.TotalFrac().Float()
	s.Reserve = 1 - d.rm.Available().Float()

	// Tasks known to the scheduler (running) plus quiescent ones the
	// manager still holds.
	seen := map[task.ID]bool{}
	for _, id := range d.sched.TaskIDs() {
		ts := TaskSnapshot{ID: id}
		if tk, err := d.rm.TaskByID(id); err == nil {
			ts.Name = tk.Name
		}
		if st, err := d.rm.State(id); err == nil {
			ts.State = st
		}
		if g, ok := grants.Get(id); ok {
			ts.Grant, ts.HasGrant = g, true
		}
		if st, ok := d.sched.Stats(id); ok {
			ts.Periods = st.Periods
			ts.Misses = st.Misses
			ts.GrantedTicks = st.GrantedTicks
			ts.UsedTicks = st.UsedTicks
			ts.OvertimeTicks = st.OvertimeTicks
			s.Misses += st.Misses
		}
		s.Tasks = append(s.Tasks, ts)
		seen[id] = true
	}
	// Admitted tasks the Scheduler does not hold: quiescent ones and
	// those whose first grant has not been picked up yet.
	for _, id := range d.rm.TaskIDs() {
		if seen[id] {
			continue
		}
		ts := TaskSnapshot{ID: id}
		if tk, err := d.rm.TaskByID(id); err == nil {
			ts.Name = tk.Name
		}
		if st, err := d.rm.State(id); err == nil {
			ts.State = st
		}
		if g, ok := grants.Get(id); ok {
			ts.Grant, ts.HasGrant = g, true
		}
		s.Tasks = append(s.Tasks, ts)
		seen[id] = true
	}
	sort.Slice(s.Tasks, func(i, j int) bool { return s.Tasks[i].ID < s.Tasks[j].ID })

	ks := d.kernel.Stats()
	s.VolSwitches = ks.VolSwitches
	s.InvolSwitches = ks.InvolSwitches
	s.SwitchOverhead = ks.SwitchOverheadFraction()
	s.InterruptLoad = ks.InterruptLoadFraction()
	if ks.Now > 0 {
		s.IdleFraction = float64(ks.IdleTicks) / float64(ks.Now)
	}
	return s
}

// String renders the snapshot as a monitor table.
func (s Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "t=%v granted=%.1f%% reserve=%.0f%% idle=%.1f%% switches=%d/%d (%.2f%%) interrupts=%.1f%% misses=%d\n",
		s.Now, 100*s.TotalRate, 100*s.Reserve, 100*s.IdleFraction,
		s.VolSwitches, s.InvolSwitches, 100*s.SwitchOverhead, 100*s.InterruptLoad, s.Misses)
	fmt.Fprintf(&b, "%-4s %-12s %-9s %8s %9s %10s %10s %10s\n",
		"id", "name", "state", "rate", "periods", "granted", "used", "overtime")
	for _, t := range s.Tasks {
		rate := "-"
		if t.HasGrant {
			rate = t.Grant.Entry.Rate().String()
		}
		fmt.Fprintf(&b, "%-4d %-12s %-9s %8s %9d %10v %10v %10v\n",
			t.ID, t.Name, t.State, rate, t.Periods, t.GrantedTicks, t.UsedTicks, t.OvertimeTicks)
	}
	return b.String()
}

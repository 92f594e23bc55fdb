// Package rm implements the Resource Manager of the ETI Resource
// Distributor (§4.1): admission control and grant control.
//
// Admission control runs in constant time against a running sum of
// every task's minimum resource-list rate (§6.2). Grant control picks
// one resource-list entry per non-quiescent task: everyone's maximum
// if that fits (the O(1) underload fast path of §6.3), otherwise the
// Policy Box is consulted and the policy is correlated with the
// tasks' actual resource lists in the paper's three passes.
//
// The Manager holds no scheduling state. It notifies the Scheduler
// through the Hooks interface: new and increased grants are picked up
// by the Scheduler at its next unallocated time, while removals and
// decreases are signalled immediately (§4.2).
package rm

import (
	"fmt"
	"slices"

	"repro/internal/task"
	"repro/internal/ticks"
)

// Grant is one task's resource allocation: a period and an amount of
// CPU that will be delivered in every period (§3.3).
type Grant struct {
	Task  task.ID
	Level int        // index of the granted entry in the resource list
	Entry task.Entry // copy of the granted entry
}

// Rate reports the grant's CPU fraction.
func (g Grant) Rate() ticks.Rate { return g.Entry.Rate() }

// Frac reports the grant's exact CPU fraction.
func (g Grant) Frac() ticks.Frac { return g.Entry.Frac() }

// String renders the grant like a Table 4 row.
func (g Grant) String() string {
	return fmt.Sprintf("task %d: period=%d cpu=%d rate=%s fn=%s",
		g.Task, g.Entry.Period, g.Entry.CPU, g.Rate(), g.Entry.Fn)
}

// GrantSet is the complete allocation decision for the admitted,
// non-quiescent tasks. Table 4 is a GrantSet over three tasks.
type GrantSet map[task.ID]Grant

// TotalFrac sums the exact rates of all grants in the set.
func (gs GrantSet) TotalFrac() ticks.Frac {
	sum := ticks.FracZero
	// Frac addition normalises through gcd reduction; sum in sorted
	// order so intermediate overflow behaviour cannot vary across runs.
	for _, id := range gs.IDs() {
		sum = sum.Add(gs[id].Frac())
	}
	return sum
}

// Clone returns a copy of the set.
func (gs GrantSet) Clone() GrantSet {
	out := make(GrantSet, len(gs))
	for id, g := range gs {
		out[id] = g
	}
	return out
}

// Equal reports whether two grant sets allocate identically.
func (gs GrantSet) Equal(other GrantSet) bool {
	if len(gs) != len(other) {
		return false
	}
	for id, g := range gs {
		o, ok := other[id]
		if !ok || o.Level != g.Level || o.Entry != g.Entry {
			return false
		}
	}
	return true
}

// IDs returns the granted task IDs in ascending order.
func (gs GrantSet) IDs() []task.ID {
	if len(gs) == 0 {
		return nil
	}
	return gs.AppendIDs(make([]task.ID, 0, len(gs)))
}

// AppendIDs is IDs into a caller-owned buffer, for recurring callers:
// it appends the granted task IDs to buf, which must be empty (its
// capacity is what gets reused), in ascending order.
func (gs GrantSet) AppendIDs(buf []task.ID) []task.ID {
	for id := range gs {
		buf = append(buf, id)
	}
	slices.Sort(buf)
	return buf
}

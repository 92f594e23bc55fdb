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
//
// Table 1 "omits several fields that manage resources other than CPU
// cycles on the MAP1000"; the Manager supplies two of them — the
// exclusive-use Fixed Function Unit (FFU) and Data Streamer DMA
// bandwidth (Capacity), §7's future-work note on managing bandwidth as
// a resource implemented as a second admission dimension — under these
// conventions:
//
//   - The FFU is exclusive: at most one task may hold a grant whose
//     entry needs it. When a stored policy designates an Exclusive
//     member (§4.3), that member wins the FFU; otherwise the grant
//     correlation resolves contention deterministically.
//
//   - Data Streamer bandwidth is a scalar capacity in MB/s. Admission
//     sums the minimum entries' demands; grant control keeps the
//     granted set's total within capacity, shedding levels exactly as
//     it does for CPU.
//
//   - Resource menus are monotone: a lower QOS level never demands
//     more of any resource than a higher one. task.ResourceList
//     validation enforces this, which is what lets minimum-entry sums
//     serve as the admission test across all dimensions.
package rm

import (
	"cmp"
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
// non-quiescent tasks, held in ascending task-ID order. Table 4 is a
// GrantSet over three tasks. The zero value is the empty set.
//
// The set is opaque rather than a bare []Grant because task.ID is an
// integer: on a slice, gs[id] would compile and read a position. Get
// and Of are the lookups by ID; All is the ordered walk.
type GrantSet struct{ g []Grant }

// Len reports the number of grants in the set.
func (gs GrantSet) Len() int { return len(gs.g) }

// All returns the grants in ascending task-ID order. The slice is the
// set's own storage: read it, do not modify it.
func (gs GrantSet) All() []Grant { return gs.g }

// Get returns id's grant and whether the set holds one.
func (gs GrantSet) Get(id task.ID) (Grant, bool) {
	i, ok := slices.BinarySearchFunc(gs.g, id, func(g Grant, id task.ID) int { return cmp.Compare(g.Task, id) })
	if !ok {
		return Grant{}, false
	}
	return gs.g[i], true
}

// Of returns id's grant, or the zero Grant if the set holds none.
func (gs GrantSet) Of(id task.ID) Grant {
	g, _ := gs.Get(id)
	return g
}

// TotalFrac sums the exact rates of all grants in the set, in ID
// order: Frac addition normalises through gcd reduction, so a fixed
// order keeps intermediate overflow behaviour the same on every run.
func (gs GrantSet) TotalFrac() ticks.Frac {
	sum := ticks.FracZero
	for i := range gs.g {
		sum = sum.Add(gs.g[i].Frac())
	}
	return sum
}

// Clone returns a copy of the set.
func (gs GrantSet) Clone() GrantSet { return GrantSet{slices.Clone(gs.g)} }

// Equal reports whether two grant sets allocate identically.
func (gs GrantSet) Equal(other GrantSet) bool {
	return slices.Equal(gs.g, other.g)
}

// IDs returns the granted task IDs in ascending order — the set's own
// order, copied out for callers that keep or index the IDs.
func (gs GrantSet) IDs() []task.ID {
	if len(gs.g) == 0 {
		return nil
	}
	ids := make([]task.ID, len(gs.g))
	for i := range gs.g {
		ids[i] = gs.g[i].Task
	}
	return ids
}

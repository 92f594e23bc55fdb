// Package mofix exercises the maporder analyzer inside the
// deterministic-package gate (its import path sits under
// repro/internal/sched). Each flagged site carries a want comment; the
// unflagged functions are the order-insensitive shapes the analyzer
// must keep blessing, copied from idioms in the live tree.
package mofix

import "sort"

type id int

var sink []int

func record(k id, v int) { sink = append(sink, int(k)+v) }

// Calls in the body emit effects in map order.
func emitAll(m map[id]int) {
	for k, v := range m { // want "order-sensitive"
		record(k, v)
	}
}

// The collect-then-sort shape with a MANUAL insertion sort.
// The analyzer cannot see that the second loop restores order, so this
// is flagged — the live tree waives the one real site with a reason.
func sortedManual(m map[id]int) []int {
	out := make([]int, 0, len(m))
	for _, v := range m { // want "order-sensitive"
		out = append(out, v)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// The same shape with a written waiver is accepted.
func sortedManualWaived(m map[id]int) []int {
	out := make([]int, 0, len(m))
	//rdlint:ordered-ok insertion sort below restores a deterministic order
	for _, v := range m {
		out = append(out, v)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// A waiver with no reason does not suppress; it is itself reported.
func waivedWithoutReason(m map[id]int) {
	//rdlint:ordered-ok
	for k, v := range m { // want "missing a reason"
		record(k, v)
	}
}

// Float accumulation is order-sensitive: float addition is not
// associative, so the rounded sum depends on visit order.
func sumFloat(m map[id]float64) float64 {
	var total float64
	for _, v := range m { // want "order-sensitive"
		total += v
	}
	return total
}

// Non-constant early return selects whichever element the iterator
// happens to visit first.
func anyKey(m map[id]int) id {
	for k := range m { // want "order-sensitive"
		return k
	}
	return -1
}

// --- blessed shapes below: no diagnostics expected ---

// Integer accumulation commutes.
func sum(m map[id]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// Min accumulation: the guard compares the assigned variable against
// the assigned value.
func minVal(m map[id]int) int {
	best := 1 << 30
	for _, v := range m {
		if v < best {
			best = v
		}
	}
	return best
}

// Collect-then-sort: the statement after the loop sorts the slice.
func keys(m map[id]int) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, int(k))
	}
	sort.Ints(out)
	return out
}

// Map build keyed by the range variable: keys are unique per
// iteration, so writes never collide.
func double(m map[id]int) map[id]int {
	out := make(map[id]int, len(m))
	for k, v := range m {
		out[k] = v * 2
	}
	return out
}

// Deleting the visited key.
func drain(m map[id]int) {
	for k := range m {
		delete(m, k)
	}
}

// Constant-only early return: an all-quantified predicate.
func equal(a, b map[id]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// Locals declared in the body die with the iteration.
func countBig(m map[id]int, floor int) int {
	n := 0
	for _, v := range m {
		excess := v - floor
		if excess > 0 {
			n++
		}
	}
	return n
}

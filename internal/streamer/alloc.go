package streamer

// Demand is one channel's bandwidth request as the allocator sees it,
// in the engine's deterministic open order.
type Demand struct {
	Name    string
	MBps    int64 // requested rate
	Quality int64 // scenario-defined value of serving this channel
}

// Allocator divides streamer capacity among channel demands. Allocate
// fills out, which has one entry per demand, positionally: out[i] is
// the grant for demands[i], 0 meaning stalled. It overwrites every
// entry whatever out held before, and allocates nothing, so the engine
// hands it the same scratch on every reallocation. Implementations
// must be pure functions of (totalMBps, demands) — the engine calls
// them from deterministic simulation context and the sweep relies on
// byte-identical replays.
type Allocator interface {
	Name() string
	Allocate(totalMBps int64, demands []Demand, out []int64)
}

// Metered is the RD's first-come-first-served reservation policy as
// an Allocator: grants in open order until capacity runs out, later
// channels starve. This is what New()'s hard reservations degrade to
// when demand exceeds capacity.
type Metered struct{}

// Name implements Allocator.
func (Metered) Name() string { return "metered" }

// Allocate implements Allocator.
func (Metered) Allocate(totalMBps int64, demands []Demand, out []int64) {
	remaining := totalMBps
	for i, d := range demands {
		g := min(max(d.MBps, 0), remaining)
		out[i] = g
		remaining -= g
	}
}

// MaxMinFair is progressive water-filling: capacity is leveled up in
// equal shares, channels whose demand is met drop out and their
// surplus is redistributed, until capacity or demand is exhausted.
// No channel can raise its grant except by lowering a smaller one —
// the classic fairness criterion. Integer arithmetic; sub-share
// remainders go one MB/s at a time in open order.
type MaxMinFair struct{}

// Name implements Allocator.
func (MaxMinFair) Name() string { return "maxmin" }

// Allocate implements Allocator. A channel is unsatisfied while its
// grant is below its demand: until the last round only satisfied
// channels are granted anything, so out itself marks who is left.
func (MaxMinFair) Allocate(totalMBps int64, demands []Demand, out []int64) {
	clear(out)
	remaining := totalMBps
	for remaining > 0 {
		var unsat int64
		for i, d := range demands {
			if out[i] < d.MBps {
				unsat++
			}
		}
		if unsat == 0 {
			return
		}
		share := remaining / unsat
		if share == 0 {
			// Fewer whole units than claimants: one each, open order.
			spread(demands, out, remaining)
			return
		}
		satisfied := false
		for i, d := range demands {
			if need := d.MBps - out[i]; need > 0 && need <= share {
				out[i] = d.MBps
				remaining -= need
				satisfied = true
			}
		}
		if !satisfied {
			// Everyone needs more than the equal share: level up and
			// spread the remainder, then stop — demands all exceed
			// what is left.
			for i, d := range demands {
				if out[i] < d.MBps {
					out[i] += share
					remaining -= share
				}
			}
			spread(demands, out, remaining)
			return
		}
	}
}

// spread gives the unsatisfied channels one unit each, in open order,
// until remaining runs out.
func spread(demands []Demand, out []int64, remaining int64) {
	for i, d := range demands {
		if remaining == 0 {
			return
		}
		if out[i] < d.MBps {
			out[i]++
			remaining--
		}
	}
}

// MaxThroughput grants the highest-quality channels their full demand
// first — the greedy maximum-value schedule. Ties break by open
// order, so the result is deterministic. Low-quality channels starve
// under contention; that is the point of the comparison.
type MaxThroughput struct{}

// Name implements Allocator.
func (MaxThroughput) Name() string { return "maxthru" }

// Allocate implements Allocator. It serves by selection: each round
// picks the first channel in open order of the highest quality not yet
// served, marked by a negative out.
func (MaxThroughput) Allocate(totalMBps int64, demands []Demand, out []int64) {
	for i := range out {
		out[i] = -1
	}
	remaining := totalMBps
	for range demands {
		next := -1
		for i, d := range demands {
			if out[i] < 0 && (next < 0 || d.Quality > demands[next].Quality) {
				next = i
			}
		}
		g := min(max(demands[next].MBps, 0), remaining)
		out[next] = g
		remaining -= g
	}
}

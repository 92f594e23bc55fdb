package rm

import (
	"slices"

	"repro/internal/policy"
	"repro/internal/telemetry"
	"repro/internal/ticks"
)

// OpStats records what the last Manager operation did, for the §6.2
// and §6.3 cost experiments. The simulated cost model below converts
// these counts into 27 MHz ticks.
type OpStats struct {
	Op              string
	AdmissionChecks int  // O(1) running-sum comparisons
	FastPath        bool // underload: everyone got their maximum
	PolicyConsulted bool // the Policy Box was referenced
	PolicyInvented  bool // ... and had to invent a policy
	Passes          int  // correlation passes over the thread set (1-3)
	EntriesExamined int  // resource-list entries touched during correlation
	Threads         int  // non-quiescent threads at computation time
}

// LastOp returns statistics for the most recent operation.
func (m *Manager) LastOp() OpStats { return m.lastOp }

// recomputeGrants is grant control (§4.1): called when a task enters
// or leaves the system, changes its resource list, or changes
// quiescence. It produces a complete new grant set and flags it for
// Scheduler pickup.
func (m *Manager) recomputeGrants() {
	active := m.nonQuiescent()
	m.lastOp.Threads = len(active)
	m.tel.recomputes.Inc()

	if len(active) == 0 {
		m.commit(GrantSet{m.nextSet(0)})
		return
	}

	// O(1) underload fast path (§6.3): if the running maximum demand
	// passes the fit test, every thread can have its maximum entry and
	// we are done. Degradation pressure narrows the CPU it is tested
	// against (capacityForGrants), pushing the computation onto the
	// policy path exactly like a real overload.
	if m.test(m.max, m.capacityForGrants()) == accepted {
		m.lastOp.FastPath = true
		m.tel.fastPath.Inc()
		g := m.nextSet(len(active))
		for i, a := range active {
			g[i] = Grant{Task: a.id, Level: 0, Entry: a.list.Max()}
		}
		m.commit(GrantSet{g})
		return
	}

	// Overload: consult the Policy Box for the set of admitted,
	// non-quiescent threads (§4.3).
	m.lastOp.PolicyConsulted = true
	members := emptied(m.scratch.members, len(active))
	for _, a := range active {
		members = append(members, a.member)
	}
	m.scratch.members = members
	pol, stored := m.box.Consult(members)
	if !stored {
		// The invented 1/N policy, which correlate applies without
		// building its Ranking (shareOf).
		pol = policy.Policy{Exclusive: slices.Min(members), Invented: true}
	}
	m.lastOp.PolicyInvented = pol.Invented
	m.tel.consults.Inc()
	if pol.Invented {
		m.tel.invents.Inc()
		m.tel.spans.Instant(m.telNow(), "policy", "consult", telemetry.NoTask, 0, "invented")
	} else {
		m.tel.spans.Instant(m.telNow(), "policy", "consult", telemetry.NoTask, 0, "stored")
	}

	m.commit(m.correlate(active, pol))
}

// identityOrder returns the scratch index slice reset to 0..n-1, for
// the correlation passes to sort. The passes run one after another, so
// they share it.
func (m *Manager) identityOrder(n int) []int {
	order := emptied(m.scratch.order, n)
	for i := 0; i < n; i++ {
		order = append(order, i)
	}
	m.scratch.order = order
	return order
}

// correlate implements the §6.3 three-pass algorithm that maps a
// policy's relative rankings onto the threads' actual resource lists.
//
// Pass 1: for each thread, note the entries just above and just below
// the policy-specified rate; if the sum of the "above" entries fits,
// use them. Pass 2: walk once more, turning higher entries into lower
// entries until the set fits (convergent because the Box only returns
// policies that fit; the minimum-entry fallback is covered by the
// admission guarantee). Pass 3: if substantial resources remain
// unused, look for threads that can use them.
func (m *Manager) correlate(active []*admitted, pol policy.Policy) GrantSet {
	n := len(active)
	avail := m.capacityForGrants()
	m.scratch.cands = emptied(m.scratch.cands, n)
	cands := m.scratch.cands[:n]

	// Pass 1: locate above/below entries and sum the above set.
	m.lastOp.Passes = 1
	sum := ticks.FracZero
	for i, a := range active {
		// The share is read out of the policy once, here; an invented
		// policy gives every member the same one, so its fraction is
		// reduced once per run of equal shares, not once per thread.
		c := cand{a: a, share: shareOf(pol, n, a.member)}
		if i > 0 && cands[i-1].share == c.share {
			c.target = cands[i-1].target
		} else {
			c.target = ticks.FracPercent(int64(c.share))
		}
		// Entries are ordered max rate (index 0) to min rate (last).
		// "Above" is the lowest-rate entry with rate >= target;
		// "below" is the highest-rate entry with rate <= target.
		c.above, c.below = -1, -1
		for j, f := range a.fracs {
			m.lastOp.EntriesExamined++
			if f.Cmp(c.target) >= 0 {
				c.above = j // keep descending: last such j is lowest rate >= target
			} else if c.below == -1 {
				c.below = j // first entry strictly under target
			}
		}
		if c.above == -1 {
			c.above = 0 // target above the maximum: best we can offer
		}
		if c.below == -1 {
			// No entry fits under the target; the minimum entry is
			// the floor (admission guarantees the minimums fit).
			c.below = len(a.fracs) - 1
		}
		c.chosen = c.above
		sum = sum.Add(a.fracs[c.chosen])
		cands[i] = c
	}

	if !sum.LessOrEqual(avail) {
		// Pass 2: demote above -> below until the set fits. Threads
		// are walked in ascending policy share (least-important
		// first), ties broken by task ID, so the outcome is
		// deterministic and start-order independent.
		m.lastOp.Passes = 2
		order := m.identityOrder(n)
		sortByShareAsc(order, cands)
		for _, i := range order {
			if sum.LessOrEqual(avail) {
				break
			}
			c := &cands[i]
			if c.chosen == c.below {
				continue
			}
			sum = sum.Sub(c.a.fracs[c.chosen]).Add(c.a.fracs[c.below])
			c.chosen = c.below
			m.lastOp.EntriesExamined += 2
		}
		// Safety net: if the below set still does not fit (possible
		// when minimum entries exceed their policy targets), fall to
		// minimum entries, which admission guarantees to fit.
		for _, i := range order {
			if sum.LessOrEqual(avail) {
				break
			}
			c := &cands[i]
			min := len(c.a.list) - 1
			if c.chosen == min {
				continue
			}
			sum = sum.Sub(c.a.fracs[c.chosen]).Add(c.a.fracs[min])
			c.chosen = min
			m.lastOp.EntriesExamined += 2
		}
	}

	// Exclusive-resource and bandwidth enforcement: the CPU-feasible
	// choice must also respect the FFU's exclusivity and the Data
	// Streamer capacity (Table 1's omitted fields). Demotions here
	// only lower entries, so the CPU sum can only shrink.
	sum = m.enforceFFU(cands, pol, sum)
	sum = m.enforceStreamer(cands, sum)

	// Pass 3: if substantial resources remain, look for threads that
	// can use them. Walk in descending share (most-important first),
	// promoting one entry at a time while the set still passes the fit
	// test.
	leftover := avail.Sub(sum)
	if leftover.Num > 0 {
		order := m.identityOrder(n)
		sortByShareDesc(order, cands)
		d := chosenDemand(cands, sum)
		promoted := false
		for _, i := range order {
			c := &cands[i]
			for c.chosen > 0 {
				next, from := c.chosen-1, c.a.list[c.chosen]
				// The step's demand: the next entry's less the chosen one's.
				delta := need(c.a.list[next], c.a.fracs[next].Sub(c.a.fracs[c.chosen]))
				delta.mbps -= from.StreamerMBps
				if from.NeedsFFU {
					delta.ffu--
				}
				m.lastOp.EntriesExamined++
				if m.test(d.plus(delta), avail) != accepted {
					break
				}
				d = d.plus(delta)
				c.chosen = next
				promoted = true
			}
		}
		if promoted {
			m.lastOp.Passes = 3
		}
	}

	// cands follow active, which is in ID order: so is the set.
	g := m.nextSet(n)
	for i := range cands {
		c := &cands[i]
		g[i] = Grant{Task: c.a.id, Level: c.chosen, Entry: c.a.list[c.chosen]}
	}
	return GrantSet{g}
}

// chosenDemand is the demand of the candidates' chosen entries, whose
// CPU fractions sum to sum.
func chosenDemand(cands []cand, sum ticks.Frac) demand {
	d := demand{cpu: sum}
	for i := range cands {
		e := cands[i].a.list[cands[i].chosen]
		d.mbps += e.StreamerMBps
		if e.NeedsFFU {
			d.ffu++
		}
	}
	return d
}

// enforceFFU demotes all but one FFU claimant to their highest
// non-FFU level. The winner is, in priority order: the task whose
// minimum level requires the FFU (it cannot shed the unit; admission
// caps such residents at one), the policy's designated Exclusive
// member (§4.3), then the highest policy share with ties to the
// oldest task — a deterministic, policy-driven resolution rather
// than an accident of timing.
func (m *Manager) enforceFFU(cands []cand, pol policy.Policy, sum ticks.Frac) ticks.Frac {
	var holders []int
	for i := range cands {
		if cands[i].a.list[cands[i].chosen].NeedsFFU {
			holders = append(holders, i)
		}
	}
	if len(holders) <= 1 {
		return sum
	}
	winner := holders[0]
	score := func(i int) (resident bool, exclusive bool, share int) {
		c := &cands[i]
		return c.a.list.MinNeedsFFU(),
			pol.Exclusive != policy.NoMember && c.a.member == pol.Exclusive,
			c.share
	}
	for _, h := range holders[1:] {
		wr, we, ws := score(winner)
		hr, he, hs := score(h)
		switch {
		case hr != wr:
			if hr {
				winner = h
			}
		case he != we:
			if he {
				winner = h
			}
		case hs != ws:
			if hs > ws {
				winner = h
			}
		case cands[h].a.id < cands[winner].a.id:
			winner = h
		}
	}
	for _, h := range holders {
		if h == winner {
			continue
		}
		c := &cands[h]
		k, ok := c.a.list.FirstNonFFU()
		if !ok {
			// Every level needs the FFU; admission guarantees at most
			// one such task exists and scoring made it the winner.
			continue
		}
		if k > c.chosen {
			sum = sum.Sub(c.a.fracs[c.chosen]).Add(c.a.fracs[k])
			c.chosen = k
			m.lastOp.EntriesExamined++
		}
	}
	return sum
}

// enforceStreamer demotes entries (ascending share, newest first)
// until the chosen set's Data Streamer demand fits capacity.
// Admission over minimum entries guarantees convergence.
func (m *Manager) enforceStreamer(cands []cand, sum ticks.Frac) ticks.Frac {
	streamerSum := chosenDemand(cands, sum).mbps
	if m.streamer.Fits(streamerSum) {
		return sum
	}
	order := m.identityOrder(len(cands))
	sortByShareAsc(order, cands)
	for _, i := range order {
		c := &cands[i]
		for !m.streamer.Fits(streamerSum) && c.chosen < len(c.a.list)-1 {
			next := c.chosen + 1
			streamerSum += c.a.list[next].StreamerMBps - c.a.list[c.chosen].StreamerMBps
			sum = sum.Sub(c.a.fracs[c.chosen]).Add(c.a.fracs[next])
			c.chosen = next
			m.lastOp.EntriesExamined++
		}
		if m.streamer.Fits(streamerSum) {
			break
		}
	}
	return sum
}

// shareOf is member's share under pol. recomputeGrants hands correlate
// an invented policy without its Ranking: each of the n members then
// has the even share.
func shareOf(pol policy.Policy, n int, member policy.MemberID) int {
	if pol.Shares == nil {
		return policy.InventedShare(n)
	}
	return pol.Shares[member]
}

// cand is one thread's state during policy correlation.
type cand struct {
	a      *admitted
	share  int        // the policy's share for a.member, in percent
	target ticks.Frac // share as a CPU fraction
	above  int        // entry index just above target (lower index = higher rate)
	below  int        // entry index just below target
	chosen int
}

// Tie-breaks: when policy shares are equal, both demotion (pass 2)
// and residual promotion (pass 3) prefer the newest thread
// (descending task ID). This reproduces the paper's Figure 5
// staircase exactly — the first-admitted thread holds 2 ms while the
// fifth absorbs the shortfall — and mirrors the paper's statement
// that for invented policies "an arbitrary thread" takes the
// asymmetric role. Stored policies with distinct shares are fully
// order-independent; the tie-break only chooses among interchangeable
// threads.

func sortByShareAsc(order []int, cands []cand) {
	sortOrder(order, func(i, j int) bool {
		if si, sj := cands[i].share, cands[j].share; si != sj {
			return si < sj
		}
		return cands[i].a.id > cands[j].a.id
	})
}

func sortByShareDesc(order []int, cands []cand) {
	sortOrder(order, func(i, j int) bool {
		if si, sj := cands[i].share, cands[j].share; si != sj {
			return si > sj
		}
		return cands[i].a.id > cands[j].a.id
	})
}

func sortOrder(order []int, less func(i, j int) bool) {
	// Insertion sort: n is small and this avoids closure-allocation
	// churn from sort.Slice in the hot grant-set path.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && less(order[j], order[j-1]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
}

// commit installs the new grant set and signals the Scheduler:
// decreases and removals immediately, increases via the pending flag
// picked up at unallocated time (§4.2).
func (m *Manager) commit(gs GrantSet) {
	// Both sets are in ID order, so one merge walk pairs each old grant
	// with its successor, and GrantDecreased — which reaches the
	// Scheduler and the trace — is signalled in ascending ID order.
	j := 0
	for i := range m.grants.g {
		og := &m.grants.g[i]
		for j < len(gs.g) && gs.g[j].Task < og.Task {
			j++
		}
		if j == len(gs.g) {
			break
		}
		ng := &gs.g[j]
		if ng.Task != og.Task {
			// Gone from the set: the caller signalled the removal
			// (Remove and SetQuiescent call GrantRemoved before
			// recomputing).
			continue
		}
		if ng.Entry.CPU == og.Entry.CPU && ng.Entry.Period == og.Entry.Period {
			continue // same rate: most grants survive a recompute unchanged
		}
		// Compared unreduced: Cmp is exact for positive denominators.
		rate := ticks.Frac{Num: int64(ng.Entry.CPU), Den: int64(ng.Entry.Period)}
		if rate.Cmp(ticks.Frac{Num: int64(og.Entry.CPU), Den: int64(og.Entry.Period)}) < 0 {
			m.hooks.GrantDecreased(og.Task, *ng)
		}
	}
	m.spare, m.grants = m.grants.g, gs
	m.gen++
	m.pending = true
}

// nextSet is the storage the next grant set of n grants is built in:
// the backing of the set committed before the current one, which no
// caller may hold any more (Committed), or, where that is short, new
// storage of exactly n.
func (m *Manager) nextSet(n int) []Grant {
	if cap(m.spare) < n {
		return make([]Grant, n)
	}
	return m.spare[:n]
}

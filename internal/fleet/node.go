package fleet

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/ticks"
)

// node is one RD in the fleet. Everything inside it is touched
// either by its own advance (parallel phase, node-local) or by the
// coordinator (sequential phase), never both at once.
type node struct {
	id    int
	seed  uint64
	cfg   *Config
	costs sim.SwitchCosts

	d     *core.Distributor  // the live incarnation; nil while down
	chk   *invariant.Checker // its checker; nil without Config.Invariants
	dist  *core.Distributor  // the storage every incarnation is built in
	check *invariant.Checker // the storage every checker is built in
	// flog is the node's own event log: injectors armed on this node
	// record here from the parallel phase, so fire-time writes stay
	// node-local. Merged into the cluster report in node-ID order,
	// and mirrored into the node's flight recorder.
	flog telemetry.EventLog

	// tel is the node's telemetry set. It outlives incarnations: a
	// restarted kernel re-registers the same instrument names
	// (get-or-create) and keeps appending to the same span log, so a
	// node's history, the miss and period counts the report reads
	// included, runs continuously across crashes. The span log is
	// either unbounded (Config.SpanLog) or the flight ring itself. The
	// set is the shell's: its registry starts the next cluster reset.
	tel *telemetry.Set
	// flight is the node's always-on black box: the last-N spans and
	// event lines, dumped when the node crashes, stalls, or trips its
	// invariant checker.
	flight *telemetry.Flight

	down     bool
	restarts int
	placed   []*admRec
	// scannedGen is the incarnation's Manager.GrantGeneration at the
	// last completion scan: nothing leaves the RM without a recompute.
	scannedGen uint64
	stallErr   string
	// violDumped / stallDumped dedupe flight dumps: each new breach
	// dumps once, at the barrier that notices it.
	violDumped  int64
	stallDumped bool

	// Accumulators over finished incarnations (of accStats, the elapsed
	// time and the three tick totals the report reads); statsBase
	// subtracts the idle skip a restarted kernel performs to rejoin
	// cluster time, so utilization reflects only live capacity.
	statsBase       sim.Stats
	accStats        sim.Stats
	accViolations   int64
	accDegradations int64
	initErr         string
}

// newShell allocates a node's storage — the part of it an Arena keeps
// from cluster to cluster — with a span ring of the given size.
func newShell(spanCap int) *node {
	n := &node{
		flight: telemetry.NewFlight(spanCap, 0),
		tel:    &telemetry.Set{Registry: telemetry.NewRegistry()},
	}
	n.flog.MirrorTo(n.flight)
	return n
}

// reset empties the shell's storage and forgets the cluster it served.
func (n *node) reset() {
	n.flight.Reset()
	n.flog.Reset()
	n.tel.Registry.Reset()
	*n = node{flight: n.flight, flog: n.flog, tel: n.tel, placed: n.placed[:0], dist: n.dist, check: n.check}
}

// build assembles a fresh incarnation at cluster time at in the shell.
func (n *node) build(at ticks.Ticks) {
	cfg := core.Config{
		Seed:                    n.seed,
		SwitchCosts:             &n.costs,
		InterruptReservePercent: n.cfg.InterruptReservePercent,
		Telemetry:               n.tel,
	}
	n.chk, n.scannedGen = nil, 0
	if n.cfg.Invariants {
		n.check = invariant.NewIn(n.check, nil)
		n.chk, cfg.Observer = n.check, n.check
	}
	n.dist = core.NewIn(n.dist, cfg)
	n.d = n.dist
	if n.chk != nil {
		n.chk.Bind(n.d.Kernel(), n.d.Manager(), n.d.Scheduler())
		n.chk.LogTo(&n.flog)
		n.chk.EnableTelemetry(n.tel)
	}
	if at > 0 {
		// A restarted kernel idles forward to rejoin cluster time; the
		// stats base excludes that skip from the node's accounting.
		n.d.RunUntil(at)
	}
	n.statsBase = n.d.Kernel().Stats()
	if n.cfg.GovernorInterval > 0 {
		n.d.EnableOverloadGovernor(n.cfg.GovernorInterval)
	}
	if n.cfg.NodeInit != nil {
		if err := n.cfg.NodeInit(n.d, n.id); err != nil {
			n.initErr = fmt.Sprintf("node %d init: %v", n.id, err)
		}
	}
}

// advance runs the node's kernel to limit. Parallel phase: called
// from pool workers, touches only this node.
func (n *node) advance(limit ticks.Ticks) {
	if n.down || n.stallErr != "" {
		return
	}
	n.d.RunUntil(limit)
	if info, ok := n.d.Kernel().Stalled(); ok {
		n.stallErr = fmt.Sprintf("node %d: kernel livelock guard tripped at t=%d after %d same-tick events",
			n.id, int64(info.At), info.Events)
	}
}

// retire folds the current incarnation's stats into the node
// accumulators and lets its checker go — the violations it recorded are
// in the accumulator from here on. finish additionally finalizes the
// checker first (a crashed incarnation is not finalized: its open
// periods died with the node, and the fleet ledger, not the node
// checker, owns the lost guarantees).
func (n *node) retire(finish bool) {
	if n.chk != nil {
		if finish {
			n.chk.Finish()
		}
		n.accViolations += int64(n.chk.NViolations())
		n.chk = nil
	}
	n.accDegradations += int64(n.d.Manager().NDegradations())
	st := n.d.Kernel().Stats()
	n.accStats.BusyTicks += st.BusyTicks - n.statsBase.BusyTicks
	n.accStats.SwitchTicks += st.SwitchTicks - n.statsBase.SwitchTicks
	n.accStats.InterruptTicks += st.InterruptTicks - n.statsBase.InterruptTicks
	n.accStats.Now += st.Now - n.statsBase.Now
}

// load is the placement pressure signal: the committed minimum sum.
// Down nodes sort last.
func (n *node) load() ticks.Frac {
	if n.down || n.d == nil {
		return ticks.FracOne
	}
	return n.d.Manager().MinSum()
}

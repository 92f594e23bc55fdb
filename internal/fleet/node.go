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

	shell invariant.Shell   // builds every incarnation, checked under Config.Invariants
	d     *core.Distributor // the live incarnation; nil exactly while the node is down, kept after finish
	// flog is the node's own event log: injectors armed on this node
	// record here from the parallel phase, so fire-time writes stay
	// node-local. Read in place by the report's fault count and the
	// node's manifest, and mirrored into the node's flight recorder.
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
// from cluster to cluster.
func newShell() *node {
	n := &node{
		flight: telemetry.NewFlight(0, 0),
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
	*n = node{flight: n.flight, flog: n.flog, tel: n.tel, placed: n.placed[:0], shell: n.shell}
}

// build assembles a fresh incarnation at cluster time at in the shell.
func (n *node) build(at ticks.Ticks) {
	n.scannedGen = 0
	n.d = n.shell.Build(core.Config{
		Seed:                    n.seed,
		SwitchCosts:             &n.costs,
		InterruptReservePercent: n.cfg.InterruptReservePercent,
		Telemetry:               n.tel,
	}, n.cfg.Invariants, &n.flog)
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
	if n.d == nil || n.stallErr != "" {
		return
	}
	n.d.RunUntil(limit)
	if info, ok := n.d.Kernel().Stalled(); ok {
		n.stallErr = fmt.Sprintf("node %d: %s", n.id, info)
	}
}

// retire folds the current incarnation's stats, violations and
// degradations into the node accumulators. finish finalizes its checker
// first; a crash does not (the fleet ledger, not the node checker, owns
// the guarantees that died with the node).
func (n *node) retire(finish bool) {
	violations, degradations := n.shell.Retire(finish)
	n.accViolations += violations
	n.accDegradations += degradations
	st := n.d.Kernel().Stats()
	n.accStats.BusyTicks += st.BusyTicks - n.statsBase.BusyTicks
	n.accStats.SwitchTicks += st.SwitchTicks - n.statsBase.SwitchTicks
	n.accStats.InterruptTicks += st.InterruptTicks - n.statsBase.InterruptTicks
	n.accStats.Now += st.Now - n.statsBase.Now
}

// load is the placement pressure signal: the committed minimum sum.
// Down nodes sort last.
func (n *node) load() ticks.Frac {
	if n.d == nil {
		return ticks.FracOne
	}
	return n.d.Manager().MinSum()
}

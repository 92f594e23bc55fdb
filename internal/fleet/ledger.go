package fleet

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/telemetry"
	"repro/internal/ticks"
)

type admState uint8

const (
	admPending  admState = iota // in the placement pipeline
	admPlaced                   // holding a guarantee on a node
	admDone                     // ran to natural completion
	admRejected                 // recorded fleet-wide denial; never held a guarantee
	admLost                     // guarantee lost to a crash, recorded as a degradation
)

// admRec is the cluster ledger entry for one admission. Its state,
// recovering, timesLost and timesRecovered change only in the
// transition methods of this file, each beside the tally it moves.
type admRec struct {
	Admission
	seq            int
	state          admState
	node           int
	id             task.ID
	attempts       int
	recovering     bool
	crashAt        ticks.Ticks
	timesLost      int
	timesRecovered int

	// Causal-chain tip: the last span recorded for this guarantee's
	// lifecycle, as a (node tag, span ID) address. Every subsequent
	// fleet action links its span back here, so the stitched cluster
	// manifest reads a placement → migration → crash → re-admission
	// history as one linked chain across nodes.
	linkNode int32
	linkSpan telemetry.SpanID
}

// submitted opens the ledger entry for one admission: pending, on no
// node.
func (c *Cluster) submitted(a Admission) *admRec {
	rec := &admRec{Admission: a, seq: len(c.adms), node: -1, id: task.NoID}
	c.adms = append(c.adms, rec)
	return rec
}

// placed commits a's guarantee on n, under the task ID n's RM issued
// after denials other nodes turned the same scan's offer down: a plain
// placement, a spillover, or — for a guarantee a crash stranded — a
// recovery.
func (c *Cluster) placed(a *admRec, n *node, id task.ID, denials int, now ticks.Ticks) {
	a.state = admPlaced
	a.node, a.id = n.id, id
	a.attempts = 0
	n.placed = append(n.placed, a)
	c.cPlaced.Inc()
	spanName := "place"
	if denials > 0 {
		c.cSpill.Inc()
		spanName = "spill"
		c.flog.Record(now, "fleet.spill",
			fmt.Sprintf("%s spilled to node %d after %d denial(s)", a.Name, n.id, denials))
	}
	if a.recovering {
		a.recovering = false
		a.timesRecovered++
		c.cRecovered.Inc()
		spanName = "recover"
		c.recoveryMS.Add((now - a.crashAt).MillisecondsF())
		c.flog.Record(now, "fleet.recover",
			fmt.Sprintf("%s re-placed on node %d, %v after its node crashed", a.Name, n.id, now-a.crashAt))
	}
	p := c.fleetSpan(now, spanName, a, fmt.Sprintf("%s -> node %d", a.Name, n.id))
	c.tipToAdmission(n, a, p)
}

// moved hands a — src's most recent placement — to dst, under the task
// ID dst's RM issued; the state transfer is already charged to dst.
func (c *Cluster) moved(a *admRec, src, dst *node, id task.ID, now ticks.Ticks) {
	src.placed = src.placed[:len(src.placed)-1]
	a.node, a.id = dst.id, id
	dst.placed = append(dst.placed, a)
	c.cMigrate.Inc()
	m := c.fleetSpan(now, "migrate", a, fmt.Sprintf("%s node %d -> %d", a.Name, src.id, dst.id))
	c.tipToAdmission(dst, a, m)
	c.flog.Record(now, "fleet.migrate",
		fmt.Sprintf("%s moved node %d -> %d under shed pressure; %v transfer charged to target",
			a.Name, src.id, dst.id, c.cfg.MigrationCost))
}

// lostToCrash puts a, a guarantee held by the node that just crashed,
// back in the placement pipeline as a recovery.
func (c *Cluster) lostToCrash(a *admRec, ni int, now ticks.Ticks) {
	a.state = admPending
	a.node, a.id = -1, task.NoID
	a.recovering = true
	a.crashAt = now
	a.attempts = 0
	a.timesLost++
	c.cLost.Inc()
	c.fleetSpan(now, "crash-readmit", a, fmt.Sprintf("%s lost with node %d", a.Name, ni))
}

// done retires a: its task exited naturally on n, delivered in full.
func (c *Cluster) done(a *admRec, n *node, now ticks.Ticks) {
	a.state = admDone
	a.id = task.NoID
	c.fleetSpan(now, "complete", a, fmt.Sprintf("%s ran out on node %d", a.Name, n.id))
}

// abandon records an admission's terminal failure: a degradation if
// a crash stranded it, a plain fleet-wide rejection otherwise.
// Either way the outcome is in the ledger and the event log — never
// a silent drop.
func (c *Cluster) abandon(a *admRec, now ticks.Ticks, why string) {
	if a.recovering {
		a.recovering = false
		a.state = admLost
		c.cDrop.Inc()
		c.fleetSpan(now, "lost", a, fmt.Sprintf("%s: %s", a.Name, why))
		c.flog.Record(now, "fleet.lost",
			fmt.Sprintf("%s: guarantee lost to node crash, not re-placed (%s); recorded as degradation", a.Name, why))
		return
	}
	a.state = admRejected
	c.cReject.Inc()
	c.fleetSpan(now, "reject", a, fmt.Sprintf("%s: %s", a.Name, why))
	c.flog.Record(now, "fleet.reject", fmt.Sprintf("%s rejected fleet-wide (%s)", a.Name, why))
}

// doCrash takes a node down at the barrier: its kernel vanishes, its
// incarnation stats fold into the node accumulators (without
// finalizing the checker — open periods died with the node), and
// every fleet guarantee it held enters the recovery pipeline.
func (c *Cluster) doCrash(ni int, now ticks.Ticks) {
	n := c.nodes[ni]
	if n.down {
		c.flog.Record(now, "fleet.crash-skipped", fmt.Sprintf("node %d is already down", ni))
		return
	}
	if n.stallErr != "" {
		return
	}
	n.retire(false)
	lost := n.placed
	n.placed = nil
	n.down = true
	n.d = nil
	c.cCrash.Inc()
	c.fleetSpan(now, "crash", nil, fmt.Sprintf("node %d; %d guarantee(s) lost", ni, len(lost)))
	c.flog.Record(now, "fault.node-crash",
		fmt.Sprintf("node %d crashed; %d fleet guarantee(s) lost, re-admitting", ni, len(lost)))
	// The crash is a breach by definition: capture the dying node's
	// black box now, while its last spans and events are still the
	// most recent thing in the rings.
	c.dump(n, "node-crash", now)
	for _, a := range lost {
		c.lostToCrash(a, ni, now)
		c.push(now, actRetry, a, -1)
	}
}

// doRestart brings a crashed node back with a fresh kernel on the
// next link of its seed chain, idles it forward to cluster time, and
// re-installs its resident workload.
func (c *Cluster) doRestart(ni int, now ticks.Ticks) {
	n := c.nodes[ni]
	if !n.down {
		c.flog.Record(now, "fleet.restart-skipped", fmt.Sprintf("node %d is already up", ni))
		return
	}
	n.seed = sim.SplitSeed(n.seed, StreamNodeSeeds)
	n.down = false
	n.restarts++
	c.cRestart.Inc()
	c.fleetSpan(now, "restart", nil, fmt.Sprintf("node %d incarnation %d", ni, n.restarts+1))
	n.build(now)
	c.flog.Record(now, "fault.node-restart",
		fmt.Sprintf("node %d restarted with a fresh kernel (restart #%d)", ni, n.restarts))
}

// completionScan retires ledger entries whose tasks exited
// naturally. The Resource Manager is the liveness oracle: it knows a
// task from RequestAdmittance until its body exits (the Scheduler
// removes it then), so an ID the RM no longer recognises was delivered
// in full. The scheduler cannot be used here — it only learns a task
// when its first grant is collected, which may be an epoch after
// placement.
func (c *Cluster) completionScan(now ticks.Ticks) {
	for _, n := range c.nodes {
		if n.down || n.d == nil || len(n.placed) == 0 {
			continue
		}
		// A task leaves the RM only through a grant recompute, and a
		// placement enters through one: at an unchanged generation the
		// last scan's answers still stand.
		gen := n.d.Manager().GrantGeneration()
		if gen == n.scannedGen {
			continue
		}
		n.scannedGen = gen
		kept := n.placed[:0]
		for _, a := range n.placed {
			if n.d.Manager().Has(a.id) {
				kept = append(kept, a)
			} else {
				c.done(a, n, now)
			}
		}
		n.placed = kept
	}
}

// auditConservation re-derives the guarantee ledger from the
// admission records and holds the fleet.* counters to it. The ledger
// being re-computed from scratch is the point: a bookkeeping bug in
// the pipeline cannot silently agree with itself.
func (c *Cluster) auditConservation() []string {
	var probs []string
	var lost, recovered, lostRec int64
	cLost, cRecovered, cDrop := c.cLost.Value(), c.cRecovered.Value(), c.cDrop.Value()
	for _, a := range c.adms {
		lost += int64(a.timesLost)
		recovered += int64(a.timesRecovered)
		if a.state == admLost {
			lostRec++
		}
		if a.recovering {
			probs = append(probs, fmt.Sprintf(
				"%s (seq %d): crash-lost guarantee neither re-placed nor recorded", a.Name, a.seq))
		}
		want := a.timesLost
		if a.state == admLost {
			want--
		}
		if a.timesRecovered != want && !a.recovering {
			probs = append(probs, fmt.Sprintf(
				"%s (seq %d): %d crash losses vs %d recoveries in state %d",
				a.Name, a.seq, a.timesLost, a.timesRecovered, a.state))
		}
	}
	if lost != cLost || recovered != cRecovered || lostRec != cDrop {
		probs = append(probs, fmt.Sprintf(
			"ledger counters diverge from records: lost %d/%d, recovered %d/%d, recorded %d/%d",
			lost, cLost, recovered, cRecovered, lostRec, cDrop))
	}
	if cLost != cRecovered+cDrop {
		probs = append(probs, fmt.Sprintf(
			"conservation: %d guarantees lost to crashes != %d re-placed + %d recorded degradations",
			cLost, cRecovered, cDrop))
	}
	return probs
}

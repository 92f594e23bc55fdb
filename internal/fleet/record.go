package fleet

import (
	"fmt"

	"repro/internal/telemetry"
	"repro/internal/ticks"
)

// recorder is the coordinator's recording storage, kept by the Arena
// from cluster to cluster. spans is the decision-span log: it records
// every fleet decision (bounded by the admission pipeline, so
// always-full retention is cheap). flight, its black box, fronts the
// spans and mirrors the tail of the event log for conservation-breach
// dumps. reg holds the fleet.* instruments.
type recorder struct {
	spans  *telemetry.Spans
	flight *telemetry.Flight
	reg    telemetry.Registry
	// spanCap is the Config ring size the recorders above were built
	// with.
	spanCap int
}

// reset empties the recorder for a cluster with the given span-ring
// size. It reports whether that size is a new one: the recorders built
// for the old size — the node shells' too — are then to be let go.
func (r *recorder) reset(spanCap int) (resized bool) {
	if resized = r.spanCap != spanCap; resized {
		r.flight, r.spanCap = nil, spanCap
	}
	if r.flight == nil {
		r.flight = telemetry.NewFlight(spanCap, 0)
		r.spans = telemetry.NewSpans()
	}
	r.flight.Reset()
	r.spans.Reset()
	r.reg.Reset()
	r.flight.Front(r.spans)
	return resized
}

// recordIn points the cluster's recording at r: its registry and span
// log as the instrument set reports and manifests read, its black box
// behind the event log.
func (c *Cluster) recordIn(r *recorder) {
	c.tel = &telemetry.Set{Registry: &r.reg, Spans: r.spans}
	c.flight = r.flight
	c.flog.MirrorTo(r.flight)
	c.cFlightDump = r.reg.Counter("fleet.flight.dumps")
}

// fleetSpan records one coordinator decision instant (cat "fleet")
// and, when it belongs to an admission's lifecycle, links it to the
// chain tip and advances the tip to this span. Returns the span ID
// for callers that re-tip onto a node-side span.
func (c *Cluster) fleetSpan(now ticks.Ticks, name string, a *admRec, detail string) telemetry.SpanID {
	id := c.tel.Spans.Instant(now, "fleet", name, telemetry.NoTask, 0, detail)
	if a != nil && id != 0 {
		if a.linkSpan != 0 {
			c.tel.Spans.SetLink(id, a.linkNode, a.linkSpan)
		}
		a.linkNode, a.linkSpan = telemetry.CoordTag, id
	}
	return id
}

// tipToAdmission moves an admission's chain tip onto the node-side
// admission span the placement just produced, and links that span
// back to the coordinator decision — the cross-node half of the
// causal chain. The admission span is the newest "admission"-cat span
// in the node's log: RequestAdmittance records it synchronously and
// the coordinator owns the log until the next parallel phase.
func (c *Cluster) tipToAdmission(n *node, a *admRec, coordSpan telemetry.SpanID) {
	log := n.tel.SpanLog()
	admSpan := log.FindLast("admission")
	if admSpan == 0 {
		return
	}
	log.SetLink(admSpan, telemetry.CoordTag, coordSpan)
	a.linkNode, a.linkSpan = telemetry.NodeTag(n.id), admSpan
}

// dump snapshots a flight recorder — n's, or the coordinator's own for
// a nil n — into the run's post-mortem record.
func (c *Cluster) dump(n *node, reason string, at ticks.Ticks) {
	f, tag := c.flight, telemetry.CoordTag
	if n != nil {
		f, tag = n.flight, telemetry.NodeTag(n.id)
	}
	c.flightDumps = append(c.flightDumps, f.Dump(tag, reason, at))
	c.cFlightDump.Inc()
	c.flog.Record(at, "fleet.flight-dump",
		fmt.Sprintf("%s black box dumped (%s)", telemetry.TagString(tag), reason))
}

// dumpBreach dumps n's black box when its invariant checkers — those of
// retired incarnations and the live one — have recorded violations
// since n's last such dump.
func (c *Cluster) dumpBreach(n *node, at ticks.Ticks) {
	v := n.accViolations
	if n.chk != nil {
		v += int64(n.chk.NViolations())
	}
	if v > n.violDumped {
		n.violDumped = v
		c.dump(n, "invariant", at)
	}
}

// flightScan fires black-box dumps for breaches the parallel phase
// surfaced: a node whose invariant checker recorded new violations,
// or a node whose kernel tripped the livelock guard. Crash dumps are
// taken in doCrash, where the dying incarnation is still at hand.
func (c *Cluster) flightScan(now ticks.Ticks) {
	for _, n := range c.nodes {
		if n.stallErr != "" && !n.stallDumped {
			n.stallDumped = true
			c.dump(n, "stall", now)
		}
		if !n.down {
			c.dumpBreach(n, now)
		}
	}
}

package fleet

import (
	"fmt"
	"strconv"

	"repro/internal/telemetry"
	"repro/internal/ticks"
)

// recorder is the coordinator's recording storage, kept by the Arena
// from cluster to cluster. spans is the decision-span log: it records
// every fleet decision (bounded by the admission pipeline, so
// always-full retention is cheap). flight, its black box, fronts the
// spans and mirrors the tail of the event log for conservation-breach
// dumps. reg holds the fleet.* instruments. notes are the hot
// decisions whose span details renderNotes has yet to write.
type recorder struct {
	spans  *telemetry.Spans
	flight *telemetry.Flight
	reg    telemetry.Registry
	notes  []note
	buf    []byte // where a note's text is built
}

// reset empties the recorder for the next cluster.
func (r *recorder) reset() {
	if r.flight == nil {
		r.flight = telemetry.NewFlight(0, 0)
		r.spans = telemetry.NewSpans()
	}
	r.flight.Reset()
	r.spans.Reset()
	r.reg.Reset()
	r.flight.Front(r.spans)
	r.notes = r.notes[:0]
}

// note is a hot decision kept as data; x and y are node IDs or a denial count.
type note struct {
	a    *admRec
	span telemetry.SpanID
	x, y int32
	kind noteKind
}

type noteKind uint8

const (
	notePlaced       noteKind = iota // place, spill or recover span
	noteMigrate                      // migrate span
	noteLost                         // crash-readmit span
	noteDone                         // complete span
	noteSpillEvent                   // fleet.spill event line
	noteMigrateEvent                 // fleet.migrate event line
)

// noteText is each kind's text: name, [0], x, and if [1] is set, [1], y, [2].
var noteText = [...][3]string{
	notePlaced:       {" -> node "},
	noteMigrate:      {" node ", " -> "},
	noteLost:         {" lost with node "},
	noteDone:         {" ran out on node "},
	noteSpillEvent:   {" spilled to node ", " after ", " denial(s)"},
	noteMigrateEvent: {" moved node ", " -> ", " under shed pressure; " + migrationCost.String() + " transfer charged to target"},
}

// text renders n; its one allocation is the string.
func (r *recorder) text(n *note) string {
	t := &noteText[n.kind]
	r.buf = strconv.AppendInt(append(append(r.buf[:0], n.a.Name...), t[0]...), int64(n.x), 10)
	if t[1] != "" {
		r.buf = append(strconv.AppendInt(append(r.buf, t[1]...), int64(n.y), 10), t[2]...)
	}
	return string(r.buf)
}

// noteSpan records a hot decision span, its detail left to renderNotes.
func (c *Cluster) noteSpan(now ticks.Ticks, name string, n note) telemetry.SpanID {
	n.span = c.fleetSpan(now, name, n.a, "")
	c.rec.notes = append(c.rec.notes, n)
	return n.span
}

// renderNotes writes the span details noted since its last call. Every
// reader of the coordinator's span log calls it first, while live.
func (c *Cluster) renderNotes() {
	r := c.rec
	for i := range r.notes {
		r.spans.SetDetail(r.notes[i].span, r.text(&r.notes[i]))
	}
	r.notes = r.notes[:0]
}

// recordIn points the cluster's recording at r: its registry and span
// log as the instrument set reports and manifests read, its black box
// behind the event log.
func (c *Cluster) recordIn(r *recorder) {
	c.rec = r
	c.tel = &telemetry.Set{Registry: &r.reg, Spans: r.spans}
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
	f, tag := c.rec.flight, telemetry.CoordTag
	if n != nil {
		f, tag = n.flight, telemetry.NodeTag(n.id)
	} else {
		c.renderNotes()
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
	if chk := n.shell.Checker(); chk != nil {
		v += int64(chk.NViolations())
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
		if n.d != nil {
			c.dumpBreach(n, now)
		}
	}
}

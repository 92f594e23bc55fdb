package fleet

import (
	"fmt"

	"repro/internal/task"
	"repro/internal/telemetry"
	"repro/internal/ticks"
)

// Manifest assembly: a finished cluster yields per-node rdtel/v2
// manifests, a coordinator manifest, and the stitched cluster
// manifest that joins them — node-tagged spans, causal links resolved
// to global IDs, black-box dumps attached. All of it is built on
// demand after Run, off the sweep hot path: a sweep that only wants
// counters never pays for stitching.

// digestConfig is the JSON-digestable projection of Config: every
// field that shapes the run, none of the function-valued ones.
type digestConfig struct {
	Nodes                   int
	Seed                    uint64
	Epoch                   ticks.Ticks
	Placement               string
	Retry                   RetryPolicy
	MigrationCost           ticks.Ticks
	InterruptReservePercent int64
	GovernorInterval        ticks.Ticks
	Invariants              bool
	SpanLog                 bool
}

func (c *Cluster) configDigest() string {
	return telemetry.ConfigDigest(digestConfig{
		Nodes:                   c.cfg.Nodes,
		Seed:                    c.cfg.Seed,
		Epoch:                   epoch,
		Placement:               c.cfg.Placement.String(),
		Retry:                   c.cfg.Retry,
		MigrationCost:           c.cfg.MigrationCost,
		InterruptReservePercent: c.cfg.InterruptReservePercent,
		GovernorInterval:        c.cfg.GovernorInterval,
		Invariants:              c.cfg.Invariants,
		SpanLog:                 c.cfg.SpanLog,
	})
}

func (c *Cluster) manifestShell(tag int32) *telemetry.Manifest {
	m := telemetry.NewManifest(c.cfg.Seed)
	m.ConfigDigest = c.configDigest()
	m.HorizonTicks = c.horizon
	m.Node = tag
	return m
}

// spanReader takes a span log's resident spans for a manifest:
// Spans.Export for a manifest handed to a caller, Spans.Resident for
// one that only feeds the stitch.
type spanReader func(*telemetry.Spans) []telemetry.Span

// CoordManifest freezes the coordinator's own view: fleet.* counters,
// the fleet decision-span log, the coordinator event log, and every
// black-box dump the run produced. Valid after Run.
func (c *Cluster) CoordManifest() (*telemetry.Manifest, error) {
	if !c.ran {
		return nil, fmt.Errorf("fleet: CoordManifest before Run")
	}
	return c.coordManifest((*telemetry.Spans).Export), nil
}

func (c *Cluster) coordManifest(spans spanReader) *telemetry.Manifest {
	m := c.manifestShell(telemetry.CoordTag)
	m.Metrics = c.tel.Reg().Snapshot()
	m.Spans = spans(c.tel.SpanLog())
	m.Events = c.flog.Events()
	m.FlightDumps = c.flightDumps
	m.DeriveTotals()
	return m
}

// NodeManifest freezes node i's own view: its registry, its span log
// (the full log under Config.SpanLog, otherwise the flight ring's
// residents), its event log, and the tasks it held at the horizon.
// Valid after Run.
func (c *Cluster) NodeManifest(i int) (*telemetry.Manifest, error) {
	if !c.ran {
		return nil, fmt.Errorf("fleet: NodeManifest before Run")
	}
	if i < 0 || i >= len(c.nodes) {
		return nil, fmt.Errorf("fleet: NodeManifest(%d) outside fleet of %d", i, len(c.nodes))
	}
	return c.nodeManifest(i, (*telemetry.Spans).Export), nil
}

func (c *Cluster) nodeManifest(i int, spans spanReader) *telemetry.Manifest {
	n := c.nodes[i]
	m := c.manifestShell(telemetry.NodeTag(i))
	m.Metrics = n.tel.Reg().Snapshot()
	m.Spans = spans(n.tel.SpanLog())
	m.Events = n.flog.Events()
	for k := range c.recs.a {
		if a := &c.recs.a[k]; a.state == admPlaced && a.node == i && a.id != task.NoID {
			m.Tasks = append(m.Tasks, telemetry.TaskInfo{
				ID: int64(a.id), Name: a.Name, Node: telemetry.NodeTag(i),
			})
		}
	}
	m.DeriveTotals()
	return m
}

// Manifest stitches the coordinator and every node into one rdtel/v2
// cluster manifest: spans concatenated coordinator-first with IDs
// rebased into a single global sequence, cross-node causal links
// resolved, metrics and events merged in node order, flight dumps
// attached. Stitching the files written from CoordManifest and
// NodeManifest through telemetry.StitchCluster (rdtrace stitch)
// produces the identical result. The stitch copies every span into the
// result, so it reads the logs where they lie. Valid after Run.
func (c *Cluster) Manifest() (*telemetry.Manifest, error) {
	if !c.ran {
		return nil, fmt.Errorf("fleet: Manifest before Run")
	}
	nodes := make([]*telemetry.Manifest, len(c.nodes))
	for i := range c.nodes {
		nodes[i] = c.nodeManifest(i, (*telemetry.Spans).Resident)
	}
	return telemetry.StitchCluster(c.coordManifest((*telemetry.Spans).Resident), nodes)
}

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
	Retry                   retryDigest
	MigrationCost           ticks.Ticks
	InterruptReservePercent int64
	GovernorInterval        ticks.Ticks
	Invariants              bool
	SpanLog                 bool
}

// retryDigest is the shape the retry bounds take in the digest.
type retryDigest struct{ MaxAttempts, Base, Max ticks.Ticks }

func (c *Cluster) configDigest() string {
	return telemetry.ConfigDigest(digestConfig{
		Nodes:                   c.cfg.Nodes,
		Seed:                    c.cfg.Seed,
		Epoch:                   epoch,
		Placement:               c.cfg.Placement.String(),
		Retry:                   retryDigest{retryAttempts, retryBase, retryMax},
		MigrationCost:           migrationCost,
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

// CoordManifest freezes the coordinator's own view: fleet.* counters,
// the fleet decision-span log, the coordinator event log, and every
// black-box dump the run produced. Valid after Run.
func (c *Cluster) CoordManifest() (*telemetry.Manifest, error) {
	if !c.ran {
		return nil, fmt.Errorf("fleet: CoordManifest before Run")
	}
	m := c.coordManifest()
	m.Spans = c.tel.SpanLog().Export()
	return m, nil
}

// coordManifest is CoordManifest without the spans, which the live
// stitch reads from the log.
func (c *Cluster) coordManifest() *telemetry.Manifest {
	m := c.manifestShell(telemetry.CoordTag)
	m.Metrics = c.tel.Reg().Snapshot()
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
	m := c.nodeManifest(i)
	m.Spans = c.nodes[i].tel.SpanLog().Export()
	return m, nil
}

// nodeManifest is NodeManifest without the spans.
func (c *Cluster) nodeManifest(i int) *telemetry.Manifest {
	n := c.nodes[i]
	m := c.manifestShell(telemetry.NodeTag(i))
	m.Metrics = n.tel.Reg().Snapshot()
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
// produces the identical result. The stitch reads every span log where
// it lies, so its result holds the only copy. Valid after Run.
func (c *Cluster) Manifest() (*telemetry.Manifest, error) {
	if !c.ran {
		return nil, fmt.Errorf("fleet: Manifest before Run")
	}
	nodes := make([]*telemetry.Manifest, len(c.nodes))
	logs := make([]*telemetry.Spans, 1+len(c.nodes))
	logs[0] = c.tel.SpanLog()
	for i, n := range c.nodes {
		nodes[i], logs[1+i] = c.nodeManifest(i), n.tel.SpanLog()
	}
	return telemetry.StitchLogs(c.coordManifest(), nodes, logs)
}

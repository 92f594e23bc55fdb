package fleet

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/ticks"
)

// Report is a finished run's frozen measurements. Every field is a
// pure function of (Config, submissions, armed injectors), never of
// Workers.
type Report struct {
	Nodes   int
	Horizon ticks.Ticks

	Arrivals   int64 // admissions whose arrival barrier fell inside the horizon
	Placed     int64 // guarantees committed (counting each re-placement once)
	Spillovers int64 // placements that landed after at least one live-node denial
	Retries    int64 // backoff rounds consumed by fleet-wide denials
	Rejected   int64 // admissions denied fleet-wide past the retry budget
	Unarrived  int64 // submissions whose arrival time fell beyond the horizon

	DeniedAttempts int64 // individual node-level denials across all scans

	Migrations    int64 // pressure-driven moves committed (with cost charged)
	MigrateFailed int64 // pressure sources that found no host

	Crashes      int64 // node crashes executed
	Restarts     int64 // node restarts executed
	LostToCrash  int64 // guarantees on crashed nodes entering recovery
	Recovered    int64 // crash-lost guarantees re-placed on siblings
	LostRecorded int64 // crash-lost guarantees recorded as degradations

	// RecoveryMS samples crash→re-placement latency, per recovery.
	RecoveryMS metrics.Summary

	Misses  int64 // deadline misses across all nodes and incarnations
	Periods int64 // period starts across all nodes and incarnations

	Degradations int64 // recorded rm pressure decisions, summed over nodes
	// Violations counts per-node invariant-checker breaches plus
	// fleet-ledger conservation failures; zero on a healthy run.
	Violations     int64
	FaultsInjected int64

	// Fleet-aggregate fractions over live node capacity (downtime is
	// excluded from the denominator).
	Utilization    float64
	SwitchOverhead float64
	InterruptLoad  float64

	// Stalled lists nodes whose kernels tripped the livelock guard,
	// and node-init failures; non-empty means the run is invalid.
	Stalled []string

	// Telemetry is the merged cluster snapshot: the coordinator's
	// fleet.* counters unioned with every node's own registry
	// (sched.*, rm.*, sim.*, invariant.*), merged coordinator-first
	// then in node-ID order — worker-count invariant like every other
	// aggregate here. A node's own snapshot is in its NodeManifest.
	Telemetry telemetry.Snapshot

	// FlightDumps are the run's black-box artifacts, in trigger order:
	// one per node crash, per newly noticed invariant breach, per
	// stall, and per conservation-audit failure.
	FlightDumps []telemetry.FlightDump
}

func (c *Cluster) report(horizon ticks.Ticks) *Report {
	probs := c.auditConservation()
	for _, p := range probs {
		c.flog.Record(horizon, "invariant.fleet-conservation", p)
	}
	if len(probs) > 0 {
		// A broken ledger is exactly what the coordinator's black box
		// exists for: dump it with the breach freshly logged.
		c.dump(nil, "fleet-conservation", horizon)
	}
	r := &Report{
		Nodes:          len(c.nodes),
		Horizon:        horizon,
		Arrivals:       c.arrivals,
		Placed:         c.cPlaced.Value(),
		Spillovers:     c.cSpill.Value(),
		Retries:        c.cRetry.Value(),
		Rejected:       c.cReject.Value(),
		Unarrived:      c.unarrived,
		DeniedAttempts: c.deniedAttempts,
		Migrations:     c.cMigrate.Value(),
		MigrateFailed:  c.migrateFailed,
		Crashes:        c.cCrash.Value(),
		Restarts:       c.cRestart.Value(),
		LostToCrash:    c.cLost.Value(),
		Recovered:      c.cRecovered.Value(),
		LostRecorded:   c.cDrop.Value(),
		Violations:     int64(len(probs)),
	}
	r.RecoveryMS.Merge(&c.recoveryMS)
	r.FaultsInjected = int64(c.flog.KindPrefixCount("fault."))
	r.Telemetry = c.tel.Reg().Snapshot()
	r.FlightDumps = c.flightDumps
	var sum sim.Stats
	// One node's snapshot at a time, refilled in place: it is read for
	// two counters and merged into the cluster's, which copies it.
	var snap telemetry.Snapshot
	for _, n := range c.nodes {
		r.Degradations += n.accDegradations
		r.Violations += n.accViolations
		sum.Now += n.accStats.Now
		sum.BusyTicks += n.accStats.BusyTicks
		sum.SwitchTicks += n.accStats.SwitchTicks
		sum.InterruptTicks += n.accStats.InterruptTicks
		if n.stallErr != "" {
			r.Stalled = append(r.Stalled, n.stallErr)
		}
		if n.initErr != "" {
			r.Stalled = append(r.Stalled, n.initErr)
		}
		r.FaultsInjected += int64(n.flog.KindPrefixCount("fault."))
		n.tel.Reg().SnapshotInto(&snap)
		r.Misses += snap.CounterValue("sched.deadline.misses")
		r.Periods += snap.CounterValue("sched.period.rollovers")
		r.Telemetry.Merge(snap)
	}
	r.Utilization = sum.Utilization()
	r.SwitchOverhead = sum.SwitchOverheadFraction()
	r.InterruptLoad = sum.InterruptLoadFraction()
	return r
}

// Summary renders the report's scalar fields in a fixed layout —
// the worker-invariance and determinism tests compare these strings
// (and the manifests' event logs) byte for byte.
func (r *Report) Summary() string {
	return fmt.Sprintf(
		"nodes=%d horizon=%v arrivals=%d placed=%d spill=%d retries=%d rejected=%d unarrived=%d denied=%d "+
			"migrations=%d migrate-failed=%d crashes=%d restarts=%d lost=%d recovered=%d lost-recorded=%d "+
			"recovery-p50=%.3fms recovery-p99=%.3fms misses=%d periods=%d degr=%d viol=%d faults=%d "+
			"util=%.6f sw=%.6f irq=%.6f stalled=%d",
		r.Nodes, r.Horizon, r.Arrivals, r.Placed, r.Spillovers, r.Retries, r.Rejected, r.Unarrived,
		r.DeniedAttempts, r.Migrations, r.MigrateFailed, r.Crashes, r.Restarts, r.LostToCrash,
		r.Recovered, r.LostRecorded, r.RecoveryMS.Percentile(50), r.RecoveryMS.Percentile(99),
		r.Misses, r.Periods, r.Degradations, r.Violations, r.FaultsInjected,
		r.Utilization, r.SwitchOverhead, r.InterruptLoad, len(r.Stalled))
}

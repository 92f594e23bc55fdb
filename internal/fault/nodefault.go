package fault

// Node-level fault injectors for the fleet layer (internal/fleet):
// whole-node crash/restart cycles and correlated interrupt storms
// fanned across sibling nodes. The injectors speak to the cluster
// through the NodeFleet interface, so this package stays independent
// of internal/fleet (fleet imports fault, never the reverse).
//
// The determinism contract matches the per-task injectors: all
// randomness comes from positional SplitSeed substreams of the
// cluster seed (StreamBase+i for the i-th injector), schedules are
// drawn in full at arm time, and every crash, restart and burst the
// cluster executes is recorded — see docs/FAULTS.md, "fleet failure
// semantics".

import (
	"errors"
	"fmt"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/ticks"
)

// NodeFleet is the slice of a node cluster the node-level injectors
// program against. internal/fleet's Cluster implements it.
type NodeFleet interface {
	// NodeCount reports how many nodes the cluster was built with.
	NodeCount() int
	// ScheduleNodeCrash asks the cluster to take node down at the
	// epoch barrier covering virtual time at. Crashing a node that is
	// already down is recorded and skipped.
	ScheduleNodeCrash(node int, at ticks.Ticks)
	// ScheduleNodeRestart asks the cluster to bring node back up at
	// the epoch barrier covering virtual time at, with a fresh kernel
	// re-seeded from the node's seed chain.
	ScheduleNodeRestart(node int, at ticks.Ticks)
	// ArmOnNode arms a per-task injector against one node's current
	// Distributor, logging into that node's own event log. Injectors
	// armed this way die with the node if it crashes before they
	// fire.
	ArmOnNode(node int, inj Injector, rng *sim.RNG)
}

// NodeInjector arms one deterministic node-level fault against a
// cluster, mirroring Injector at fleet scope.
type NodeInjector interface {
	// Name identifies the injector in logs and scenario tables.
	Name() string
	// Validate checks the spec before arming.
	Validate() error
	// ArmFleet schedules the fault's effects on f. rng is the
	// injector's private substream; log receives arm-time "fault.*"
	// events (fire-time events are recorded by the cluster itself).
	ArmFleet(f NodeFleet, rng *sim.RNG, log *telemetry.EventLog)
}

// ArmFleet arms each node-level injector with its own substream of
// seed — injector i draws from sim.SplitSeed(seed, StreamBase+i),
// exactly the positional discipline ArmAll applies to per-task
// injectors. Specs are validated up front; a bad spec arms nothing.
func ArmFleet(f NodeFleet, seed uint64, log *telemetry.EventLog, injs ...NodeInjector) error {
	for i, inj := range injs {
		if err := inj.Validate(); err != nil {
			return fmt.Errorf("fault: node injector %d (%s): %w", i, inj.Name(), err)
		}
		if err := nodeRangeErr(inj, f.NodeCount()); err != nil {
			return fmt.Errorf("fault: node injector %d (%s): %w", i, inj.Name(), err)
		}
	}
	for i, inj := range injs {
		rng := sim.NewRNG(sim.SplitSeed(seed, StreamBase+uint64(i)))
		inj.ArmFleet(f, rng, log)
	}
	return nil
}

// nodeRangeErr checks an injector's node references against the
// actual cluster size — Validate alone cannot, since the spec does
// not know the fleet it will be armed on.
func nodeRangeErr(inj NodeInjector, nodes int) error {
	switch n := inj.(type) {
	case NodeCrash:
		if n.Node >= nodes {
			return fmt.Errorf("node %d out of range (fleet has %d nodes)", n.Node, nodes)
		}
	case NodeStorm:
		if n.FirstNode >= nodes || n.FirstNode+n.Nodes > nodes {
			return fmt.Errorf("node fan [%d,%d) out of range (fleet has %d nodes)",
				n.FirstNode, n.FirstNode+n.Nodes, nodes)
		}
	}
	return nil
}

// --- whole-node crash / restart ---

// NodeCrash takes a whole node down and back up for Cycles cycles:
// the kernel, scheduler, RM and every guarantee on the node vanish at
// the crash barrier, and the cluster must re-admit the lost
// guarantees elsewhere or record each one as a degradation. Up/down
// durations are drawn per cycle at arm time (uniform in
// [mean/2, 3*mean/2) around MeanUp/MeanDown), so the whole outage
// schedule is fixed by the spec and the seed.
type NodeCrash struct {
	// Node is the target node ID; negative means the target is drawn
	// uniformly per cycle from the injector substream, so repeated
	// cycles hit a deterministic but spread-out set of nodes.
	Node int
	// At is the virtual time of the first crash.
	At ticks.Ticks
	// Cycles is the number of crash/restart cycles.
	Cycles int
	// MeanUp and MeanDown are the mean healthy/outage durations.
	MeanUp, MeanDown ticks.Ticks
}

func (n NodeCrash) Name() string { return "node-crash" }

func (n NodeCrash) Validate() error {
	if n.At < 0 {
		return fmt.Errorf("arm time %d must not be negative", int64(n.At))
	}
	if n.Cycles < 1 {
		return fmt.Errorf("cycles %d must be at least 1", n.Cycles)
	}
	if n.MeanUp <= 0 || n.MeanDown <= 0 {
		return fmt.Errorf("mean up %d / mean down %d must be positive",
			int64(n.MeanUp), int64(n.MeanDown))
	}
	return nil
}

func (n NodeCrash) ArmFleet(f NodeFleet, rng *sim.RNG, log *telemetry.EventLog) {
	jitter := func(mean ticks.Ticks) ticks.Ticks {
		return mean/2 + ticks.Ticks(rng.Uint64()%uint64(mean))
	}
	at := n.At
	for c := 0; c < n.Cycles; c++ {
		node := n.Node
		if node < 0 {
			node = rng.Intn(f.NodeCount())
		}
		down := jitter(n.MeanDown)
		f.ScheduleNodeCrash(node, at)
		f.ScheduleNodeRestart(node, at+down)
		at += down + jitter(n.MeanUp)
	}
	log.Record(0, "fault.node-crash-armed",
		fmt.Sprintf("%d crash/restart cycle(s) from t=%v", n.Cycles, n.At))
}

// --- correlated storm fan ---

// NodeStorm fans one interrupt-storm spec across a contiguous range
// of nodes — the correlated overload that a single-node Storm cannot
// model. With Stagger zero the bursts land on every node in the fan
// at the same virtual time; a positive Stagger offsets node i's
// storm by i*Stagger, modelling a rolling failure front. Each node's
// burst counts are drawn from the shared injector substream in node
// order at arm time. A storm armed on a node dies with that node if
// a crash lands first — outages do not deliver interrupts.
type NodeStorm struct {
	// Storm is the per-node burst shape (validated like a standalone
	// Storm, and without an Injected counter).
	Storm Storm
	// FirstNode and Nodes select the contiguous fan
	// [FirstNode, FirstNode+Nodes).
	FirstNode, Nodes int
	// Stagger is the per-node start offset.
	Stagger ticks.Ticks
}

func (s NodeStorm) Name() string { return "node-storm" }

func (s NodeStorm) Validate() error {
	if err := s.Storm.Validate(); err != nil {
		return fmt.Errorf("storm spec: %w", err)
	}
	if s.FirstNode < 0 {
		return fmt.Errorf("first node %d must not be negative", s.FirstNode)
	}
	if s.Nodes < 1 {
		return fmt.Errorf("fan width %d must be at least 1", s.Nodes)
	}
	if s.Stagger < 0 {
		return fmt.Errorf("stagger %d must not be negative", int64(s.Stagger))
	}
	if s.Storm.Injected != nil {
		// Every node of the fan would add into the one counter, from
		// parallel node advances.
		return errors.New("storm's Injected counter is a single-node hook, not shareable across a fan")
	}
	return nil
}

func (s NodeStorm) ArmFleet(f NodeFleet, rng *sim.RNG, log *telemetry.EventLog) {
	for i := 0; i < s.Nodes; i++ {
		st := s.Storm
		st.At += ticks.Ticks(i) * s.Stagger
		f.ArmOnNode(s.FirstNode+i, st, rng)
	}
	log.Record(0, "fault.node-storm-armed",
		fmt.Sprintf("storm fanned across nodes [%d,%d), stagger %v",
			s.FirstNode, s.FirstNode+s.Nodes, s.Stagger))
}

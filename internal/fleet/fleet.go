// Package fleet is the multi-node layer over the Resource
// Distributor: a deterministic cluster where every node is one
// complete RD (kernel + scheduler + RM + governor) and a cluster
// admission front end places guaranteed tasks across nodes,
// spilling admissions a node rejects onto siblings, retrying
// fleet-wide denials under bounded exponential backoff, migrating
// load off nodes whose governors are shedding, and re-admitting the
// guarantees lost when a whole node crashes.
//
// # Determinism
//
// The cluster advances on epoch barriers. Between barriers every live
// node runs its own single-goroutine kernel on a persistent pool: Run
// starts Workers−1 helpers once and joins them on every exit, a panic
// included. Each worker drains its own node range, then steals the
// others' tails; every node is claimed once per epoch, and the
// lowest-indexed node's panic is re-raised after it, as a one-worker
// run raises it. Nodes share no state, so no node's trajectory depends
// on the worker that claims it. At
// each barrier a single coordinator applies every inter-node action —
// arrivals, retries, crashes, restarts, migrations — sequentially,
// ordered by (due time, submission sequence), so inter-node effects
// are quantized to epoch boundaries: conservative, and reproducible for
// any worker count. `fleet.Config.Workers` never affects results, only
// wall time; fleet_test.go pins this the way sweep_test.go pins rdsweep.
//
// Randomness follows the repo's substream discipline
// (docs/DETERMINISM.md): backoff jitter draws from the dedicated
// StreamBackoff substream of the cluster seed, node kernel seeds
// derive from StreamNodeSeeds (a per-node splitmix chain, advanced
// again at every restart so each incarnation decorrelates), and
// node-level fault injectors get the positional fault.StreamBase+i
// substreams, exactly like per-task injectors.
//
// # Conservation
//
// The robustness contract mirrors the paper's §5.2 overload story at
// fleet scope: a guarantee, once accepted, is never silently
// dropped. Every admission ends placed (and running or naturally
// completed), rejected with a recorded fleet-wide denial, or — after
// a node crash — either re-placed on a sibling or recorded as a
// degradation. At report time auditConservation re-derives the ledger
// from the admission records and reports any imbalance as an invariant
// violation, alongside the per-node runtime checkers.
package fleet

import (
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/telemetry"
	"repro/internal/ticks"
)

// Seed substreams owned by the fleet layer (see the allocation table
// in docs/DETERMINISM.md; rngstream polices these fleet-wide).
const (
	// StreamBackoff feeds the retry backoff jitter: every delay the
	// cluster draws between placement attempts comes from this one
	// substream, consumed only in the sequential coordinator phase.
	StreamBackoff = 7
	// StreamNodeSeeds derives node kernel seeds: node i's first
	// incarnation seed is the i-th draw from the substream, and each
	// restart advances the node's private splitmix chain one step so
	// a rebuilt kernel never replays its predecessor.
	StreamNodeSeeds = 8
)

// epoch is the barrier interval: all inter-node actions take effect on
// epoch boundaries.
const epoch = 10 * ticks.PerMillisecond

// The fleet-wide retry loop: an admission may consume retryAttempts
// full placement scans; attempt k waits min(retryBase<<(k-1), retryMax)
// plus jitter in [0, delay/2] drawn from StreamBackoff.
const (
	retryAttempts = 4
	retryBase     = 5 * ticks.PerMillisecond
	retryMax      = 80 * ticks.PerMillisecond
)

// migrationCost is the state-transfer charge a migration's target node
// pays, delivered as one interrupt slab.
const migrationCost = 100 * ticks.PerMicrosecond

// Placement selects the order in which the admission front end
// offers a task to nodes.
type Placement int

const (
	// FirstFit scans nodes in ID order and takes the first admit.
	FirstFit Placement = iota
	// LeastLoaded offers to nodes in ascending committed-minimum
	// order (rm.Manager.MinSum), IDs breaking ties.
	LeastLoaded
	// RoundRobinHash starts the scan at hash(task name) mod N and
	// wraps, spreading unrelated tasks without central state.
	RoundRobinHash
)

func (p Placement) String() string {
	switch p {
	case LeastLoaded:
		return "least-loaded"
	case RoundRobinHash:
		return "rr-hash"
	default:
		return "first-fit"
	}
}

// Config assembles a cluster.
type Config struct {
	// Nodes is the fleet size; every node is a full RD.
	Nodes int
	// Seed is the cluster seed; node seeds and backoff jitter derive
	// from it via the substreams above.
	Seed uint64
	// Placement selects the admission scan order.
	Placement Placement
	// Workers sizes the work-stealing node-advance pool; <= 0 selects
	// GOMAXPROCS, at most Nodes are used. Never affects results, a node's
	// panic included.
	Workers int
	// SwitchCosts applies to every node kernel (nil = zero costs).
	SwitchCosts *sim.SwitchCosts
	// InterruptReservePercent is each node's §5.2 interrupt reserve.
	InterruptReservePercent int64
	// GovernorInterval, when positive, arms each node's overload
	// governor; a node under recorded pressure becomes a migration
	// source at the next barrier.
	GovernorInterval ticks.Ticks
	// Invariants arms a per-node invariant.Checker on every node
	// incarnation.
	Invariants bool
	// NodeInit, when non-nil, installs each node's resident local
	// workload; it runs once per incarnation (initial build and after
	// every restart). Resident load is node-local by definition — it
	// dies with a crash and returns with the restart, and is not part
	// of the cluster guarantee ledger.
	NodeInit func(d *core.Distributor, node int) error

	// SpanLog retains every node's full decision-span log, which a
	// stitched cluster manifest needs to show a guarantee's complete
	// lifecycle. Off by default: each node then keeps only its flight
	// recorder's ring, so telemetry memory stays bounded at fleet
	// scale while the black box and causal links still work.
	SpanLog bool
}

// Admission is one guaranteed-task arrival presented to the cluster
// front end.
type Admission struct {
	// At is the arrival's virtual time; it is handled at the first
	// epoch barrier at or after At.
	At ticks.Ticks
	// Name is the task name offered to node RMs (policy boxes rank
	// by name, so recurring names inherit node-local policies).
	Name string
	// List is the resource list; the node RM that accepts the task
	// keeps its own copy.
	List task.ResourceList
	// Body builds a fresh task body per placement scan — bodies carry
	// progress state, and a re-placed task restarts. A scan offers the
	// one body to node after node: a denied offer never dispatches it.
	Body BodySource
}

// BodySource builds an admission's task bodies, one per placement scan.
type BodySource interface{ NewBody() task.Body }

// BodyFunc is a BodySource that calls a closure.
type BodyFunc func() task.Body

// NewBody calls f. A nil f builds no body, so the scan rejects it.
func (f BodyFunc) NewBody() task.Body {
	if f == nil {
		return nil
	}
	return f()
}

// New assembles a fleet in an arena of its own: the cluster may be
// kept for as long as the caller likes.
func New(cfg Config) (*Cluster, error) { return NewIn(new(Arena), cfg) }

// NewIn validates the config and assembles the fleet at virtual time
// zero, node by node in ID order, in a's storage. The cluster a held
// before is dead from here on.
func NewIn(a *Arena, cfg Config) (*Cluster, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("fleet: node count %d must be at least 1", cfg.Nodes)
	}
	if cfg.GovernorInterval < 0 {
		return nil, fmt.Errorf("fleet: governor interval must not be negative")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Workers > cfg.Nodes {
		cfg.Workers = cfg.Nodes
	}

	a.reset(cfg.Nodes)
	c := &Cluster{
		cfg:     cfg,
		queue:   &a.queue,
		scan:    &a.scan,
		recs:    &a.recs,
		backoff: sim.NewRNG(sim.SplitSeed(cfg.Seed, StreamBackoff)),
	}
	c.recordIn(&a.rec)
	reg := c.tel.Reg()
	c.cPlaced = reg.Counter("fleet.placed")
	c.cSpill = reg.Counter("fleet.spillovers")
	c.cRetry = reg.Counter("fleet.retries")
	c.cReject = reg.Counter("fleet.rejected")
	c.cMigrate = reg.Counter("fleet.migrations")
	c.cCrash = reg.Counter("fleet.node_crashes")
	c.cRestart = reg.Counter("fleet.node_restarts")
	c.cLost = reg.Counter("fleet.lost_to_crash")
	c.cRecovered = reg.Counter("fleet.recovered")
	c.cDrop = reg.Counter("fleet.lost_recorded")

	seeds := sim.NewRNG(sim.SplitSeed(cfg.Seed, StreamNodeSeeds))
	costs := sim.ZeroSwitchCosts()
	if cfg.SwitchCosts != nil {
		costs = *cfg.SwitchCosts
	}
	c.nodes = a.nodes[:cfg.Nodes]
	for i, n := range c.nodes {
		n.id, n.seed, n.cfg, n.costs = i, seeds.Uint64(), &c.cfg, costs
		if cfg.SpanLog {
			n.tel.Spans = telemetry.NewSpans()
			n.flight.Front(n.tel.Spans)
		} else {
			n.tel.Spans = n.flight.Ring()
		}
		n.build(0)
	}
	return c, nil
}

// Node returns node i's current Distributor, or nil while the node
// is down. Coordinator-phase access only; exposed for tests and
// resident-workload wiring.
func (c *Cluster) Node(i int) *core.Distributor { return c.nodes[i].d }

// Submit enqueues one admission. Submissions must precede Run; their
// order is part of the cluster's deterministic identity.
func (c *Cluster) Submit(a Admission) error {
	if c.ran {
		return fmt.Errorf("fleet: Submit after Run")
	}
	if a.At < 0 {
		return fmt.Errorf("fleet: admission %q arrival time must not be negative", a.Name)
	}
	if a.Name == "" {
		return fmt.Errorf("fleet: admission needs a name")
	}
	if a.Body == nil {
		return fmt.Errorf("fleet: admission %q needs a body factory", a.Name)
	}
	if err := a.List.Validate(); err != nil {
		return fmt.Errorf("fleet: admission %q: %w", a.Name, err)
	}
	c.push(a.At, actArrive, c.submitted(a))
	return nil
}

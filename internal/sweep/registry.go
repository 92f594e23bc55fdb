package sweep

import (
	"slices"

	"repro/internal/sim"
)

// The values a sweep cell's "policy" coordinate can take. They stay
// plain string constants — matrices are []string — and each belongs to
// exactly one axis below, except PolicyInvent, which is the Resource
// Distributor reference column of three of them.
const (
	// PolicyInvent installs no policies: conflicts get the Box's
	// invented 1/N split (§6.3). On the comparator and allocator axes
	// it is the RD itself (its scheduler; its metered FCFS streamer
	// reservations).
	PolicyInvent = "invent"
	// PolicyAudioFirst protects audio (and the modem) when shedding,
	// per §4.3 "users are more sensitive to audio than video".
	PolicyAudioFirst = "audio-first"
	// PolicyVideoFirst spends the share budget on video and leaves
	// audio its 1% mute caretaker level.
	PolicyVideoFirst = "video-first"

	// The §3.4 proportional-share schedulers that serve the scenario's
	// load instead of the RD.
	PolicyBaselineFairShare = "baseline-fairshare"
	PolicyBaselineLottery   = "baseline-lottery"
	PolicyBaselineStride    = "baseline-stride"
	PolicyBaselineCFS       = "baseline-cfs"

	// Data Streamer bandwidth allocators.
	PolicyStreamerMaxMin  = "streamer-maxmin"
	PolicyStreamerMaxThru = "streamer-maxthru"

	// Fleet node placement orders.
	PolicyFleetFirstFit    = "first-fit"
	PolicyFleetLeastLoaded = "least-loaded"
	PolicyFleetRRHash      = "rr-hash"
)

// Axis is the one thing a scenario varies across its cells. The paper
// varies four unrelated things; a scenario reads exactly one of them,
// so a cell naming a value from another axis cannot be expressed.
type Axis int

const (
	AxisPolicyBox  Axis = iota // the Policy Box's stored rankings vs its invented split (§4.3, §6.3)
	AxisComparator             // the RD vs the §3.4/§3.5 proportional-share schedulers
	AxisAllocator              // the Data Streamer's bandwidth allocator
	AxisPlacement              // which node a fleet admission tries first
)

var axes = [...]struct {
	name   string
	values []string
}{
	AxisPolicyBox: {"policy-box", []string{PolicyInvent, PolicyAudioFirst, PolicyVideoFirst}},
	AxisComparator: {"comparator", []string{PolicyInvent,
		PolicyBaselineFairShare, PolicyBaselineLottery, PolicyBaselineStride, PolicyBaselineCFS}},
	AxisAllocator: {"allocator", []string{PolicyInvent, PolicyStreamerMaxMin, PolicyStreamerMaxThru}},
	AxisPlacement: {"placement", []string{PolicyFleetFirstFit, PolicyFleetLeastLoaded, PolicyFleetRRHash}},
}

// Axes lists the axes in matrix-expansion order.
func Axes() []Axis { return []Axis{AxisPolicyBox, AxisComparator, AxisAllocator, AxisPlacement} }

func (a Axis) String() string { return axes[a].name }

// Values lists the axis's policy values in matrix-expansion order.
func (a Axis) Values() []string { return axes[a].values }

// AllPolicies lists every policy value once, axis by axis — the order
// a matrix that names no policies expands a cell's values in.
func AllPolicies() []string {
	var out []string
	for _, a := range axes {
		for _, p := range a.values {
			if !slices.Contains(out, p) {
				out = append(out, p)
			}
		}
	}
	return out
}

// Matrix names that expand to every scenario of a family.
const (
	FaultFamily    = "fault"
	BaselineFamily = "baseline"
	FleetFamily    = "fleet"
)

// Scenario is one runnable experiment shape.
type Scenario struct {
	Name string
	Desc string
	// Family is the matrix name that expands to this scenario and its
	// siblings; empty for the paper's own scenarios.
	Family string
	// Axis is the one axis the scenario varies, Policies the values of
	// it the scenario stages, in axis order.
	Axis     Axis
	Policies []string
	run      func(e *env) error
}

// scenarios is the registry — the one place that decides what a sweep
// cell is — in matrix-expansion order.
var scenarios = []Scenario{
	{Name: "settop", Desc: "Table 4 set-top box: modem + 3D renderer + stored MPEG",
		Axis: AxisPolicyBox, Policies: []string{PolicyInvent, PolicyVideoFirst}, run: runSettop},
	{Name: "media", Desc: "set-top mix plus AC3 audio, exercising audio/video policy trades",
		Axis: AxisPolicyBox, Policies: AxisPolicyBox.Values(), run: runMedia},
	{Name: "overload", Desc: "Figure 5 staircase: Sporadic Server + five BusyLoop threads arriving 20ms apart",
		Axis: AxisPolicyBox, Policies: []string{PolicyInvent}, run: runOverload},
	{Name: "quiescent", Desc: "§5.3 telephone answering: DVD + AC3, quiescent modem woken mid-run",
		Axis: AxisPolicyBox, Policies: AxisPolicyBox.Values(), run: runQuiescent},
	{Name: "studio", Desc: "live transport stream + AC3 + overlay + interrupts + Sporadic Server",
		Axis: AxisPolicyBox, Policies: AxisPolicyBox.Values(), run: runStudio},
	{Name: "stress", Desc: "seed-jittered generator: staggered admits, exits, grant assignment, removal",
		Axis: AxisPolicyBox, Policies: []string{PolicyInvent}, run: runStress},

	{Name: "baseline-media", Family: BaselineFamily,
		Desc: "§3.5 MPEG + three 30% workers (120% load) under RD vs proportional-share comparators",
		Axis: AxisComparator, Policies: AxisComparator.Values(), run: runBaselineMedia},
	{Name: "baseline-overload", Family: BaselineFamily,
		Desc: "seed-jittered overloaded periodic mix: RD sheds by menu, comparators thrash",
		Axis: AxisComparator, Policies: AxisComparator.Values(), run: runBaselineOverload},
	{Name: "baseline-streamer", Family: BaselineFamily,
		Desc: "contended Data Streamer: three DMA producers over capacity, CPU grants × allocator policy",
		Axis: AxisAllocator, Policies: AxisAllocator.Values(), run: runBaselineStreamer},

	{Name: "fault-overrun", Family: FaultFamily,
		Desc: "media mix plus a task overrunning its declared CPU every period",
		Axis: AxisPolicyBox, Policies: []string{PolicyInvent}, run: runFaultOverrun},
	{Name: "fault-crash", Family: FaultFamily,
		Desc: "media mix plus a task crash/restart cycle (terminate + re-admit)",
		Axis: AxisPolicyBox, Policies: []string{PolicyInvent}, run: runFaultCrash},
	{Name: "fault-storm", Family: FaultFamily,
		Desc: "interrupt storms over the §5.2 reserve, shed by the overload governor",
		Axis: AxisPolicyBox, Policies: []string{PolicyInvent}, run: runFaultStorm},
	{Name: "fault-jitter", Family: FaultFamily,
		Desc: "late, coalesced timer delivery under the media mix",
		Axis: AxisPolicyBox, Policies: []string{PolicyInvent}, run: runFaultJitter},
	{Name: "fault-policy", Family: FaultFamily,
		Desc: "corrupted policy-box input fed to Load mid-run",
		Axis: AxisPolicyBox, Policies: []string{PolicyInvent}, run: runFaultPolicy},

	{Name: "fleet-spill", Family: FleetFamily,
		Desc: "16 tight nodes under a heavy arrival stream: spillover, backoff, rejection",
		Axis: AxisPlacement, Policies: AxisPlacement.Values(), run: runFleetSpill},
	{Name: "fleet-surge", Family: FleetFamily,
		Desc: "48 nodes, correlated interrupt storms over a third of the fleet: shedding and migration",
		Axis: AxisPlacement, Policies: AxisPlacement.Values(), run: runFleetSurge},
	{Name: "fleet-crash", Family: FleetFamily,
		Desc: "120 nodes, roaming crash/restart cycles plus a correlated storm front: recovery",
		Axis: AxisPlacement, Policies: AxisPlacement.Values(), run: runFleetCrash},
}

// Scenarios lists the registered scenarios.
func Scenarios() []Scenario { return append([]Scenario(nil), scenarios...) }

// ScenarioNames lists registered scenario names in registry order.
func ScenarioNames() []string {
	out := make([]string, len(scenarios))
	for i, sc := range scenarios {
		out[i] = sc.Name
	}
	return out
}

func scenarioByName(name string) (*Scenario, bool) {
	for i := range scenarios {
		if scenarios[i].Name == name {
			return &scenarios[i], true
		}
	}
	return nil, false
}

// expandFamilies replaces family names in a scenario list with their
// members, preserving order. Unknown names pass through untouched so
// Specs still reports them precisely.
func expandFamilies(names []string) []string {
	out := make([]string, 0, len(names))
	for _, n := range names {
		members := 0
		for _, sc := range scenarios {
			if sc.Family == n {
				out = append(out, sc.Name)
				members++
			}
		}
		if members == 0 {
			out = append(out, n)
		}
	}
	return out
}

// --- switch-cost models ---

type costModel struct {
	Name  string
	costs func() sim.SwitchCosts
}

// costModels is the registry, in matrix-expansion order.
var costModels = []costModel{
	{"zero", sim.ZeroSwitchCosts}, // free deterministic switches (pure EDF arithmetic)
	{"paper-det", func() sim.SwitchCosts { // §6.1 mean costs, deterministic
		c := sim.PaperSwitchCosts()
		c.Deterministic = true
		return c
	}},
	{"paper", sim.PaperSwitchCosts}, // §6.1 Weibull-calibrated stochastic costs
	{"cache", func() sim.SwitchCosts { // paper costs plus a 40µs §5.6 cache-refill penalty
		c := sim.PaperSwitchCosts()
		c.CacheRefillUS = 40
		return c
	}},
}

// CostModelNames lists every registered cost model.
func CostModelNames() []string {
	out := make([]string, len(costModels))
	for i, cm := range costModels {
		out[i] = cm.Name
	}
	return out
}

// DefaultCostModels is the subset a matrix uses when none are named:
// the clean-arithmetic baseline and the paper's stochastic model.
func DefaultCostModels() []string { return []string{"zero", "paper"} }

func costModelByName(name string) (sim.SwitchCosts, bool) {
	for _, cm := range costModels {
		if cm.Name == name {
			return cm.costs(), true
		}
	}
	return sim.SwitchCosts{}, false
}

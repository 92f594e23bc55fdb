package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/metrics"
	"repro/internal/telemetry"
	"repro/internal/ticks"
)

// admission-latency histogram geometry, shared by every cell:
// 0-120 ms in 5 ms bins. A sample outside the grid is counted in no
// bin (the histogram's n, AdmissionMS.N, still counts it).
const (
	admHistLo    = 0
	admHistWidth = 5
	admHistBins  = 24
)

// Key identifies one aggregation cell of the matrix.
type Key struct {
	Scenario  string
	CostModel string
	Policy    string
}

// quantity is one per-run measurement a cell summarises across its
// seeds. The quantities table is the only place one is spelled: its
// JSON key, its Table column, and how to read it off a run. Folding
// runs, merging partial cells, Table and the JSON writer all walk the
// table, so a new measurement is a RunMetrics field and a row here.
type quantity struct {
	key   string  // JSON key of the summary object
	col   string  // Table column header; "" keeps it out of the table
	scale float64 // Table prints mean × scale ...
	prec  int     // ... to this many decimals
	of    func(*RunMetrics) float64
}

var quantities = [...]quantity{
	{"misses_per_run", "misses", 1, 2, func(r *RunMetrics) float64 { return float64(r.Misses) }},
	{"completed_periods", "", 0, 0, func(r *RunMetrics) float64 { return float64(r.CompletedPeriods) }},
	{"unplanned_loss_rate", "loss%", 100, 3, (*RunMetrics).LossRate},
	{"utilization", "util%", 100, 2, func(r *RunMetrics) float64 { return r.Utilization }},
	{"switch_overhead", "sw%", 100, 3, func(r *RunMetrics) float64 { return r.SwitchOverhead }},
	{"interrupt_load", "irq%", 100, 3, func(r *RunMetrics) float64 { return r.InterruptLoad }},
	{"invariant_violations", "viol", 1, 2, func(r *RunMetrics) float64 { return float64(r.Violations) }},
	{"degradations", "degr", 1, 2, func(r *RunMetrics) float64 { return float64(r.Degradations) }},
}

// Cell aggregates every run of one (scenario, cost model, policy)
// combination across seeds.
type Cell struct {
	Key

	Runs           int
	Errors         int
	FirstError     string
	Denied         int64
	FaultsInjected int64 // fault events fired by armed injectors

	// PerRun holds one across-seeds summary per row of the quantities
	// table, in table order.
	PerRun [len(quantities)]metrics.Summary

	AdmissionMS   metrics.Summary // per admitted task, pooled over runs
	AdmissionHist [admHistBins]int64
	RecoveryMS    metrics.Summary // crash→re-placement latency, pooled over runs

	// Telemetry is the cell's merged instrument snapshot: per-run
	// registries folded in spec order (counters add, histogram buckets
	// add, gauge high-water marks take the max), so the result is
	// worker-count invariant like every other aggregate. Everything a
	// subsystem counts — fleet.spillovers, streamer.bytes, ... — is
	// read from here rather than copied into a field of its own.
	Telemetry telemetry.Snapshot

	// firstSeed/firstHorizon identify the cell's earliest contributing
	// run (in spec order) for the embedded manifest.
	firstSeed    uint64
	firstHorizon ticks.Ticks
	seeded       bool
}

// add folds one run into the cell. Failed runs count toward Runs and
// Errors but contribute no measurements.
func (c *Cell) add(spec RunSpec, r *RunMetrics) {
	c.Runs++
	if r.Err != "" {
		c.Errors++
		if c.FirstError == "" {
			c.FirstError = r.Err
		}
		return
	}
	if !c.seeded {
		c.firstSeed, c.firstHorizon, c.seeded = spec.Seed, spec.Horizon, true
	}
	c.Telemetry.Merge(r.Telemetry)
	c.Denied += r.Denied
	c.FaultsInjected += r.FaultsInjected
	for i := range quantities {
		c.PerRun[i].Add(quantities[i].of(r))
	}
	c.RecoveryMS.Merge(&r.RecoveryMS)
	for _, v := range r.AdmissionMS {
		c.AdmissionMS.Add(v)
		if i := int(math.Floor((v - admHistLo) / admHistWidth)); i >= 0 && i < admHistBins {
			c.AdmissionHist[i]++
		}
	}
}

// merge folds another cell (same key) into c, preserving o's sample
// order after c's own.
func (c *Cell) merge(o *Cell) {
	c.Runs += o.Runs
	c.Errors += o.Errors
	if c.FirstError == "" {
		c.FirstError = o.FirstError
	}
	if !c.seeded && o.seeded {
		c.firstSeed, c.firstHorizon, c.seeded = o.firstSeed, o.firstHorizon, true
	}
	c.Telemetry.Merge(o.Telemetry)
	c.Denied += o.Denied
	c.FaultsInjected += o.FaultsInjected
	for i := range c.PerRun {
		c.PerRun[i].Merge(&o.PerRun[i])
	}
	c.RecoveryMS.Merge(&o.RecoveryMS)
	c.AdmissionMS.Merge(&o.AdmissionMS)
	for i, n := range o.AdmissionHist {
		c.AdmissionHist[i] += n
	}
}

// manifest builds the cell's embedded rdtel/v2 manifest. Seed and
// horizon come from the cell's first contributing run in spec order;
// the config digest hashes the cell key; the totals are read straight
// out of the merged counter snapshot. A cell with no successful runs
// has no manifest.
func (c *Cell) manifest() *telemetry.Manifest {
	if !c.seeded {
		return nil
	}
	m := telemetry.NewManifest(c.firstSeed)
	m.ConfigDigest = telemetry.ConfigDigest(c.Key)
	m.HorizonTicks = c.firstHorizon
	m.Metrics = c.Telemetry
	m.DeriveTotals()
	return m
}

// Result is a sweep's aggregated output: cells in first-appearance
// (i.e. matrix-expansion) order.
type Result struct {
	TotalRuns int
	cells     []*Cell
	index     map[Key]*Cell
}

func newResult() *Result { return &Result{index: make(map[Key]*Cell)} }

func (r *Result) cell(k Key) *Cell {
	if c, ok := r.index[k]; ok {
		return c
	}
	c := &Cell{Key: k}
	r.cells = append(r.cells, c)
	r.index[k] = c
	return c
}

func (r *Result) add(spec RunSpec, m *RunMetrics) {
	r.cell(Key{spec.Scenario, spec.CostModel, spec.Policy}).add(spec, m)
}

// Merge folds o into r cell by cell, in o's cell order. Merging
// partial results in a fixed order is what makes the aggregate
// independent of how runs were distributed over workers.
func (r *Result) Merge(o *Result) {
	r.TotalRuns += o.TotalRuns
	for _, oc := range o.cells {
		r.cell(oc.Key).merge(oc)
	}
}

// Cells returns the aggregation cells in matrix-expansion order.
func (r *Result) Cells() []*Cell { return append([]*Cell(nil), r.cells...) }

// Errors reports the total failed runs.
func (r *Result) Errors() int {
	n := 0
	for _, c := range r.cells {
		n += c.Errors
	}
	return n
}

// nameWidths reports the widths of Table's scenario, cost-model and
// policy columns: the longest registered name of each, so no row
// shears whatever the matrix holds.
func nameWidths() (scenario, cost, policy int) {
	longest := func(names []string) (n int) {
		for _, s := range names {
			n = max(n, len(s))
		}
		return n
	}
	return longest(ScenarioNames()), longest(CostModelNames()), longest(AllPolicies())
}

// Table renders the human-readable summary: one row per cell.
func (r *Result) Table() string {
	var b strings.Builder
	ws, wc, wp := nameWidths()
	key := func(scenario, costs, policy string) {
		fmt.Fprintf(&b, "%-*s %-*s %-*s", ws, scenario, wc, costs, wp, policy)
	}
	key("scenario", "costs", "policy")
	fmt.Fprintf(&b, " %5s %4s", "runs", "err")
	for _, q := range quantities {
		if q.col != "" {
			fmt.Fprintf(&b, " %8s", q.col)
		}
	}
	fmt.Fprintf(&b, " %9s %9s\n", "adm p50", "adm p99")
	for _, c := range r.cells {
		key(c.Scenario, c.CostModel, c.Policy)
		fmt.Fprintf(&b, " %5d %4d", c.Runs, c.Errors)
		for i, q := range quantities {
			if q.col != "" {
				fmt.Fprintf(&b, " %8.*f", q.prec, c.PerRun[i].Mean()*q.scale)
			}
		}
		fmt.Fprintf(&b, " %7.1fms %7.1fms\n", c.AdmissionMS.Percentile(50), c.AdmissionMS.Percentile(99))
	}
	// Fleet supplement: one row per cell whose merged telemetry
	// recorded fleet-layer activity (spillover, retries, migrations,
	// node restarts) or that pooled crash recoveries.
	fleetHeader := false
	for _, c := range r.cells {
		var n [4]int64
		active := c.RecoveryMS.N() > 0
		for i, name := range [...]string{"fleet.spillovers", "fleet.retries", "fleet.migrations", "fleet.node_restarts"} {
			n[i] = c.Telemetry.CounterValue(name)
			active = active || n[i] > 0
		}
		if !active {
			continue
		}
		if !fleetHeader {
			fleetHeader = true
			b.WriteByte('\n')
			key("fleet", "costs", "policy")
			fmt.Fprintf(&b, " %8s %8s %8s %8s %9s %9s\n",
				"spill", "retries", "migrate", "restart", "rec p50", "rec p99")
		}
		key(c.Scenario, c.CostModel, c.Policy)
		fmt.Fprintf(&b, " %8d %8d %8d %8d %7.1fms %7.1fms\n", n[0], n[1], n[2], n[3],
			c.RecoveryMS.Percentile(50), c.RecoveryMS.Percentile(99))
	}
	for _, c := range r.cells {
		if c.FirstError != "" {
			fmt.Fprintf(&b, "! %s/%s/%s: %d failed run(s); first: %s\n",
				c.Scenario, c.CostModel, c.Policy, c.Errors, c.FirstError)
		}
	}
	return b.String()
}

// --- machine-readable output ---

// SchemaVersion tags the JSON; bump on incompatible changes. v7 drops
// the cells that re-ran another cell under a second name and the six
// scalars that copied counters of the cell's own manifest.
const SchemaVersion = "rdsweep/v7"

type summaryJSON struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	Stddev float64 `json:"stddev"`
	Min    float64 `json:"min"`
	P50    float64 `json:"p50"`
	P90    float64 `json:"p90"`
	P99    float64 `json:"p99"`
	Max    float64 `json:"max"`
}

func summarize(s *metrics.Summary) summaryJSON {
	return summaryJSON{
		N:      s.N(),
		Mean:   s.Mean(),
		Stddev: s.Stddev(),
		Min:    s.Min(),
		P50:    s.Percentile(50),
		P90:    s.Percentile(90),
		P99:    s.Percentile(99),
		Max:    s.Max(),
	}
}

type histJSON struct {
	Lo     float64 `json:"lo"`
	Width  float64 `json:"width"`
	N      int64   `json:"n"`
	Counts []int64 `json:"counts"`
}

// MarshalJSON writes the cell as one object, keys in a fixed order:
// the key and counts, one summary per quantities row, the pooled
// latencies, and the cell's rdtel/v2 manifest (the merged instrument
// snapshot plus headline totals derived from it).
func (c *Cell) MarshalJSON() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	var err error
	put := func(key string, v any) {
		if err != nil {
			return
		}
		sep := ","
		if buf.Len() == 0 {
			sep = "{"
		}
		fmt.Fprintf(&buf, "%s%q:", sep, key)
		err = enc.Encode(v)
	}
	put("scenario", c.Scenario)
	put("cost_model", c.CostModel)
	put("policy", c.Policy)
	put("runs", c.Runs)
	put("errors", c.Errors)
	if c.FirstError != "" {
		put("first_error", c.FirstError)
	}
	put("denied_admissions", c.Denied)
	put("faults_injected", c.FaultsInjected)
	for i, q := range quantities {
		put(q.key, summarize(&c.PerRun[i]))
	}
	put("admission_latency_ms", summarize(&c.AdmissionMS))
	put("admission_latency_hist", histJSON{
		Lo:     admHistLo,
		Width:  admHistWidth,
		N:      int64(c.AdmissionMS.N()),
		Counts: c.AdmissionHist[:],
	})
	put("fleet_recovery_latency_ms", summarize(&c.RecoveryMS))
	if m := c.manifest(); m != nil {
		put("manifest", m)
	}
	buf.WriteByte('}')
	return buf.Bytes(), err
}

// WriteJSON serializes the result. The output carries no timestamps
// or host details and the cells are emitted in deterministic order,
// so two equivalent sweeps produce byte-identical files — the
// worker-invariance contract is checked with plain cmp/bytes.Equal.
func (r *Result) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Schema    string  `json:"schema"`
		TotalRuns int     `json:"total_runs"`
		Cells     []*Cell `json:"cells"`
	}{SchemaVersion, r.TotalRuns, r.cells})
}

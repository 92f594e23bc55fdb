package telemetry

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/ticks"
)

// SchemaVersion identifies the manifest layout. Bump it when a field
// changes meaning; consumers (rdtrace export, rdperf) refuse schemas
// they do not know. v2 adds cluster fields: span node tags and causal
// links, per-node origin, NodeCount, and black-box FlightDumps.
const SchemaVersion = "rdtel/v2"

// TaskInfo names one scheduled task in a manifest, so exporters can
// label tracks without re-deriving names from span text. Node is the
// task's placement tag in a cluster manifest (the last node it ran
// on); zero in single-node manifests.
type TaskInfo struct {
	ID   int64  `json:"id"`
	Name string `json:"name"`
	Node int32  `json:"node,omitempty"`
}

// Totals are the headline health numbers of a run, duplicated out of
// the counter snapshot so a consumer can triage a manifest without
// knowing instrument names.
type Totals struct {
	DeadlineMisses int64 `json:"deadline_misses"`
	Violations     int64 `json:"violations"`
	Degradations   int64 `json:"degradations"`
	FaultsInjected int64 `json:"faults_injected"`
	FlightDumps    int64 `json:"flight_dumps,omitempty"`
}

// Manifest is the self-describing record of one simulation run: what
// was run (seed, config digest, build), what it counted (the registry
// snapshot), what it decided (spans), and what happened (event log,
// totals). rdsim and rdbench write one per invocation; rdsweep embeds
// one per cell. Same-seed runs must produce byte-identical manifests
// (Build is the one caller-controlled field, and CLI smoke tests pin
// it).
//
// A cluster run produces three manifest shapes: per-node manifests
// (Node set to the node's tag), a coordinator manifest (Node ==
// CoordTag), and the stitched cluster manifest StitchCluster merges
// them into (NodeCount set, every span node-tagged, links rebased to
// global span IDs, FlightDumps attached).
type Manifest struct {
	Schema       string       `json:"schema"`
	Build        string       `json:"build,omitempty"`
	Seed         uint64       `json:"seed"`
	ConfigDigest string       `json:"config_digest,omitempty"`
	HorizonTicks ticks.Ticks  `json:"horizon_ticks,omitempty"`
	Node         int32        `json:"node,omitempty"`       // per-node manifests: this log's tag
	NodeCount    int          `json:"node_count,omitempty"` // stitched cluster manifests: fleet size
	Tasks        []TaskInfo   `json:"tasks,omitempty"`
	Metrics      Snapshot     `json:"metrics"`
	Spans        []Span       `json:"spans,omitempty"`
	Events       []LogEvent   `json:"events,omitempty"`
	FlightDumps  []FlightDump `json:"flight_dumps,omitempty"`
	Totals       Totals       `json:"totals"`
}

// NewManifest returns a manifest shell with the schema stamped.
func NewManifest(seed uint64) *Manifest {
	return &Manifest{Schema: SchemaVersion, Seed: seed}
}

// Fill captures a Set into the manifest: the registry snapshot and the
// span log. A nil Set leaves the manifest's metrics empty.
func (m *Manifest) Fill(t *Set) {
	m.Metrics = t.Reg().Snapshot()
	m.Spans = t.SpanLog().Export()
}

// DeriveTotals fills the headline totals from the metrics snapshot's
// well-known counters and the attached flight dumps. Call after Fill
// (or after assigning Metrics).
func (m *Manifest) DeriveTotals() {
	m.Totals = Totals{
		DeadlineMisses: m.Metrics.CounterValue("sched.deadline.misses"),
		Violations:     m.Metrics.CounterValue("invariant.violations"),
		Degradations:   m.Metrics.CounterValue("rm.degrade.sheds"),
		FaultsInjected: m.Metrics.CounterValue("fault.fired"),
		FlightDumps:    int64(len(m.FlightDumps)),
	}
}

// WriteJSON writes the manifest as deterministic, indented JSON with a
// trailing newline. Field order is fixed by the struct; slices are in
// record or name-sorted order; nothing consults maps at encode time.
// The manifest is walked once and streamed to w through the emitter's
// buffer (emit.go) — byte-for-byte what json.Encoder with
// SetIndent("", "  ") writes, without the reflection.
func (m *Manifest) WriteJSON(w io.Writer) error {
	e := newEmitter(w, manifestUnit)
	e.manifest(m)
	return e.finish()
}

// ReadManifest decodes and structurally validates a manifest. Documents
// shaped the way WriteJSON shapes them take the single-pass reader in
// read.go; anything else is decoded by encoding/json from the same
// bytes, so what is accepted, and as what value, does not depend on
// which path ran.
func ReadManifest(r io.Reader) (*Manifest, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("telemetry: manifest: %v", err)
	}
	m := new(Manifest)
	if !readCanonical(data, m) {
		m = new(Manifest)
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(m); err != nil {
			return nil, fmt.Errorf("telemetry: manifest: %v", err)
		}
	}
	if err := ValidateManifest(m); err != nil {
		return nil, err
	}
	return m, nil
}

// readAll is io.ReadAll with the buffer sized up front when the reader
// can say how much is left (bytes.Reader, bytes.Buffer, strings.Reader).
func readAll(r io.Reader) ([]byte, error) {
	var b bytes.Buffer
	if sized, ok := r.(interface{ Len() int }); ok {
		b.Grow(sized.Len() + bytes.MinRead)
	}
	_, err := b.ReadFrom(r)
	return b.Bytes(), err
}

// ValidateManifest checks a manifest's structural invariants: a known
// schema, strictly increasing span IDs, parent references that stay
// inside the manifest and precede their span, same-log links that
// resolve, node tags within NodeCount, and flight dumps whose span
// rings are contiguous and whose drop accounting balances. It is the
// schema gate behind ReadManifest and what black-box dumps are
// validated against.
func ValidateManifest(m *Manifest) error {
	if m.Schema != SchemaVersion {
		return fmt.Errorf("telemetry: manifest schema %q, want %q", m.Schema, SchemaVersion)
	}
	if m.NodeCount < 0 {
		return fmt.Errorf("telemetry: manifest: negative node_count %d", m.NodeCount)
	}
	if err := validateSpans(m.Spans, m.NodeCount, "spans"); err != nil {
		return err
	}
	for i := range m.FlightDumps {
		d := &m.FlightDumps[i]
		if err := validateDump(d, m.NodeCount, i); err != nil {
			return err
		}
	}
	return nil
}

// validateSpans checks one span slice: IDs strictly increasing,
// parents in-window and earlier, same-log links in-window, and node
// tags legal for the given cluster size (nodes == 0 skips tag range
// checks; single-node and per-node manifests carry whatever tag their
// producer stamped).
func validateSpans(spans []Span, nodes int, what string) error {
	if len(spans) == 0 {
		return nil
	}
	lo := spans[0].ID
	if lo <= 0 {
		return fmt.Errorf("telemetry: manifest: %s[0] has non-positive id %d", what, lo)
	}
	prev := SpanID(0)
	hi := spans[len(spans)-1].ID
	for i := range spans {
		sp := &spans[i]
		if sp.ID <= prev {
			return fmt.Errorf("telemetry: manifest: %s[%d] id %d not increasing (prev %d)", what, i, sp.ID, prev)
		}
		prev = sp.ID
		if sp.Parent != 0 && (sp.Parent < lo || sp.Parent >= sp.ID) {
			return fmt.Errorf("telemetry: manifest: %s[%d] (id %d) parent %d out of window [%d,%d)", what, i, sp.ID, sp.Parent, lo, sp.ID)
		}
		if sp.Link != 0 {
			if sp.Link < 0 {
				return fmt.Errorf("telemetry: manifest: %s[%d] (id %d) negative link %d", what, i, sp.ID, sp.Link)
			}
			if sp.LinkNode == 0 && (sp.Link < lo || sp.Link > hi || sp.Link == sp.ID) {
				return fmt.Errorf("telemetry: manifest: %s[%d] (id %d) link %d does not resolve in-log [%d,%d]", what, i, sp.ID, sp.Link, lo, hi)
			}
		}
		if nodes > 0 && sp.Node != CoordTag {
			if idx, ok := TagIndex(sp.Node); !ok || idx >= nodes {
				return fmt.Errorf("telemetry: manifest: %s[%d] (id %d) node tag %d outside cluster of %d", what, i, sp.ID, sp.Node, nodes)
			}
		}
	}
	return nil
}

// validateDump checks one black-box artifact: a contiguous span ID
// range ending at SpansTotal and drop accounting that balances for
// both rings.
func validateDump(d *FlightDump, nodes int, i int) error {
	if d.Reason == "" {
		return fmt.Errorf("telemetry: manifest: flight_dumps[%d] has no reason", i)
	}
	if d.SpansTotal < 0 || d.EventsTotal < 0 {
		return fmt.Errorf("telemetry: manifest: flight_dumps[%d] negative totals", i)
	}
	if got := d.SpansTotal - int64(len(d.Spans)); d.SpansDropped != got || got < 0 {
		return fmt.Errorf("telemetry: manifest: flight_dumps[%d] spans_dropped %d, want %d (total %d, resident %d)",
			i, d.SpansDropped, got, d.SpansTotal, len(d.Spans))
	}
	if got := d.EventsTotal - int64(len(d.Events)); d.EventsDropped != got || got < 0 {
		return fmt.Errorf("telemetry: manifest: flight_dumps[%d] events_dropped %d, want %d (total %d, resident %d)",
			i, d.EventsDropped, got, d.EventsTotal, len(d.Events))
	}
	for j := range d.Spans {
		want := d.SpansTotal - int64(len(d.Spans)) + int64(j) + 1
		if int64(d.Spans[j].ID) != want {
			return fmt.Errorf("telemetry: manifest: flight_dumps[%d] span[%d] id %d, want contiguous %d",
				i, j, d.Spans[j].ID, want)
		}
	}
	if err := validateSpans(d.Spans, nodes, fmt.Sprintf("flight_dumps[%d].spans", i)); err != nil {
		return err
	}
	return nil
}

// ConfigDigest hashes an arbitrary JSON-encodable configuration value
// into a short stable hex digest, so manifests from the same config
// correlate without embedding the whole config. Struct-field order
// makes the encoding deterministic; map-valued configs would not be,
// so don't digest those.
func ConfigDigest(v any) string {
	blob, err := json.Marshal(v)
	if err != nil {
		return "unencodable"
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:8])
}

package fleet

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/task"
	"repro/internal/telemetry"
)

// Every note kind renders exactly what the fmt format it replaced
// printed. The formats are kept here verbatim as the reference.
func TestNoteTextMatchesFmt(t *testing.T) {
	nodes := []int32{0, 9, 10, 119, 255, 256, 1000}
	denials := []int32{1, 2, 17}
	refs := []struct {
		kind   noteKind
		format string
		ys     []int32 // the second number's values; nil for one-number kinds
	}{
		{notePlaced, "%s -> node %d", nil},
		{noteMigrate, "%s node %d -> %d", nodes},
		{noteLost, "%s lost with node %d", nil},
		{noteDone, "%s ran out on node %d", nil},
		{noteSpillEvent, "%s spilled to node %d after %d denial(s)", denials},
		{noteMigrateEvent, "%s moved node %d -> %d under shed pressure; %v transfer charged to target", nodes},
	}
	if len(refs) != len(noteText) {
		t.Fatalf("%d reference formats for %d note kinds", len(refs), len(noteText))
	}
	for _, name := range []string{"", "fl00000", strings.Repeat("n0123456", 5)} {
		a := &admRec{Admission: Admission{Name: name}}
		for _, ref := range refs {
			for _, x := range nodes {
				ys := ref.ys
				if ys == nil {
					ys = []int32{0}
				}
				for _, y := range ys {
					args := []any{name, x}
					if ref.ys != nil {
						args = append(args, y)
					}
					if ref.kind == noteMigrateEvent {
						args = append(args, migrationCost)
					}
					n := note{a: a, x: x, y: y, kind: ref.kind}
					if got, want := new(recorder).text(&n), fmt.Sprintf(ref.format, args...); got != want {
						t.Errorf("kind %d: rendered %q, fmt printed %q", ref.kind, got, want)
					}
				}
			}
		}
	}
}

// On a warm recorder a hot decision span allocates nothing, its text
// waiting for a reader, and a hot event line allocates only itself.
func TestDecisionRecordAllocFree(t *testing.T) {
	c, err := New(Config{Nodes: 2, Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	a := &admRec{Admission: Admission{Name: "fl00000"}}
	// Each measured call first empties the log and notes, keeping
	// their storage, so no run pays for growth.
	warm := func() {
		c.rec.spans.Reset()
		c.rec.notes = c.rec.notes[:0]
		c.flog.Reset()
	}
	spans := map[string]note{
		"place":    {a: a, x: 1, kind: notePlaced},
		"complete": {a: a, x: 1, kind: noteDone},
		"migrate":  {a: a, x: 0, y: 1, kind: noteMigrate},
	}
	for name, n := range spans {
		got := testing.AllocsPerRun(100, func() {
			warm()
			c.tipToAdmission(c.nodes[1], a, c.noteSpan(ms, name, n))
		})
		if got != 0 {
			t.Errorf("a %s span allocates %v objects, want 0", name, got)
		}
	}
	events := map[string]note{
		"fleet.spill":   {a: a, x: 1, y: 17, kind: noteSpillEvent},
		"fleet.migrate": {a: a, x: 0, y: 1, kind: noteMigrateEvent},
	}
	for kind, n := range events {
		if got := testing.AllocsPerRun(100, func() { warm(); c.flog.Record(ms, kind, c.rec.text(&n)) }); got != 1 {
			t.Errorf("a %s line allocates %v objects, want 1 (the line)", kind, got)
		}
	}
}

// A fleet-conservation dump — the coordinator's black box, forced here
// by planting a stranded recovery on a placed record — carries the
// rendered details of the decisions it holds.
func TestConservationDumpRendersDetails(t *testing.T) {
	c, err := New(Config{Nodes: 2, Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := c.Submit(Admission{
			Name: fmt.Sprintf("cv%d", i), List: task.SingleLevel(10*ms, 2*ms, "C"), Body: lifetimeBody(0),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if rep := c.Run(50 * ms); len(rep.FlightDumps) != 0 {
		t.Fatalf("a healthy run dumped %d black boxes", len(rep.FlightDumps))
	}
	a := &c.recs.a[1]
	if a.state != admPlaced {
		t.Fatalf("%s is in state %d, want placed", a.Name, a.state)
	}
	a.recovering = true
	rep := c.report(c.horizon)
	if len(rep.FlightDumps) != 1 {
		t.Fatalf("%d flight dumps, want the one conservation dump", len(rep.FlightDumps))
	}
	d := rep.FlightDumps[0]
	if d.Reason != "fleet-conservation" || d.Node != telemetry.CoordTag {
		t.Fatalf("dump is %q from node tag %d, want fleet-conservation from the coordinator", d.Reason, d.Node)
	}
	want := fmt.Sprintf("%s -> node %d", a.Name, a.node)
	found := false
	for _, sp := range d.Spans {
		if sp.Detail == "" {
			t.Errorf("span %d (%s) has no detail", sp.ID, sp.Name)
		}
		found = found || sp.Name == "place" && sp.Detail == want
	}
	if !found {
		t.Errorf("no place span reads %q among the dump's %d spans", want, len(d.Spans))
	}
}

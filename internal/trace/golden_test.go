// Golden-file coverage for the paper-figure renders and the JSON
// export. The three runs stage the paper's task sets through the same
// workload builders as rdbench's fig3/fig4/fig5 experiments; the
// rendered text and exported bytes are pinned under testdata/ so
// any change to the recorder, the renderers, or the export encoding
// shows up as a reviewable diff. Regenerate with
//
//	go test ./internal/trace -run TestGolden -update
package trace_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/ticks"
	"repro/internal/trace"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

const gms = ticks.PerMillisecond

// checkGolden compares got against testdata/<name>, rewriting the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from golden (%d got vs %d want bytes); rerun with -update and review the diff",
			name, len(got), len(want))
	}
}

func zeroCosts() *sim.SwitchCosts {
	c := sim.ZeroSwitchCosts()
	return &c
}

// fig3Run is the Table 4 set (modem + 3D + MPEG) under EDF, the run
// behind Figure 3.
func fig3Run(t *testing.T) *trace.Recorder {
	rec := trace.New()
	d := core.New(core.Config{SwitchCosts: zeroCosts(), Observer: rec})
	if _, _, _, err := workload.Settop(d); err != nil {
		t.Fatal(err)
	}
	d.Run(200 * gms)
	return rec
}

func TestGoldenFig3Gantt(t *testing.T) {
	rec := fig3Run(t)
	checkGolden(t, "fig3.gantt.golden", []byte(rec.Gantt(0, 100*gms, 110)+"\n"))
}

func TestGoldenFig3Export(t *testing.T) {
	rec := fig3Run(t)
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig3.export.golden", buf.Bytes())
}

// fig4Run is the §6.5 first run: four periodic threads plus the
// Sporadic Server, the run behind Figure 4.
func fig4Run(t *testing.T) *trace.Recorder {
	rec := trace.New()
	d := core.New(core.Config{SwitchCosts: zeroCosts(), Observer: rec})
	if err := workload.Figure4(d); err != nil {
		t.Fatal(err)
	}
	d.Run(ticks.PerSecond / 3)
	return rec
}

func TestGoldenFig4Gantt(t *testing.T) {
	rec := fig4Run(t)
	checkGolden(t, "fig4.gantt.golden",
		[]byte(rec.Gantt(ticks.PerSecond/3-100*gms, ticks.PerSecond/3, 100)+"\n"))
}

// fig5Run is the §6.5 overload staircase: busy-loop threads admitted
// every 20ms against a 4% interrupt reserve, the run behind Figure 5.
func fig5Run(t *testing.T) (*trace.Recorder, []task.ID) {
	rec := trace.New()
	d := core.New(core.Config{
		SwitchCosts:             zeroCosts(),
		InterruptReservePercent: 4,
		Observer:                rec,
	})
	ss, ids, err := workload.Figure5(d)
	if err != nil {
		t.Fatal(err)
	}
	d.Run(200 * gms)
	return rec, append([]task.ID{ss}, ids...)
}

func TestGoldenFig5Staircase(t *testing.T) {
	rec, ids := fig5Run(t)
	var buf bytes.Buffer
	buf.WriteString(rec.AllocationTable(ids, 150*gms))
	buf.WriteString("\n")
	buf.WriteString(rec.StaircaseChart(ids[1], 150*gms, 75))
	checkGolden(t, "fig5.staircase.golden", buf.Bytes())
}

func TestGoldenFig5Export(t *testing.T) {
	rec, _ := fig5Run(t)
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig5.export.golden", buf.Bytes())
}

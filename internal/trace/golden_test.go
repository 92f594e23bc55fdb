// Golden-file coverage for the paper-figure renders and the JSON
// export. The three runs mirror rdbench's fig3/fig4/fig5 experiments;
// the rendered text and exported bytes are pinned under testdata/ so
// any change to the recorder, the renderers, or the export encoding
// shows up as a reviewable diff. Regenerate with
//
//	go test ./internal/trace -run TestGolden -update
package trace_test

import (
	"bytes"
	"flag"
	"fmt"
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
func fig3Run() *trace.Recorder {
	rec := trace.New()
	d := core.New(core.Config{SwitchCosts: zeroCosts(), Observer: rec})
	_, _ = d.RequestAdmittance(workload.NewModem().Task(false))
	_, _ = d.RequestAdmittance(workload.NewGraphics3D(42).Task())
	_, _ = d.RequestAdmittance(workload.NewMPEG().Task())
	d.Run(200 * gms)
	return rec
}

func TestGoldenFig3Gantt(t *testing.T) {
	rec := fig3Run()
	checkGolden(t, "fig3.gantt.golden", []byte(rec.Gantt(0, 100*gms, 110)+"\n"))
}

func TestGoldenFig3Export(t *testing.T) {
	rec := fig3Run()
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig3.export.golden", buf.Bytes())
}

// fig4Run is the §6.5 first run: four periodic threads plus the
// Sporadic Server, the run behind Figure 4.
func fig4Run() *trace.Recorder {
	rec := trace.New()
	d := core.New(core.Config{SwitchCosts: zeroCosts(), Observer: rec})
	period := ticks.PerSecond / 30
	_, _ = d.AddSporadicServer("sporadic", task.SingleLevel(2_700_000, 27_000, "SS"), true)
	_, _ = d.RequestAdmittance(&task.Task{Name: "producer7", List: task.SingleLevel(period, 13*gms, "P7"), Body: task.Busy()})
	_, _ = d.RequestAdmittance(&task.Task{Name: "data8", List: task.SingleLevel(period, 2*gms, "D8"), Body: task.YieldAll()})
	_, _ = d.RequestAdmittance(&task.Task{Name: "producer9", List: task.SingleLevel(period, 3*gms, "P9"), Body: task.PeriodicWork(3 * gms)})
	_, _ = d.RequestAdmittance(&task.Task{Name: "data10", List: task.SingleLevel(period, 3*gms, "D10"), Body: task.YieldAll()})
	d.Run(ticks.PerSecond / 3)
	return rec
}

func TestGoldenFig4Gantt(t *testing.T) {
	rec := fig4Run()
	checkGolden(t, "fig4.gantt.golden",
		[]byte(rec.Gantt(ticks.PerSecond/3-100*gms, ticks.PerSecond/3, 100)+"\n"))
}

// fig5Run is the §6.5 overload staircase: busy-loop threads admitted
// every 20ms against a 4% interrupt reserve, the run behind Figure 5.
func fig5Run() (*trace.Recorder, []task.ID) {
	rec := trace.New()
	d := core.New(core.Config{
		SwitchCosts:             zeroCosts(),
		InterruptReservePercent: 4,
		Observer:                rec,
	})
	ss, _ := d.AddSporadicServer("sporadic", task.SingleLevel(2_700_000, 27_000, "SS"), true)
	ids := make([]task.ID, 5)
	for i := 0; i < 5; i++ {
		i := i
		d.At(ticks.Ticks(i)*20*gms, func() {
			ids[i], _ = d.RequestAdmittance(workload.BusyLoopTask(fmt.Sprintf("thread%d", i+2)))
		})
	}
	d.Run(200 * gms)
	return rec, append([]task.ID{ss}, ids...)
}

func TestGoldenFig5Staircase(t *testing.T) {
	rec, ids := fig5Run()
	var buf bytes.Buffer
	buf.WriteString(rec.AllocationTable(ids, 150*gms))
	buf.WriteString("\n")
	buf.WriteString(rec.StaircaseChart(ids[1], 150*gms, 75))
	checkGolden(t, "fig5.staircase.golden", buf.Bytes())
}

func TestGoldenFig5Export(t *testing.T) {
	rec, _ := fig5Run()
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig5.export.golden", buf.Bytes())
}

package trace

import (
	"strings"
	"testing"

	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/ticks"
)

const ms = ticks.PerMillisecond

func sampleRecorder() *Recorder {
	r := New()
	r.OnPeriodStart(1, 0, 10*ms, 0, 3*ms)
	r.OnDispatch(1, "alpha", 0, 3*ms, sched.DispatchGranted, 0)
	r.OnDispatch(2, "beta", 3*ms, 5*ms, sched.DispatchGranted, 1)
	r.OnDispatch(1, "alpha", 5*ms, 7*ms, sched.DispatchOvertime, 0)
	r.OnDispatch(task.NoID, "idle", 7*ms, 10*ms, sched.DispatchIdle, 0)
	r.OnSwitch(sim.Voluntary, 100)
	r.OnSwitch(sim.Involuntary, 200)
	return r
}

func TestTaskIDsAndNames(t *testing.T) {
	r := sampleRecorder()
	ids := r.TaskIDs()
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 2 {
		t.Errorf("TaskIDs = %v, want [1 2]", ids)
	}
	if r.NameOf(1) != "alpha" || r.NameOf(2) != "beta" {
		t.Error("names not recorded")
	}
	if r.NameOf(99) != "task99" {
		t.Errorf("unknown name = %q", r.NameOf(99))
	}
}

func TestTickSums(t *testing.T) {
	rep := Analyze(sampleRecorder().Export())
	if got := rep.Tasks[0].GrantedTicks; got != 3*ms {
		t.Errorf("granted(1) = %v, want 3ms", got)
	}
	if got := rep.Tasks[0].OvertimeTicks; got != 2*ms {
		t.Errorf("overtime(1) = %v, want 2ms", got)
	}
	if got := rep.Tasks[1].GrantedTicks; got != 2*ms {
		t.Errorf("granted(2) = %v, want 2ms", got)
	}
}

func TestSwitchSummary(t *testing.T) {
	r := sampleRecorder()
	vol, invol, volT, involT := r.SwitchSummary()
	if vol != 1 || invol != 1 || volT != 100 || involT != 200 {
		t.Errorf("summary = %d/%d/%v/%v", vol, invol, volT, involT)
	}
}

func TestGanttRendering(t *testing.T) {
	r := sampleRecorder()
	g := r.Gantt(0, 10*ms, 50)
	if !strings.Contains(g, "alpha") || !strings.Contains(g, "beta") || !strings.Contains(g, "idle") {
		t.Fatalf("missing rows:\n%s", g)
	}
	lines := strings.Split(g, "\n")
	var alphaRow string
	for _, l := range lines {
		if strings.Contains(l, "alpha") {
			alphaRow = l
		}
	}
	if !strings.Contains(alphaRow, "#") || !strings.Contains(alphaRow, "+") {
		t.Errorf("alpha row should show granted and overtime: %q", alphaRow)
	}
	// Empty window renders empty.
	if r.Gantt(10, 10, 50) != "" {
		t.Error("degenerate window should render empty")
	}
}

func TestGanttClipsToWindow(t *testing.T) {
	r := New()
	r.OnDispatch(1, "t", 0, 100*ms, sched.DispatchGranted, 0)
	g := r.Gantt(40*ms, 60*ms, 20)
	row := ""
	for _, l := range strings.Split(g, "\n") {
		if strings.Contains(l, "t |") {
			row = l
		}
	}
	if strings.Count(row, "#") != 20 {
		t.Errorf("clipped slice should fill the row: %q", row)
	}
}

func TestAllocationSeriesAndTable(t *testing.T) {
	r := New()
	r.OnPeriodStart(1, 0, 10*ms, 0, 9*ms)
	r.OnPeriodStart(1, 10*ms, 20*ms, 0, 9*ms)
	r.OnPeriodStart(1, 20*ms, 30*ms, 4, 4*ms)
	r.OnPeriodStart(2, 20*ms, 30*ms, 5, 4*ms)
	r.OnDispatch(1, "two", 0, 1, sched.DispatchGranted, 0)
	r.OnDispatch(2, "three", 0, 1, sched.DispatchGranted, 0)

	s := r.AllocationSeries(1)
	if len(s) != 3 || s[2].CPU != 4*ms {
		t.Errorf("series = %+v", s)
	}
	tbl := r.AllocationTable([]task.ID{1, 2}, 100*ms)
	if !strings.Contains(tbl, "two") || !strings.Contains(tbl, "three") {
		t.Errorf("table missing names:\n%s", tbl)
	}
	if !strings.Contains(tbl, "9.0") || !strings.Contains(tbl, "4.0") {
		t.Errorf("table missing allocations:\n%s", tbl)
	}
	// Before task 2 exists its cell is a dash.
	firstLine := ""
	for _, l := range strings.Split(tbl, "\n") {
		if strings.Contains(l, "0.0") {
			firstLine = l
			break
		}
	}
	if !strings.Contains(firstLine, "-") {
		t.Errorf("missing dash for absent task: %q", firstLine)
	}
}

func TestStaircaseChart(t *testing.T) {
	r := New()
	r.OnDispatch(1, "t2", 0, 1, sched.DispatchGranted, 0)
	r.OnPeriodStart(1, 0, 10*ms, 0, 9*ms)
	r.OnPeriodStart(1, 10*ms, 20*ms, 0, 9*ms)
	r.OnPeriodStart(1, 20*ms, 30*ms, 5, 4*ms)
	r.OnPeriodStart(1, 30*ms, 40*ms, 5, 4*ms)
	chart := r.StaircaseChart(1, 40*ms, 40)
	if !strings.Contains(chart, "t2 allocation") {
		t.Fatalf("chart header missing:\n%s", chart)
	}
	lines := strings.Split(chart, "\n")
	// The top rows (9ms level) are shorter than the bottom rows
	// (4ms persists to the end): a staircase.
	var topHashes, bottomHashes int
	for _, l := range lines {
		if strings.HasPrefix(strings.TrimSpace(l), "9.0") {
			topHashes = strings.Count(l, "#")
		}
		if strings.HasPrefix(strings.TrimSpace(l), "0.5") {
			bottomHashes = strings.Count(l, "#")
		}
	}
	if topHashes == 0 || bottomHashes <= topHashes {
		t.Errorf("not a staircase: top=%d bottom=%d\n%s", topHashes, bottomHashes, chart)
	}
	if r.StaircaseChart(99, 40*ms, 40) != "" {
		t.Error("chart for unknown task should be empty")
	}
}

func TestMisses(t *testing.T) {
	r := New()
	if r.MissCount() != 0 {
		t.Error("fresh recorder has misses")
	}
	r.OnDeadlineMiss(1, 10*ms, 2*ms)
	if r.MissCount() != 1 || r.Misses[0].Undelivered != 2*ms {
		t.Errorf("misses = %+v", r.Misses)
	}
}

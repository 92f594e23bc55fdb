package workload

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/extclock"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/ticks"
)

const ms = ticks.PerMillisecond

func zeroCosts() *sim.SwitchCosts {
	c := sim.ZeroSwitchCosts()
	return &c
}

func TestMPEGListMatchesTable2(t *testing.T) {
	rl := MPEGList()
	if err := rl.Validate(); err != nil {
		t.Fatal(err)
	}
	if rl[0].Fn != "FullDecompress" || rl[3].Fn != "Drop_2B_in_4" {
		t.Error("Table 2 function names wrong")
	}
}

func TestMPEGFullQualityDecodesEverything(t *testing.T) {
	m := NewMPEG()
	d := core.New(core.Config{SwitchCosts: zeroCosts()})
	if _, err := d.RequestAdmittance(m.Task()); err != nil {
		t.Fatal(err)
	}
	d.Run(ticks.FromSeconds(2)) // 60 frames
	m.Flush()
	st := m.Stats()
	if st.UnplannedLoss != 0 || st.LostI != 0 || st.RuinedFrames != 0 {
		t.Errorf("losses at full quality: %s", st.QualityString())
	}
	if st.Decoded < 59 {
		t.Errorf("decoded %d frames in 2s, want ~60", st.Decoded)
	}
	if st.PlannedDrops != 0 {
		t.Errorf("planned drops at level 0: %d", st.PlannedDrops)
	}
}

func TestMPEGShedsBFramesOnlyUnderOverload(t *testing.T) {
	// Force overload so the Policy Box sheds MPEG to a drop level;
	// quality degrades by planned B drops, never by lost I frames.
	m := NewMPEG()
	d := core.New(core.Config{SwitchCosts: zeroCosts()})
	if _, err := d.RequestAdmittance(m.Task()); err != nil {
		t.Fatal(err)
	}
	// A 70%-minimum hog forces MPEG off its 33% maximum.
	if _, err := d.RequestAdmittance(&task.Task{
		Name: "hog",
		List: task.SingleLevel(10*ms, 7*ms, "Hog"),
		Body: task.Busy(),
	}); err != nil {
		t.Fatal(err)
	}
	d.Run(ticks.FromSeconds(2))
	m.Flush()
	st := m.Stats()
	if st.PlannedDrops == 0 {
		t.Errorf("no planned drops despite shedding: %s", st.QualityString())
	}
	if st.UnplannedLoss != 0 || st.LostI != 0 {
		t.Errorf("unplanned losses under RD shedding: %s", st.QualityString())
	}
	if st.Decoded == 0 {
		t.Error("nothing decoded")
	}
}

func TestMPEGGOPAccounting(t *testing.T) {
	// Drive the body directly: one full GOP at level 0 decodes 15
	// frames, one per period.
	m := NewMPEG()
	for i := 0; i < 16; i++ {
		res := m.Run(task.RunContext{NewPeriod: true, Level: 0, Span: 900_000})
		if res.Used != MPEGFrameCost {
			t.Fatalf("period %d used %v, want one frame cost", i, res.Used)
		}
	}
	m.Flush()
	if got := m.Stats().Decoded; got != 16 {
		t.Errorf("decoded = %d, want 16", got)
	}
}

func TestMPEGLostIFrameRuinsGOP(t *testing.T) {
	// Give the decoder no CPU for the I-frame period, then full
	// periods: everything until the next I frame is ruined.
	m := NewMPEG()
	// Period 1: the I frame gets no cycles.
	m.Run(task.RunContext{NewPeriod: true, Level: 0, Span: 900_000})
	// Simulate the scheduler never dispatching again until next
	// period: closePeriod happens on the next NewPeriod with zero
	// progress recorded... but Run consumed the frame. Instead drive
	// with zero span periods.
	m2 := NewMPEG()
	// First period: NewPeriod with zero span available.
	r := m2.Run(task.RunContext{NewPeriod: true, Level: 0, Span: 1})
	if r.Op != task.OpRanOut {
		t.Fatalf("unexpected op %v", r.Op)
	}
	// Next periods decode fully.
	for i := 0; i < 14; i++ {
		m2.Run(task.RunContext{NewPeriod: true, Level: 0, Span: 900_000})
	}
	m2.Flush()
	st := m2.Stats()
	if st.LostI != 1 {
		t.Fatalf("lostI = %d, want 1 (%s)", st.LostI, st.QualityString())
	}
	if st.RuinedFrames != 14 {
		t.Errorf("ruined = %d, want 14 (rest of the GOP)", st.RuinedFrames)
	}
}

func TestAC3IntactUnderLoad(t *testing.T) {
	a := NewAC3()
	d := core.New(core.Config{SwitchCosts: zeroCosts()})
	if _, err := d.RequestAdmittance(a.Task()); err != nil {
		t.Fatal(err)
	}
	if _, err := d.RequestAdmittance(&task.Task{
		Name: "bg", List: task.SingleLevel(10*ms, 8*ms, "BG"), Body: task.Busy(),
	}); err != nil {
		t.Fatal(err)
	}
	d.Run(ticks.FromSeconds(2))
	a.Flush()
	st := a.Stats()
	if st.Dropouts != 0 {
		t.Errorf("audio dropouts under load: %s", st.QualityString())
	}
	// ~62 frames in 2s of 32ms periods.
	if st.Frames < 60 {
		t.Errorf("frames = %d, want ~62", st.Frames)
	}
}

func TestAC3RateIsTwelvePercent(t *testing.T) {
	r := AC3List()[0].Rate().Percent()
	if r != 12 {
		t.Errorf("AC3 rate = %v%%, want 12", r)
	}
}

func TestGraphics3DRendersAndSheds(t *testing.T) {
	g := NewGraphics3D(7)
	d := core.New(core.Config{SwitchCosts: zeroCosts()})
	if _, err := d.RequestAdmittance(g.Task()); err != nil {
		t.Fatal(err)
	}
	d.Run(ticks.FromSeconds(1))
	alone := g.Stats().Frames
	if alone == 0 {
		t.Fatal("no frames rendered")
	}
	// Add a hog: the renderer sheds (same function, less progress).
	if _, err := d.RequestAdmittance(&task.Task{
		Name: "hog", List: task.SingleLevel(10*ms, 6*ms, "Hog"), Body: task.Busy(),
	}); err != nil {
		t.Fatal(err)
	}
	d.Run(ticks.FromSeconds(1))
	after := g.Stats().Frames - alone
	if after >= alone {
		t.Errorf("frames before=%d after=%d; shedding should slow rendering", alone, after)
	}
}

func TestGraphics3DFFUFilter(t *testing.T) {
	g := NewGraphics3D(1)
	// Level 1 -> 2 crosses the FFU boundary: callback + cleanup.
	if got := g.FilterGrantChange(1, 2); got != task.CallbackSemantics {
		t.Error("FFU loss should force callback semantics")
	}
	if g.Stats().FFUCleanups != 1 {
		t.Error("cleanup not counted")
	}
	// Level 2 -> 3 stays off-FFU: return semantics.
	if got := g.FilterGrantChange(2, 3); got != task.ReturnSemantics {
		t.Error("non-FFU change should keep return semantics")
	}
	if g.Stats().SoftCleanups != 1 {
		t.Error("soft change not counted")
	}
}

func TestDisplay2DRefreshAndDuplicates(t *testing.T) {
	// 72Hz display (the §4.1 example): period 375,000 ticks.
	if p := Display2DList(72, 1000)[0].Period; p != 375_000 {
		t.Errorf("72Hz period = %d, want 375000", p)
	}
	dsp := NewDisplay2D(2 * ms)
	d := core.New(core.Config{SwitchCosts: zeroCosts()})
	if _, err := d.RequestAdmittance(dsp.Task(100)); err != nil {
		t.Fatal(err)
	}
	d.Run(ticks.FromSeconds(1))
	st := dsp.Stats()
	if st.Refreshes < 98 {
		t.Errorf("refreshes = %d, want ~99", st.Refreshes)
	}
	if st.Duplicates != 0 {
		t.Errorf("duplicates = %d with ample CPU", st.Duplicates)
	}
}

func TestModemServicesEveryPeriod(t *testing.T) {
	m := NewModem()
	d := core.New(core.Config{SwitchCosts: zeroCosts()})
	if _, err := d.RequestAdmittance(m.Task(false)); err != nil {
		t.Fatal(err)
	}
	d.Run(ticks.FromSeconds(1))
	st := m.Stats()
	if st.Serviced < 99 {
		t.Errorf("serviced = %d of ~100 periods", st.Serviced)
	}
	if st.Overruns != 0 {
		t.Errorf("overruns = %d", st.Overruns)
	}
}

func TestQuiescentModemAnswersPromptly(t *testing.T) {
	// The §5.3 scenario via the workload models: DVD at max, call
	// arrives, modem answers in its very next period.
	m := NewModem()
	d := core.New(core.Config{SwitchCosts: zeroCosts()})
	id, err := d.RequestAdmittance(m.Task(true))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.RequestAdmittance(&task.Task{
		Name: "dvd", List: task.UniformLevels(10*ms, "DVD", 90, 50), Body: task.Busy(),
	}); err != nil {
		t.Fatal(err)
	}
	d.At(500*ms, func() { _ = d.Wake(id) })
	d.Run(ticks.FromSeconds(1))
	st := m.Stats()
	if st.Serviced < 45 {
		t.Errorf("serviced = %d after mid-run wake, want ~49", st.Serviced)
	}
}

func TestBusyLoopTaskShape(t *testing.T) {
	tk := BusyLoopTask("2")
	if err := tk.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tk.List) != 9 || tk.List[0].CPU != 243_000 || tk.List[8].CPU != 27_000 {
		t.Errorf("Table 6 shape wrong: %v", tk.List)
	}
}

func TestQualityStrings(t *testing.T) {
	for _, s := range []string{
		MPEGStats{Decoded: 1}.QualityString(),
		AC3Stats{Frames: 2}.QualityString(),
		G3DStats{Frames: 3}.QualityString(),
		D2DStats{Refreshes: 4}.QualityString(),
		ModemStats{Serviced: 5}.QualityString(),
	} {
		if !strings.Contains(s, "=") {
			t.Errorf("quality string %q", s)
		}
	}
}

// Each paper builder, staged on a Distributor whose 99 % interrupt
// reserve leaves no room for its set, reports the denial: the
// builders that admit at once return it, Quiescent arming no wake-up,
// and Figure5's mid-run threads stay task.NoID.
func TestPaperBuildersReportDenial(t *testing.T) {
	oracle, err := extclock.NewPhaseLock(extclock.New(120, 0), 270_000, 269_500)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		stage func(d *core.Distributor) error
	}{
		{"Settop", func(d *core.Distributor) error { _, _, _, err := Settop(d); return err }},
		{"Figure4", Figure4},
		{"Quiescent", func(d *core.Distributor) error { _, _, _, err := Quiescent(d, 500*ms); return err }},
		{"PhaseLockedDisplay", func(d *core.Distributor) error {
			_, err := PhaseLockedDisplay(d, oracle, 269_500, 1, nil)
			return err
		}},
	} {
		d := core.New(core.Config{InterruptReservePercent: 99})
		if err := tc.stage(d); err == nil {
			t.Errorf("%s: admitted into a 1%% machine", tc.name)
		}
		if at, ok := d.Kernel().NextEventTime(); tc.name == "Quiescent" && ok {
			t.Errorf("Quiescent: denied, yet an event is armed at %v", at)
		}
	}

	d := core.New(core.Config{InterruptReservePercent: 99})
	server, threads, err := Figure5(d)
	if err != nil || server == task.NoID {
		t.Fatalf("Figure5: the 1%% server was not admitted: %v", err)
	}
	d.Run(200 * ms)
	for i, id := range threads {
		if id != task.NoID {
			t.Errorf("Figure5: thread%d admitted as %d into the server's 1%%", i+2, id)
		}
	}
}

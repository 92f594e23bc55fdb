package task

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ticks"
)

// mpegList is Table 2 of the paper: the MPEG thread's resource list.
func mpegList() ResourceList {
	return ResourceList{
		{Period: 900_000, CPU: 300_000, Fn: "FullDecompress"},
		{Period: 3_600_000, CPU: 900_000, Fn: "Drop_B_in_4"},
		{Period: 2_700_000, CPU: 600_000, Fn: "Drop_B_in_3"},
		{Period: 3_600_000, CPU: 600_000, Fn: "Drop_2B_in_4"},
	}
}

// graphics3DList is Table 3: the 3D graphics thread's resource list.
func graphics3DList() ResourceList {
	return ResourceList{
		{Period: 2_700_000, CPU: 2_160_000, Fn: "Render3DFrame"},
		{Period: 2_700_000, CPU: 1_080_000, Fn: "Render3DFrame"},
		{Period: 2_700_000, CPU: 540_000, Fn: "Render3DFrame"},
		{Period: 2_700_000, CPU: 270_000, Fn: "Render3DFrame"},
	}
}

func TestTable2MPEGRates(t *testing.T) {
	rl := mpegList()
	if err := rl.Validate(); err != nil {
		t.Fatalf("Table 2 list invalid: %v", err)
	}
	// The paper's computed Rate column: 33.3, 25.0, 22.2, 16.7 %.
	want := []float64{33.3, 25.0, 22.2, 16.7}
	for i, w := range want {
		got := rl[i].Rate().Percent()
		if got < w-0.1 || got > w+0.1 {
			t.Errorf("entry %d rate = %.1f%%, want %.1f%%", i, got, w)
		}
	}
	if rl.Min().Fn != "Drop_2B_in_4" {
		t.Errorf("min entry = %v, want Drop_2B_in_4", rl.Min().Fn)
	}
	if rl.Max().Fn != "FullDecompress" {
		t.Errorf("max entry = %v, want FullDecompress", rl.Max().Fn)
	}
}

func TestTable3GraphicsRates(t *testing.T) {
	rl := graphics3DList()
	if err := rl.Validate(); err != nil {
		t.Fatalf("Table 3 list invalid: %v", err)
	}
	want := []float64{80, 40, 20, 10}
	for i, w := range want {
		got := rl[i].Rate().Percent()
		if got < w-0.01 || got > w+0.01 {
			t.Errorf("entry %d rate = %.2f%%, want %.0f%%", i, got, w)
		}
	}
}

func TestValidateRejectsBadEntries(t *testing.T) {
	cases := []struct {
		name string
		e    Entry
		want string
	}{
		{"period too small", Entry{Period: 100, CPU: 50}, "below minimum"},
		{"period too large", Entry{Period: ticks.MaxPeriod + 1, CPU: 1}, "above maximum"},
		{"zero cpu", Entry{Period: 900_000, CPU: 0}, "must be positive"},
		{"negative cpu", Entry{Period: 900_000, CPU: -5}, "must be positive"},
		{"cpu exceeds period", Entry{Period: 900_000, CPU: 900_001}, "exceeds period"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.e.Validate()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("Validate() = %v, want error containing %q", err, c.want)
			}
		})
	}
}

func TestValidateFullPeriodCPUAllowed(t *testing.T) {
	// CPU == Period (100%) is legal: Table 6's 90% steps up to a
	// hypothetical 100% entry are all within bounds.
	e := Entry{Period: 900_000, CPU: 900_000}
	if err := e.Validate(); err != nil {
		t.Errorf("100%% entry rejected: %v", err)
	}
}

func TestValidateRejectsUnorderedList(t *testing.T) {
	rl := ResourceList{
		{Period: 900_000, CPU: 100_000, Fn: "low"},
		{Period: 900_000, CPU: 300_000, Fn: "high"}, // higher rate after lower
	}
	err := rl.Validate()
	if err == nil || !strings.Contains(err.Error(), "not ordered") {
		t.Errorf("unordered list accepted: %v", err)
	}
}

func TestValidateEmptyList(t *testing.T) {
	var rl ResourceList
	if err := rl.Validate(); err != ErrEmptyList {
		t.Errorf("empty list error = %v, want ErrEmptyList", err)
	}
}

func TestEqualRatesAreOrdered(t *testing.T) {
	// Entries with equal rates (MPEG's 600_000/3_600_000 after
	// 900_000/3_600_000 style plateaus) must be accepted.
	rl := ResourceList{
		{Period: 900_000, CPU: 300_000},
		{Period: 1_800_000, CPU: 600_000}, // same 33.3% rate
		{Period: 900_000, CPU: 100_000},
	}
	if err := rl.Validate(); err != nil {
		t.Errorf("equal-rate plateau rejected: %v", err)
	}
}

func TestUniformLevelsTable6(t *testing.T) {
	// Table 6: period 270,000 (10 ms), nine entries 90%..10%.
	rl := UniformLevels(270_000, "BusyLoop", 90, 80, 70, 60, 50, 40, 30, 20, 10)
	if err := rl.Validate(); err != nil {
		t.Fatalf("Table 6 list invalid: %v", err)
	}
	if len(rl) != 9 {
		t.Fatalf("len = %d, want 9", len(rl))
	}
	if rl[0].CPU != 243_000 {
		t.Errorf("90%% entry CPU = %d, want 243000", rl[0].CPU)
	}
	if rl[8].CPU != 27_000 {
		t.Errorf("10%% entry CPU = %d, want 27000", rl[8].CPU)
	}
}

func TestUniformLevelsPanicsOnBadPercent(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("UniformLevels(0%) did not panic")
		}
	}()
	UniformLevels(270_000, "x", 0)
}

func TestSingleLevel(t *testing.T) {
	rl := SingleLevel(270_000, 27_000, "Modem")
	if err := rl.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(rl) != 1 || rl.Min() != rl.Max() {
		t.Error("SingleLevel should have one entry")
	}
}

func TestCloneIsDeep(t *testing.T) {
	rl := mpegList()
	cl := rl.Clone()
	cl[0].CPU = 1
	if rl[0].CPU == 1 {
		t.Error("Clone aliases the original")
	}
}

func TestTaskValidate(t *testing.T) {
	body := BodyFunc(func(ctx RunContext) RunResult {
		return RunResult{Used: ctx.Span, Op: OpYield}
	})
	good := &Task{Name: "mpeg", List: mpegList(), Body: body}
	if err := good.Validate(); err != nil {
		t.Errorf("valid task rejected: %v", err)
	}
	if err := (&Task{List: mpegList(), Body: body}).Validate(); err == nil {
		t.Error("nameless task accepted")
	}
	if err := (&Task{Name: "x", List: mpegList()}).Validate(); err == nil {
		t.Error("bodyless task accepted")
	}
	if err := (&Task{Name: "x", Body: body}).Validate(); err == nil {
		t.Error("listless task accepted")
	}
}

func TestStateAndOpStrings(t *testing.T) {
	if Runnable.String() != "runnable" || Blocked.String() != "blocked" || Quiescent.String() != "quiescent" {
		t.Error("State strings wrong")
	}
	if State(99).String() == "" {
		t.Error("unknown state should still render")
	}
	ops := map[Op]string{OpRanOut: "ran-out", OpYield: "yield", OpBlock: "block", OpOvertime: "overtime", OpExit: "exit"}
	for op, want := range ops {
		if op.String() != want {
			t.Errorf("Op %d string = %q, want %q", op, op.String(), want)
		}
	}
	if CallbackSemantics.String() != "callback" || ReturnSemantics.String() != "return" {
		t.Error("Semantics strings wrong")
	}
}

func TestBodyFuncAdapter(t *testing.T) {
	called := false
	b := BodyFunc(func(ctx RunContext) RunResult {
		called = true
		return RunResult{Used: ctx.Span, Op: OpYield}
	})
	r := b.Run(RunContext{Span: 10})
	if !called || r.Used != 10 {
		t.Error("BodyFunc adapter did not pass through")
	}
}

// TestRunContextFitsRegisters guards the RunContext layout every
// dispatch passes by value: at most eight fields, each a scalar, so the
// context and the body's receiver travel in amd64's nine integer
// argument registers. A ninth field, or a string or slice, fails here
// instead of quietly adding a stack copy to every slice. Each flag
// round-trips through its method, alone and with the others set.
func TestRunContextFitsRegisters(t *testing.T) {
	rt := reflect.TypeOf(RunContext{})
	if rt.NumField() > 8 {
		t.Errorf("RunContext has %d fields, want at most 8", rt.NumField())
	}
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		switch f.Type.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		default:
			t.Errorf("RunContext.%s is a %s, want an integer or bool scalar", f.Name, f.Type.Kind())
		}
	}

	methods := []struct {
		flag ContextFlags
		get  func(RunContext) bool
	}{
		{FlagGrantChanged, RunContext.GrantChanged},
		{FlagPrevCompleted, RunContext.PrevCompleted},
		{FlagInGracePeriod, RunContext.InGracePeriod},
		{FlagException, RunContext.Exception},
	}
	all := ContextFlags(0)
	for _, m := range methods {
		all |= m.flag
	}
	for i, m := range methods {
		if m.get(RunContext{}) {
			t.Errorf("flag %d reads set on a zero context", i)
		}
		if !m.get(RunContext{Flags: m.flag}) || !m.get(RunContext{Flags: all}) {
			t.Errorf("flag %d does not read back through its method", i)
		}
		if m.get(RunContext{Flags: all &^ m.flag}) {
			t.Errorf("flag %d reads set when only the others are", i)
		}
	}
}

func TestMinFracProperty(t *testing.T) {
	// For any valid generated list, MinFrac is <= every entry's frac.
	f := func(seed uint8, n uint8) bool {
		count := int(n%5) + 1
		period := ticks.Ticks(270_000)
		rl := make(ResourceList, 0, count)
		cpu := period
		for i := 0; i < count; i++ {
			cpu = cpu * ticks.Ticks(int(seed%3)+2) / ticks.Ticks(int(seed%3)+3)
			if cpu < 1 {
				cpu = 1
			}
			rl = append(rl, Entry{Period: period, CPU: cpu})
		}
		if rl.Validate() != nil {
			return true // generator produced a plateau violation; skip
		}
		min := rl.MinFrac()
		for _, e := range rl {
			if e.Frac().Cmp(min) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestListString(t *testing.T) {
	s := mpegList().String()
	if !strings.Contains(s, "FullDecompress") || !strings.Contains(s, "33.3%") {
		t.Errorf("list String missing fields: %s", s)
	}
}

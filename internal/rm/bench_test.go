package rm

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/task"
	"repro/internal/telemetry"
	"repro/internal/ticks"
)

const benchMS = ticks.PerMillisecond

// fullManager is a node in the state fleet spillover leaves it in:
// ten residents holding 90 % of the CPU in minimums, instrumented the
// way a fleet node is (counters on, spans into a flight-recorder ring).
// A probe whose minimum is 20 % is denied.
func fullManager(tb testing.TB) (*Manager, *task.Task) {
	m := New(Config{})
	m.EnableTelemetry(&telemetry.Set{
		Registry: telemetry.NewRegistry(),
		Spans:    telemetry.NewFlight(0, 0).Ring(),
	}, nil)
	for i := 0; i < 10; i++ {
		if _, err := m.RequestAdmittance(newTask(fmt.Sprintf("r%d", i), task.SingleLevel(10*benchMS, 9*benchMS/10, "T"))); err != nil {
			tb.Fatal(err)
		}
	}
	return m, newTask("big", task.UniformLevels(10*benchMS, "B", 40, 20))
}

// BenchmarkAdmitDeny measures one denied admission — under fleet
// spillover the common outcome, several per accept.
func BenchmarkAdmitDeny(b *testing.B) {
	m, big := fullManager(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.RequestAdmittance(big); err == nil {
			b.Fatal("admitted past capacity")
		}
	}
}

// BenchmarkAdmitAccept measures one accepted admission into a manager
// with ten residents (overload: the grant set is recomputed through
// the Policy Box), and the removal that makes room for the next.
func BenchmarkAdmitAccept(b *testing.B) {
	m := New(Config{})
	for i := 0; i < 10; i++ {
		if _, err := m.RequestAdmittance(newTask(fmt.Sprintf("r%d", i), task.UniformLevels(10*benchMS, "R", 12, 8))); err != nil {
			b.Fatal(err)
		}
	}
	probe := newTask("probe", task.UniformLevels(10*benchMS, "P", 12, 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, err := m.RequestAdmittance(probe)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Remove(id); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAdmitDenyAllocFreeButForItsError pins the denial path: the typed
// error is the only object a denied admission may allocate (it was
// five: a list clone made before the test, and fmt.Errorf's wrapper,
// string and two boxed floats).
func TestAdmitDenyAllocFreeButForItsError(t *testing.T) {
	m, big := fullManager(t)
	if n := testing.AllocsPerRun(200, func() {
		if _, err := m.RequestAdmittance(big); err == nil {
			t.Fatal("admitted past capacity")
		}
	}); n > 1 {
		t.Errorf("denied RequestAdmittance allocates %v objects, want at most 1", n)
	}
}

// TestDenialErrorContract holds the typed denial errors to the text
// the fmt.Errorf calls they replace produced (rdsim and rdbench print
// it) and to the sentinels callers match.
func TestDenialErrorContract(t *testing.T) {
	cpu := New(Config{InterruptReservePercent: 4})
	for i := 0; i < 5; i++ {
		if _, err := cpu.RequestAdmittance(newTask(fmt.Sprintf("hog%d", i), task.SingleLevel(270_000, 48_600, "Hog"))); err != nil {
			t.Fatal(err)
		}
	}
	_, cpuErr := cpu.RequestAdmittance(newTask("f", task.UniformLevels(270_000, "F", 30, 7)))

	str := New(Config{Streamer: Capacity{StreamerMBps: 100}})
	if _, err := str.RequestAdmittance(newTask("a", streamList(30, 20, 80, 60))); err != nil {
		t.Fatal(err)
	}
	_, strErr := str.RequestAdmittance(newTask("b", streamList(30, 20, 80, 60)))

	for _, c := range []struct {
		name     string
		err      error
		sentinel error
		other    error
		want     string
	}{
		{"cpu", cpuErr, ErrAdmissionDenied, ErrStreamerDenied,
			fmt.Errorf("%w: min sum would be %.4f of %.4f schedulable", ErrAdmissionDenied, 0.97, 0.96).Error()},
		{"streamer", strErr, ErrStreamerDenied, ErrAdmissionDenied,
			fmt.Errorf("%w: min demands would be %d of %d MB/s", ErrStreamerDenied, 120, 100).Error()},
	} {
		if c.err == nil {
			t.Fatalf("%s: admitted, want a denial", c.name)
		}
		if !errors.Is(c.err, c.sentinel) {
			t.Errorf("%s: errors.Is(%v, %v) = false", c.name, c.err, c.sentinel)
		}
		if errors.Is(c.err, c.other) {
			t.Errorf("%s: %v also matches %v", c.name, c.err, c.other)
		}
		if got := c.err.Error(); got != c.want {
			t.Errorf("%s: message\n got %q\nwant %q", c.name, got, c.want)
		}
	}
	if want := "rm: admission denied: insufficient resources for minimum grants: min sum would be 0.9700 of 0.9600 schedulable"; cpuErr.Error() != want {
		t.Errorf("cpu denial reads %q, want %q", cpuErr.Error(), want)
	}
	var ce *CPUDenialError
	if !errors.As(cpuErr, &ce) || ce.MinSum.Cmp(ticks.FracPercent(97)) != 0 || ce.Schedulable.Cmp(ticks.FracPercent(96)) != 0 {
		t.Errorf("cpu denial carries %+v, want 97/100 of 24/25", ce)
	}
	var se *StreamerDenialError
	if !errors.As(strErr, &se) || se.MinMBps != 120 || se.CapacityMBps != 100 {
		t.Errorf("streamer denial carries %+v, want 120 of 100", se)
	}
}

package ticks

import "testing"

func TestUnitConstructors(t *testing.T) {
	if FromMilliseconds(10) != 270_000 {
		t.Errorf("FromMilliseconds(10) = %d", FromMilliseconds(10))
	}
	if FromSeconds(2) != 54_000_000 {
		t.Errorf("FromSeconds(2) = %d", FromSeconds(2))
	}
}

func TestFloatReporters(t *testing.T) {
	tk := FromMilliseconds(15)
	if tk.MillisecondsF() != 15 {
		t.Errorf("MillisecondsF = %v", tk.MillisecondsF())
	}
	if tk.Milliseconds() != 15 {
		t.Errorf("Milliseconds = %v", tk.Milliseconds())
	}
	if tk.MicrosecondsF() != 15_000 {
		t.Errorf("MicrosecondsF = %v", tk.MicrosecondsF())
	}
	if got := FromSeconds(3).Seconds(); got != 3 {
		t.Errorf("Seconds = %v", got)
	}
	// Rounding in Milliseconds.
	if got := (FromMilliseconds(1) + PerMillisecond/2).Milliseconds(); got != 2 {
		t.Errorf("1.5ms rounds to %d, want 2", got)
	}
}

func TestFracRateAndValidation(t *testing.T) {
	f := FracOf(27_000, 270_000)
	if f.Rate().String() != "10.0%" {
		t.Errorf("Rate().String() = %q", f.Rate().String())
	}
}

func TestFracOfPanicsOnBadPeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("FracOf(1, 0) did not panic")
		}
	}()
	FracOf(1, 0)
}

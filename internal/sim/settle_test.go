package sim

import (
	"testing"

	"repro/internal/ticks"
)

// kernelAt returns a kernel whose clock stands at now with an empty
// queue, then lets arm schedule the case's events.
func kernelAt(now ticks.Ticks, arm func(k *Kernel)) *Kernel {
	k := NewKernel(Config{})
	k.Idle(now)
	if arm != nil {
		arm(k)
	}
	return k
}

func TestSliceEnd(t *testing.T) {
	const now, want = 100, 500
	cases := []struct {
		name    string
		eventAt ticks.Ticks // < 0: no event
		end     ticks.Ticks
		cut     bool
	}{
		{"empty queue", -1, want, false},
		{"event before want", 300, 300, true},
		{"event at want is no cut", want, want, false},
		{"event at now", now, now, true},
		{"event after want", 900, want, false},
	}
	for _, c := range cases {
		k := kernelAt(now, func(k *Kernel) {
			if c.eventAt >= 0 {
				k.At(c.eventAt, func() {})
			}
		})
		end, cut := k.SliceEnd(want)
		if end != c.end || cut != c.cut {
			t.Errorf("%s: SliceEnd(%d) = %d, %v; want %d, %v", c.name, want, end, cut, c.end, c.cut)
		}
		if k.Now() != now {
			t.Errorf("%s: SliceEnd moved the clock to %d", c.name, k.Now())
		}
	}
}

func TestSettle(t *testing.T) {
	const now = 100
	cases := []struct {
		name    string
		arm     func(k *Kernel)
		limit   ticks.Ticks
		at      ticks.Ticks
		ok      bool
		stalled bool
	}{
		{"nothing due", func(k *Kernel) { k.At(now+50, func() {}) }, 1000, now, true, false},
		{"an interrupt handler moves the clock",
			func(k *Kernel) { k.At(now, func() { k.RunInterrupt(25) }) }, 1000, now + 25, true, false},
		{"a handler carries the clock past limit",
			func(k *Kernel) { k.At(now, func() { k.RunInterrupt(50) }) }, now + 20, now + 50, false, false},
		{"limit reached: nothing fires",
			func(k *Kernel) { k.At(now, func() { k.RunInterrupt(25) }) }, now, now, false, false},
		{"a zero-delay loop stalls the kernel", func(k *Kernel) {
			var again func()
			again = func() { k.At(k.Now(), again) }
			k.At(now, again)
		}, 1000, now, false, true},
	}
	for _, c := range cases {
		k := kernelAt(now, c.arm)
		at, ok := k.Settle(c.limit)
		_, stalled := k.Stalled()
		if at != c.at || ok != c.ok || stalled != c.stalled {
			t.Errorf("%s: Settle(%d) = %d, %v (stalled %v); want %d, %v (stalled %v)",
				c.name, c.limit, at, ok, stalled, c.at, c.ok, c.stalled)
		}
		if at != k.Now() {
			t.Errorf("%s: Settle returned %d with the clock at %d", c.name, at, k.Now())
		}
	}
}

package streamer

import (
	"slices"
	"testing"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/ticks"
)

// The differential oracle: Engine and the reference engine
// (ref_test.go) played the same operation tape side by side, each on
// a kernel of its own, must agree after every step on which onDone
// fired at which instant and on everything a caller can read.
//
// Tape layout: byte 0 picks the mode (0 metered New, then NewAllocated
// under Metered, MaxMinFair, MaxThroughput), byte 1 the capacity, then
// 3-byte operations (op, a, b):
//
//	op%7 == 0  Open(name a&15, 1+b MB/s)
//	op%7 == 1  OpenQuality(name a&15, 1+b MB/s, quality a>>4&3)
//	op%7 == 2  Submit(channel a&127, 1+b·10 000 bytes); a&128: its
//	           onDone submits one more frame of the same size
//	op%7 == 3  SetRate(channel a, 1+b MB/s)
//	op%7 == 4  Close(channel a)
//	op%7 >= 5  advance both kernels by (a<<8|b)·16 ticks
//
// A channel operand indexes the channels opened so far, closed ones
// included; a tape that has opened none skips it.

// maxTapeOps bounds one tape, so an input runs in milliseconds.
const maxTapeOps = 300

var tapeNames = [...]string{"video", "preview", "archive", "audio", "meta"}

// allocPair is one allocator under both engines.
type allocPair struct {
	alloc Allocator
	ref   refAllocator
}

var allocPairs = [...]allocPair{
	{Metered{}, refMetered{}},
	{MaxMinFair{}, refMaxMinFair{}},
	{MaxThroughput{}, refMaxThroughput{}},
}

// doneRec is one onDone call: the channel (by open index), the frame
// (by submit order over the whole tape) and the instant.
type doneRec struct {
	ch, frame int
	at        ticks.Ticks
}

// twinSide is one engine's half of a twin run.
type twinSide struct {
	k      *sim.Kernel
	set    *telemetry.Set
	done   []doneRec
	frames int
}

// twin is the engine and the reference engine under one tape.
type twin struct {
	e, r   twinSide
	eng    *Engine
	ref    *refEngine
	chans  []*Channel
	rchans []*refChannel
}

func newSide() twinSide {
	return twinSide{k: kernel(), set: &telemetry.Set{Registry: telemetry.NewRegistry()}}
}

func newTwin(mode, capByte byte) *twin {
	capacity := 50 + 2*int64(capByte)
	w := &twin{e: newSide(), r: newSide()}
	if m := int(mode) % (len(allocPairs) + 1); m == 0 {
		w.eng, w.ref = New(w.e.k, capacity), newRef(w.r.k, capacity)
	} else {
		p := allocPairs[m-1]
		w.eng, w.ref = NewAllocated(w.e.k, capacity, p.alloc), newRefAllocated(w.r.k, capacity, p.ref)
	}
	w.eng.Instrument(w.e.set)
	w.ref.Instrument(w.r.set)
	return w
}

// onDone returns the callback of one submitted frame on side s: it
// logs the completion and, for a chained frame, submits one more
// through resubmit.
func (s *twinSide) onDone(ch int, bytes int64, chained bool, resubmit func(int64, func()) error) func() {
	frame := s.frames
	s.frames++
	return func() {
		s.done = append(s.done, doneRec{ch: ch, frame: frame, at: s.k.Now()})
		if chained {
			_ = resubmit(bytes, s.onDone(ch, bytes, false, resubmit))
		}
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// step applies one operation to both engines and reports a mismatch
// in what the operation itself returned.
func (w *twin) step(t *testing.T, op, a, b byte) {
	t.Helper()
	if o := op % 7; o <= 1 {
		name, mbps := tapeNames[int(a&15)%len(tapeNames)], 1+int64(b)
		var c *Channel
		var rc *refChannel
		var err, rerr error
		if o == 0 {
			c, err = w.eng.Open(name, mbps)
			rc, rerr = w.ref.Open(name, mbps)
		} else {
			q := int64(a >> 4 & 3)
			c, err = w.eng.OpenQuality(name, mbps, q)
			rc, rerr = w.ref.OpenQuality(name, mbps, q)
		}
		if errText(err) != errText(rerr) {
			t.Fatalf("Open(%q, %d): error %q, reference %q", name, mbps, errText(err), errText(rerr))
		}
		if err == nil {
			w.chans, w.rchans = append(w.chans, c), append(w.rchans, rc)
		}
		return
	} else if o >= 5 {
		to := w.e.k.Now() + ticks.Ticks(int64(a)<<8|int64(b))*16
		w.e.k.RunUntil(to)
		w.r.k.RunUntil(to)
		return
	}
	if len(w.chans) == 0 {
		return
	}
	var err, rerr error
	switch op % 7 {
	case 2:
		i := int(a&127) % len(w.chans)
		c, rc := w.chans[i], w.rchans[i]
		bytes, chained := 1+int64(b)*10_000, a&128 != 0
		err = c.Submit(bytes, w.e.onDone(i, bytes, chained, c.Submit))
		rerr = rc.Submit(bytes, w.r.onDone(i, bytes, chained, rc.Submit))
	case 3:
		i := int(a) % len(w.chans)
		err, rerr = w.chans[i].SetRate(1+int64(b)), w.rchans[i].SetRate(1+int64(b))
	case 4:
		i := int(a) % len(w.chans)
		w.chans[i].Close()
		w.rchans[i].Close()
	}
	if errText(err) != errText(rerr) {
		t.Fatalf("op %d on channel %d: error %q, reference %q", op%7, a, errText(err), errText(rerr))
	}
}

// compare fails t on any difference a caller could observe.
func (w *twin) compare(t *testing.T, at int) {
	t.Helper()
	if !slices.Equal(w.e.done, w.r.done) {
		t.Fatalf("step %d: onDone calls\n got %v\nwant %v", at, w.e.done, w.r.done)
	}
	gt, ga := w.eng.Capacity()
	if rt, ra := w.ref.Capacity(); gt != rt || ga != ra {
		t.Fatalf("step %d: Capacity = %d/%d, reference %d/%d", at, ga, gt, ra, rt)
	}
	for i, c := range w.chans {
		rc := w.rchans[i]
		if c.Rate() != rc.Rate() || c.Demand() != rc.Demand() || c.QueueLen() != rc.QueueLen() || c.Stats() != rc.Stats() {
			t.Fatalf("step %d: channel %d (%s): rate %d demand %d queue %d %+v, reference rate %d demand %d queue %d %+v",
				at, i, c.Name(), c.Rate(), c.Demand(), c.QueueLen(), c.Stats(),
				rc.Rate(), rc.Demand(), rc.QueueLen(), rc.Stats())
		}
	}
	for _, name := range [...]string{"streamer.transfers", "streamer.bytes", "streamer.reallocations"} {
		if got, want := w.e.set.Reg().Counter(name).Value(), w.r.set.Reg().Counter(name).Value(); got != want {
			t.Fatalf("step %d: %s = %d, reference %d", at, name, got, want)
		}
	}
	if got, want := w.e.set.Reg().Gauge("streamer.allocated_mbps").Value(), w.r.set.Reg().Gauge("streamer.allocated_mbps").Value(); got != want {
		t.Fatalf("step %d: streamer.allocated_mbps = %d, reference %d", at, got, want)
	}
}

// playTape runs tape on a twin, comparing after every step and after
// a final two-second drain.
func playTape(t *testing.T, tape []byte) {
	if len(tape) < 2 {
		return
	}
	w := newTwin(tape[0], tape[1])
	ops := tape[2:]
	if len(ops) > 3*maxTapeOps {
		ops = ops[:3*maxTapeOps]
	}
	for i := 0; i+3 <= len(ops); i += 3 {
		w.step(t, ops[i], ops[i+1], ops[i+2])
		w.compare(t, i/3)
	}
	drain := w.e.k.Now() + 2*ticks.PerSecond
	w.e.k.RunUntil(drain)
	w.r.k.RunUntil(drain)
	w.compare(t, len(ops)/3)
}

// tapeOp is one operation of a hand-written tape.
type tapeOp struct{ op, a, b byte }

// encodeTape lays a mode, a capacity byte and ops out as a tape.
func encodeTape(mode, capByte byte, ops ...tapeOp) []byte {
	tape := []byte{mode, capByte}
	for _, o := range ops {
		tape = append(tape, o.op, o.a, o.b)
	}
	return tape
}

// advanceOp advances both kernels by d ticks, rounded down to 16.
func advanceOp(d ticks.Ticks) tapeOp {
	u := int64(d) / 16
	return tapeOp{5, byte(u >> 8), byte(u)}
}

// streamerStaging is the baseline-streamer cell as a tape: video,
// preview and archive (200, 120 and 100 MB/s of a 300 MB/s part,
// qualities 3/2/1) each submit a frame per period (10, 20 and 30 ms;
// 1.5, 1 and 2 MB), video's demand drops to 80 MB/s and back, and
// archive closes at 70 % of a 300 ms run. Video's frames chain a
// second one, so a completion submits from inside onDone. Each frame
// is submitted burst times, so at burst > 1 transfers queue deep and
// the queue's backing slides.
func streamerStaging(mode byte, burst int) []byte {
	ops := []tapeOp{
		{1, 0 | 3<<4, 199},
		{1, 1 | 2<<4, 119},
		{1, 2 | 1<<4, 99},
	}
	const period = 10 * ticks.PerMillisecond
	for n := 0; n < 30; n++ {
		for range burst {
			ops = append(ops, tapeOp{2, 0 | 128, 150})
			if n%2 == 0 {
				ops = append(ops, tapeOp{2, 1, 100})
			}
			if n%3 == 0 && n < 21 {
				ops = append(ops, tapeOp{2, 2, 200})
			}
		}
		switch n {
		case 15:
			ops = append(ops, tapeOp{3, 0, 79})
		case 21:
			ops = append(ops, tapeOp{4, 2, 0})
		case 25:
			ops = append(ops, tapeOp{3, 0, 199})
		}
		ops = append(ops, advanceOp(period))
	}
	return encodeTape(mode, 125, ops...)
}

// FuzzStreamerMatchesRef holds Engine to the reference engine on
// random operation tapes, in metered mode and under each allocator.
func FuzzStreamerMatchesRef(f *testing.F) {
	for mode := byte(0); mode <= byte(len(allocPairs)); mode++ {
		f.Add(streamerStaging(mode, 1))
		f.Add(streamerStaging(mode, 3))
	}
	f.Add([]byte{0})
	f.Add(encodeTape(2, 0,
		tapeOp{0, 0, 99}, tapeOp{0, 1, 99}, tapeOp{2, 0, 0}, tapeOp{2, 1, 255},
		tapeOp{4, 0, 0}, advanceOp(1000), tapeOp{3, 1, 9}, tapeOp{2, 0, 1}))
	f.Fuzz(playTape)
}

package workload

import (
	"fmt"

	"repro/internal/task"
	"repro/internal/ticks"
)

// This file models live MPEG delivery (§5.4: "The MPEG data stream is
// received live, at 30 frames per second"): a TransportStream pushes
// frames into a bounded buffer at the source's pace, and a
// StreamedMPEG decoder consumes them under its grant. An empty buffer
// blocks the decoder — voluntarily, so its guarantees are void only
// while starved and resume the next full period (§4.2) — and a full
// buffer drops arriving frames at the door. This is the
// producer/consumer structure behind Figure 4's data-management
// threads, done the way the paper says it should be (block, don't
// busy-wait).

// Timeline is the part of the Distributor the stream needs: virtual
// time and scheduled callbacks. *core.Distributor satisfies it.
type Timeline interface {
	Now() ticks.Ticks
	At(at ticks.Ticks, fn func())
}

// Waker lets the stream wake a blocked consumer. *core.Distributor
// satisfies it.
type Waker interface {
	Unblock(id task.ID) error
}

// TransportStream is the arrival side: a GOP-structured frame source
// paced at interval ticks per frame.
type TransportStream struct {
	tl       Timeline
	waker    Waker
	consumer task.ID

	interval ticks.Ticks
	// tick is deliver, bound once: the method value written out at
	// each At would allocate a closure per frame.
	tick     func()
	buf      []FrameType
	capacity int
	gop      []FrameType
	pos      int

	stats StreamStats
}

// StreamStats counts the arrival side.
type StreamStats struct {
	Arrived  int
	Overruns int // frames dropped at the door (buffer full)
}

// QualityString summarises for experiment output.
func (s StreamStats) QualityString() string {
	return fmt.Sprintf("arrived=%d overruns=%d", s.Arrived, s.Overruns)
}

// NewTransportStream builds a stream delivering one frame every
// interval ticks into a buffer of the given capacity.
func NewTransportStream(tl Timeline, interval ticks.Ticks, capacity int) *TransportStream {
	if capacity < 1 {
		capacity = 1
	}
	return &TransportStream{
		tl:       tl,
		interval: interval,
		capacity: capacity,
		gop:      []FrameType(DefaultGOP),
	}
}

// Start begins frame delivery; waker and consumer identify the
// decoder task to wake on arrivals.
func (ts *TransportStream) Start(w Waker, consumer task.ID) {
	ts.waker = w
	ts.consumer = consumer
	ts.tick = ts.deliver
	ts.tl.At(ts.tl.Now()+ts.interval, ts.tick)
}

func (ts *TransportStream) deliver() {
	ts.stats.Arrived++
	if len(ts.buf) >= ts.capacity {
		ts.stats.Overruns++
	} else {
		ts.buf = append(ts.buf, ts.gop[ts.pos])
		ts.pos = (ts.pos + 1) % len(ts.gop)
		if ts.waker != nil {
			_ = ts.waker.Unblock(ts.consumer)
		}
	}
	ts.tl.At(ts.tl.Now()+ts.interval, ts.tick)
}

// Stats reports the arrival accounting.
func (ts *TransportStream) Stats() StreamStats { return ts.stats }

// Buffered reports the current queue depth.
func (ts *TransportStream) Buffered() int { return len(ts.buf) }

// pop removes the oldest buffered frame, copying the few behind it
// down so the buffer stays on its array.
func (ts *TransportStream) pop() (FrameType, bool) {
	if len(ts.buf) == 0 {
		return 0, false
	}
	f := ts.buf[0]
	ts.buf = ts.buf[:copy(ts.buf, ts.buf[1:])]
	return f, true
}

// StreamedMPEG is the consumption side: a decoder task that decodes
// one buffered frame per period at full quality, blocking when the
// buffer is empty.
type StreamedMPEG struct {
	ts    *TransportStream
	stats StreamedStats

	inFlight  bool
	remaining ticks.Ticks
	current   FrameType
	ruined    bool
}

// StreamedStats counts the decode side.
type StreamedStats struct {
	Decoded int
	Ruined  int // decoded against a broken reference (post lost-I)
	Starved int // periods spent blocked on an empty buffer
}

// QualityString summarises for experiment output.
func (s StreamedStats) QualityString() string {
	return fmt.Sprintf("decoded=%d ruined=%d starved=%d", s.Decoded, s.Ruined, s.Starved)
}

// NewStreamedMPEG builds a decoder over the given stream.
func NewStreamedMPEG(ts *TransportStream) *StreamedMPEG {
	return &StreamedMPEG{ts: ts}
}

// Task wraps the decoder for admission: Table 2's full-quality entry
// (one frame per 1/30s at a third of the CPU).
func (m *StreamedMPEG) Task() *task.Task {
	return &task.Task{
		Name:      "mpeg-live",
		List:      task.SingleLevel(900_000, MPEGFrameCost, "DecodeLive"),
		Body:      m,
		Semantics: task.CallbackSemantics,
	}
}

// Stats reports the decode accounting.
func (m *StreamedMPEG) Stats() StreamedStats { return m.stats }

// Run implements task.Body.
func (m *StreamedMPEG) Run(ctx task.RunContext) task.RunResult {
	if !m.inFlight {
		f, ok := m.ts.pop()
		if !ok {
			// Nothing to decode: block until an arrival wakes us.
			m.stats.Starved++
			return task.RunResult{Op: task.OpBlock}
		}
		m.inFlight = true
		m.current = f
		m.remaining = MPEGFrameCost
	}
	if m.remaining > ctx.Span {
		m.remaining -= ctx.Span
		return task.RunResult{Used: ctx.Span, Op: task.OpRanOut}
	}
	used := m.remaining
	m.remaining = 0
	m.inFlight = false
	if m.current == IFrame {
		m.ruined = false
	}
	if m.ruined {
		m.stats.Ruined++
	} else {
		m.stats.Decoded++
	}
	return task.RunResult{Used: used, Op: task.OpYield, Completed: true}
}

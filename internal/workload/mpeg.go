// Package workload provides the application models the paper's
// evaluation runs on the Resource Distributor: an MPEG decoder with
// the Table 2 load-shedding menu and real I/B/P frame semantics, the
// Table 3 3D renderer, AC3 audio, the modem, and the Table 6
// BusyLoop threads.
//
// The models do two jobs. Downward, they present resource lists and
// consume CPU exactly as the paper describes (discrete, step-wise
// requirements — §3.1). Upward, they track application-level quality
// (frames decoded, B frames deliberately dropped, I frames lost,
// audio dropouts) so experiments can compare what a scheduling policy
// does to the user experience — the paper's central argument for
// allocating "units of resources known to be useful to a thread".
package workload

import (
	"fmt"

	"repro/internal/task"
	"repro/internal/ticks"
)

// FrameType is an MPEG frame class (§5.4).
type FrameType byte

const (
	// IFrame is an initial frame, decodable in isolation. Losing one
	// ruins the picture until the next I frame arrives.
	IFrame FrameType = 'I'
	// PFrame is predicted from the previous I or P frame.
	PFrame FrameType = 'P'
	// BFrame is bidirectionally predicted; losing one costs exactly
	// one displayed frame.
	BFrame FrameType = 'B'
)

// DefaultGOP is a typical 15-frame group of pictures: the paper notes
// an I frame "is typically every 15 frames or half-second".
const DefaultGOP = "IBBPBBPBBPBBPBB"

// MPEGFrameCost is the CPU to decode one frame at full resolution:
// Table 2's FullDecompress entry grants 300,000 ticks for one frame
// per 1/30s period.
const MPEGFrameCost ticks.Ticks = 300_000

// MPEGStats is the decoder's quality accounting.
type MPEGStats struct {
	Decoded        int // frames fully decoded on time
	PlannedDrops   int // B frames deliberately skipped by a shed level
	UnplannedLoss  int // frames lost because CPU ran out (missed work)
	LostI          int // unplanned losses that hit an I frame
	RuinedFrames   int // frames displayed broken while awaiting an I frame
	PeriodsStarted int
}

// QualityString summarises the stats for experiment output.
func (s MPEGStats) QualityString() string {
	return fmt.Sprintf("decoded=%d plannedB-drops=%d unplanned-loss=%d lostI=%d ruined=%d",
		s.Decoded, s.PlannedDrops, s.UnplannedLoss, s.LostI, s.RuinedFrames)
}

// MPEG is a stateful MPEG decoder body. Levels follow Table 2:
//
//	0 FullDecompress: every frame, 1 frame / 900,000-tick period
//	1 Drop_B_in_4:    drop 1 B of every 4 frames (period 3,600,000)
//	2 Drop_B_in_3:    drop 1 B of every 3 frames (period 2,700,000)
//	3 Drop_2B_in_4:   drop 2 B of every 4 frames (period 3,600,000)
type MPEG struct {
	stats MPEGStats

	gop      []FrameType
	gopPos   int  // next frame in stream order
	ruined   bool // picture broken until the next I frame decodes
	level    int
	pending  []FrameType // frames scheduled to decode this period
	doneCost ticks.Ticks // decode work already spent this period
}

// defaultGOPFrames is DefaultGOP decoded once; decoders index it and
// never write through it.
var defaultGOPFrames = []FrameType(DefaultGOP)

// NewMPEG returns a decoder with the standard GOP.
func NewMPEG() *MPEG {
	m := &MPEG{gop: defaultGOPFrames}
	return m
}

// mpegTable2 is the shared backing for MPEGList. Admission clones
// resource lists before retaining them (task.ResourceList.Clone), so
// handing every caller the same slice is safe as long as callers
// treat it as read-only.
var mpegTable2 = task.ResourceList{
	{Period: 900_000, CPU: 300_000, Fn: "FullDecompress"},
	{Period: 3_600_000, CPU: 900_000, Fn: "Drop_B_in_4"},
	{Period: 2_700_000, CPU: 600_000, Fn: "Drop_B_in_3"},
	{Period: 3_600_000, CPU: 600_000, Fn: "Drop_2B_in_4"},
}

// MPEGList is Table 2 verbatim. The returned list is shared and must
// not be mutated.
func MPEGList() task.ResourceList {
	return mpegTable2
}

// Task wraps the decoder in a descriptor ready for admission. MPEG is
// a truly periodic task and uses callback semantics (§5.5).
func (m *MPEG) Task() *task.Task {
	return &task.Task{Name: "mpeg", List: MPEGList(), Body: m, Semantics: task.CallbackSemantics}
}

// Stats returns the quality accounting so far.
func (m *MPEG) Stats() MPEGStats { return m.stats }

// framesPerPeriod reports how many stream frames elapse in one period
// of the given level, and how many B frames that level drops.
func framesPerPeriod(level int) (frames, drops int) {
	switch level {
	case 0:
		return 1, 0
	case 1:
		return 4, 1
	case 2:
		return 3, 1
	case 3:
		return 4, 2
	default:
		return 1, 0
	}
}

// nextFrame pulls the next frame from the GOP stream.
func (m *MPEG) nextFrame() FrameType {
	f := m.gop[m.gopPos]
	m.gopPos = (m.gopPos + 1) % len(m.gop)
	return f
}

// startPeriod builds this period's decode plan: pull the period's
// frames from the stream and drop B frames per the shed level. The
// plan only ever drops B frames — the whole point of the discrete
// resource list is that I and P frames are never put at risk by a
// granted level.
func (m *MPEG) startPeriod(level int) {
	m.level = level
	frames, drops := framesPerPeriod(level)
	m.pending = m.pending[:0]
	m.doneCost = 0
	dropped := 0
	for i := 0; i < frames; i++ {
		f := m.nextFrame()
		if f == BFrame && dropped < drops {
			dropped++
			m.stats.PlannedDrops++
			// A planned drop is not "ruin": the viewer loses one
			// frame, cleanly.
			continue
		}
		m.pending = append(m.pending, f)
	}
	m.stats.PeriodsStarted++
}

// closePeriod accounts the frames that did not get decoded before the
// period ended — unplanned loss, the thing the Resource Distributor
// exists to prevent.
func (m *MPEG) closePeriod() {
	decoded := int(m.doneCost / MPEGFrameCost)
	if decoded > len(m.pending) {
		decoded = len(m.pending)
	}
	for i, f := range m.pending {
		if i < decoded {
			if f == IFrame {
				m.ruined = false
			}
			if m.ruined {
				// Decoded, but against a broken reference picture.
				m.stats.RuinedFrames++
			} else {
				m.stats.Decoded++
			}
			continue
		}
		m.stats.UnplannedLoss++
		switch f {
		case IFrame:
			m.stats.LostI++
			m.ruined = true
		case PFrame:
			// A lost P breaks prediction until the next I too.
			m.ruined = true
		}
	}
	m.pending = m.pending[:0]
}

// Run implements task.Body.
func (m *MPEG) Run(ctx task.RunContext) task.RunResult {
	if ctx.NewPeriod {
		m.closePeriod()
		m.startPeriod(ctx.Level)
	}
	need := ticks.Ticks(len(m.pending))*MPEGFrameCost - m.doneCost
	if need <= 0 {
		return task.RunResult{Op: task.OpYield, Completed: true}
	}
	if need <= ctx.Span {
		m.doneCost += need
		return task.RunResult{Used: need, Op: task.OpYield, Completed: true}
	}
	m.doneCost += ctx.Span
	return task.RunResult{Used: ctx.Span, Op: task.OpRanOut}
}

// Flush finalises stats at the end of a run. Frames decoded in the
// in-flight period are credited; frames it had no chance to finish
// (the horizon cut the period short) are not counted as losses.
func (m *MPEG) Flush() {
	decoded := int(m.doneCost / MPEGFrameCost)
	if decoded > len(m.pending) {
		decoded = len(m.pending)
	}
	for _, f := range m.pending[:decoded] {
		if f == IFrame {
			m.ruined = false
		}
		if m.ruined {
			m.stats.RuinedFrames++
		} else {
			m.stats.Decoded++
		}
	}
	m.pending = m.pending[:0]
	m.doneCost = 0
}

// Package trace captures scheduling activity and renders the ASCII
// equivalents of the paper's schedule figures: the EDF timeline of
// Figure 3, the granted-versus-overtime view of Figure 4, and the
// per-period allocation staircase of Figure 5.
//
// A Recorder implements sched.Observer; attach it through
// core.Config.Observer (or sched.Config.Observer directly).
package trace

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/rm"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/ticks"
)

// The four record types below are both what the Recorder keeps and
// what Export serializes; kinds encode by their String names.

// Slice is one contiguous stretch of CPU given to a task. Its name is
// exported once per task, in Export.Tasks.
type Slice struct {
	ID    task.ID            `json:"id"`
	Name  string             `json:"-"`
	From  ticks.Ticks        `json:"from"`
	To    ticks.Ticks        `json:"to"`
	Kind  sched.DispatchKind `json:"kind"`
	Level int                `json:"level"`
}

// PeriodStart is one period boundary with its grant.
type PeriodStart struct {
	ID       task.ID     `json:"id"`
	Start    ticks.Ticks `json:"start"`
	Deadline ticks.Ticks `json:"deadline"`
	Level    int         `json:"level"`
	CPU      ticks.Ticks `json:"cpu"`
}

// Miss is one audited deadline miss.
type Miss struct {
	ID          task.ID     `json:"id"`
	Deadline    ticks.Ticks `json:"deadline"`
	Undelivered ticks.Ticks `json:"undelivered"`
}

// Switch is one context switch with its simulated cost.
type Switch struct {
	Kind sim.SwitchKind `json:"kind"`
	Cost ticks.Ticks    `json:"cost"`
}

// Recorder accumulates scheduling events.
type Recorder struct {
	Slices   []Slice
	Periods  []PeriodStart
	Misses   []Miss
	Switches []Switch

	names map[task.ID]string

	// fallbackNames caches the synthesized "task<N>" strings NameOf
	// returns for tasks that never dispatched under a name, so render
	// loops that call NameOf per cell do not re-format per call.
	fallbackNames map[task.ID]string
}

// Reserve pre-sizes the event stores for a run expected to record
// about hint dispatch slices. Period starts and context switches
// arrive at a rate proportional to slices (every period boundary is at
// most a few slices, every slice at most one switch), so one hint
// sizes all three. Misses stay unsized: a healthy run records none.
// Call before the run; calling on a Recorder that already holds events
// only ever grows capacity.
func (r *Recorder) Reserve(hint int) {
	if hint <= 0 {
		return
	}
	r.Slices = slices.Grow(r.Slices, hint)
	r.Periods = slices.Grow(r.Periods, hint/2+1)
	r.Switches = slices.Grow(r.Switches, hint)
}

// HintForHorizon estimates the Reserve hint for a run of the given
// simulated duration: the paper's workloads dispatch a few slices per
// millisecond (MPEG at 33 ms periods, audio at 23 ms, plus
// preemptions), so 4/ms is a comfortable over-estimate that keeps the
// append path from re-growing mid-run without holding absurd memory
// for week-long horizons (the cap).
func HintForHorizon(horizon ticks.Ticks) int {
	const perMS = 4
	const maxHint = 1 << 20
	h := int64(horizon) / int64(ticks.PerMillisecond) * perMS
	if h > maxHint {
		return maxHint
	}
	return int(h)
}

// New returns an empty Recorder.
func New() *Recorder {
	return &Recorder{names: make(map[task.ID]string)}
}

var _ sched.Observer = (*Recorder)(nil)

// OnDispatch implements sched.Observer.
func (r *Recorder) OnDispatch(id task.ID, name string, from, to ticks.Ticks, kind sched.DispatchKind, level int) {
	r.Slices = append(r.Slices, Slice{ID: id, Name: name, From: from, To: to, Kind: kind, Level: level})
	if name != "" && id != task.NoID {
		r.names[id] = name
	}
}

// OnPeriodStart implements sched.Observer.
func (r *Recorder) OnPeriodStart(id task.ID, start, deadline ticks.Ticks, level int, cpu ticks.Ticks) {
	r.Periods = append(r.Periods, PeriodStart{ID: id, Start: start, Deadline: deadline, Level: level, CPU: cpu})
}

// OnDeadlineMiss implements sched.Observer.
func (r *Recorder) OnDeadlineMiss(id task.ID, deadline, undelivered ticks.Ticks) {
	r.Misses = append(r.Misses, Miss{ID: id, Deadline: deadline, Undelivered: undelivered})
}

// OnSwitch implements sched.Observer.
func (r *Recorder) OnSwitch(kind sim.SwitchKind, cost ticks.Ticks) {
	r.Switches = append(r.Switches, Switch{Kind: kind, Cost: cost})
}

// OnGrantApplied implements sched.Observer.
func (r *Recorder) OnGrantApplied(id task.ID, g rm.Grant) {}

// OnBlock implements sched.Observer. Blocking is not serialized: the
// JSON trace format predates the event and stays byte-stable.
func (r *Recorder) OnBlock(id task.ID, at ticks.Ticks) {}

// NameOf reports the recorded name for a task.
func (r *Recorder) NameOf(id task.ID) string {
	if n, ok := r.names[id]; ok {
		return n
	}
	if n, ok := r.fallbackNames[id]; ok {
		return n
	}
	n := fmt.Sprintf("task%d", id)
	if r.fallbackNames == nil {
		r.fallbackNames = make(map[task.ID]string)
	}
	r.fallbackNames[id] = n
	return n
}

// TaskIDs reports every task that appeared in the trace, ascending.
func (r *Recorder) TaskIDs() []task.ID {
	seen := make(map[task.ID]bool)
	for _, s := range r.Slices {
		if s.ID != task.NoID {
			seen[s.ID] = true
		}
	}
	out := make([]task.ID, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// MissCount reports the total audited misses.
func (r *Recorder) MissCount() int { return len(r.Misses) }

// Gantt renders the schedule between from and to as one row per task
// plus an idle row, with cols columns. Granted time renders as '#'
// (the paper's darker lines), overtime as '+' (lighter), grace as
// 'g', sporadic as 's', idle as '.'. When a cell spans a mix, the
// highest-priority mark wins (granted > grace > sporadic > overtime >
// idle).
func (r *Recorder) Gantt(from, to ticks.Ticks, cols int) string {
	if to <= from || cols <= 0 {
		return ""
	}
	ids := r.TaskIDs()
	rows := make(map[task.ID][]byte, len(ids)+1)
	for _, id := range ids {
		rows[id] = []byte(strings.Repeat(" ", cols))
	}
	idle := []byte(strings.Repeat(" ", cols))

	span := to - from
	mark := func(row []byte, s Slice, ch byte) {
		lo := int(int64(s.From-from) * int64(cols) / int64(span))
		hi := int(int64(s.To-from) * int64(cols) / int64(span))
		if hi == lo {
			hi = lo + 1
		}
		for i := lo; i < hi && i < cols; i++ {
			if i < 0 {
				continue
			}
			if precedence(ch) > precedence(row[i]) {
				row[i] = ch
			}
		}
	}

	for _, s := range r.Slices {
		if s.To <= from || s.From >= to {
			continue
		}
		c := s
		if c.From < from {
			c.From = from
		}
		if c.To > to {
			c.To = to
		}
		switch s.Kind {
		case sched.DispatchIdle:
			mark(idle, c, '.')
		case sched.DispatchGranted:
			mark(rows[s.ID], c, '#')
		case sched.DispatchGrace:
			mark(rows[s.ID], c, 'g')
		case sched.DispatchSporadic:
			mark(rows[s.ID], c, 's')
		case sched.DispatchOvertime:
			mark(rows[s.ID], c, '+')
		}
	}

	width := 0
	for _, id := range ids {
		if n := len(r.NameOf(id)); n > width {
			width = n
		}
	}
	if width < 4 {
		width = 4
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%*s  %s\n", width, "", timeAxis(from, to, cols))
	for _, id := range ids {
		fmt.Fprintf(&b, "%*s |%s|\n", width, r.NameOf(id), rows[id])
	}
	fmt.Fprintf(&b, "%*s |%s|\n", width, "idle", idle)
	fmt.Fprintf(&b, "%*s  legend: #=granted +=overtime g=grace s=sporadic .=idle\n", width, "")
	return b.String()
}

func precedence(ch byte) int {
	switch ch {
	case '#':
		return 5
	case 'g':
		return 4
	case 's':
		return 3
	case '+':
		return 2
	case '.':
		return 1
	default:
		return 0
	}
}

func timeAxis(from, to ticks.Ticks, cols int) string {
	left := fmt.Sprintf("%v", from)
	right := fmt.Sprintf("%v", to)
	pad := cols - len(left) - len(right)
	if pad < 1 {
		pad = 1
	}
	return " " + left + strings.Repeat(" ", pad) + right
}

// AllocationSeries reports, per period start of one task, the CPU
// granted for that period — the series Figure 5 plots as each
// thread's allocation dropping 9 -> 4 -> 3 -> 2 ms as threads are
// admitted.
func (r *Recorder) AllocationSeries(id task.ID) []PeriodStart {
	var out []PeriodStart
	for _, p := range r.Periods {
		if p.ID == id {
			out = append(out, p)
		}
	}
	return out
}

// AllocationTable renders the Figure 5 staircase as text: one row per
// period start, one column per task, cells in milliseconds.
func (r *Recorder) AllocationTable(idsInOrder []task.ID, upto ticks.Ticks) string {
	var b strings.Builder
	b.WriteString("    t(ms)")
	for _, id := range idsInOrder {
		fmt.Fprintf(&b, " %10s", r.NameOf(id))
	}
	b.WriteString("\n")
	// Collect the grant in force per task per time bucket of its own
	// period starts; print at each distinct start time.
	type key struct {
		at ticks.Ticks
		id task.ID
	}
	grants := make(map[key]ticks.Ticks)
	var times []ticks.Ticks
	seen := make(map[ticks.Ticks]bool)
	for _, p := range r.Periods {
		if p.Start > upto {
			continue
		}
		grants[key{p.Start, p.ID}] = p.CPU
		if !seen[p.Start] {
			seen[p.Start] = true
			times = append(times, p.Start)
		}
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	current := make(map[task.ID]ticks.Ticks)
	for _, at := range times {
		changed := false
		for _, id := range idsInOrder {
			if cpu, ok := grants[key{at, id}]; ok {
				if current[id] != cpu {
					changed = true
				}
				current[id] = cpu
			}
		}
		if !changed {
			continue
		}
		fmt.Fprintf(&b, "%9.1f", at.MillisecondsF())
		for _, id := range idsInOrder {
			if cpu, ok := current[id]; ok {
				fmt.Fprintf(&b, " %10.1f", cpu.MillisecondsF())
			} else {
				fmt.Fprintf(&b, " %10s", "-")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// StaircaseChart renders one task's per-period allocation as an
// ASCII chart over time — the form Figure 5 actually takes in the
// paper (allocation in ms on the y-axis, time on the x-axis).
func (r *Recorder) StaircaseChart(id task.ID, upto ticks.Ticks, width int) string {
	series := r.AllocationSeries(id)
	if len(series) == 0 || width <= 0 {
		return ""
	}
	var maxCPU ticks.Ticks
	for _, p := range series {
		if p.Start <= upto && p.CPU > maxCPU {
			maxCPU = p.CPU
		}
	}
	if maxCPU == 0 {
		return ""
	}
	// One row per half-millisecond of allocation, top-down.
	rows := int(maxCPU.MillisecondsF()*2) + 1
	if rows > 24 {
		rows = 24
	}
	allocAt := func(t ticks.Ticks) ticks.Ticks {
		var cpu ticks.Ticks
		for _, p := range series {
			if p.Start <= t {
				cpu = p.CPU
			} else {
				break
			}
		}
		return cpu
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s allocation (ms) over %v:\n", r.NameOf(id), upto)
	for row := rows; row >= 1; row-- {
		level := float64(row) * maxCPU.MillisecondsF() / float64(rows)
		fmt.Fprintf(&b, "%5.1f |", level)
		for col := 0; col < width; col++ {
			t := ticks.Ticks(int64(upto) * int64(col) / int64(width))
			if allocAt(t).MillisecondsF() >= level-1e-9 {
				b.WriteByte('#')
			} else {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "      +%s\n", strings.Repeat("-", width))
	fmt.Fprintf(&b, "       0%sms\n", strings.Repeat(" ", width-6)+fmt.Sprintf("%5.0f", upto.MillisecondsF()))
	return b.String()
}

// SwitchSummary tallies switch counts and costs by kind.
func (r *Recorder) SwitchSummary() (vol, invol int, volTicks, involTicks ticks.Ticks) {
	for _, s := range r.Switches {
		if s.Kind == sim.Voluntary {
			vol++
			volTicks += s.Cost
		} else {
			invol++
			involTicks += s.Cost
		}
	}
	return
}

package trace

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/task"
	"repro/internal/ticks"
)

// Report is the offline analysis of an exported run: the numbers an
// experimenter wants from a trace without re-running the simulator.
type Report struct {
	Tasks []TaskReport
	// Span is the trace extent (latest slice or period edge).
	Span ticks.Ticks
	// Misses is the total audited deadline misses.
	Misses int
}

// TaskReport is one task's analysis. Its totals are counted as
// sched.TaskStats counts them: granted is DispatchGranted plus
// DispatchGrace time, overtime is DispatchOvertime time, and
// DispatchSporadic slices — nested inside their server's or assigner's
// own slice — are not counted again.
type TaskReport struct {
	ID   task.ID
	Name string

	Periods       int
	GrantedTicks  ticks.Ticks
	OvertimeTicks ticks.Ticks
	// Preemptions counts a period's granted or grace slices, beyond its
	// first, that resume after another task's or idle's slice — not a
	// split by a kernel event, nor the task's own grace slice.
	Preemptions int

	// WorstLatency is the largest gap between consecutive
	// granted-work completions — bounded by 2·period − 2·CPU (§4.2)
	// for a task that consumes its grant every period. LatencyP50 and
	// LatencyP99 are the gaps' nearest-rank percentiles.
	WorstLatency ticks.Ticks
	LatencyP50   ticks.Ticks
	LatencyP99   ticks.Ticks

	// Levels seen, ascending (which QOS levels the task ran at).
	Levels []int
}

// taskWalk is one task's position in Analyze's pass over the slices.
type taskWalk struct {
	starts   []ticks.Ticks // period starts, in record order
	period   int           // the period the latest granted slice fell in
	inPeriod int           // granted or grace slices seen in it
	ends     []ticks.Ticks // per period, its last granted or grace end (0: none)
}

// Analyze computes a Report from an Export.
func Analyze(e Export) Report {
	rep := Report{Misses: len(e.Misses)}
	for _, t := range e.Tasks {
		rep.Tasks = append(rep.Tasks, TaskReport{ID: t.ID, Name: t.Name})
	}
	slices.SortFunc(rep.Tasks, func(a, b TaskReport) int { return cmp.Compare(a.ID, b.ID) })
	index := make(map[task.ID]int, len(rep.Tasks))
	for i, t := range rep.Tasks {
		index[t.ID] = i
	}
	walks := make([]taskWalk, len(rep.Tasks))

	for _, p := range e.Periods {
		rep.Span = max(rep.Span, p.Deadline)
		i, ok := index[p.ID]
		if !ok {
			continue
		}
		tr := &rep.Tasks[i]
		tr.Periods++
		if !slices.Contains(tr.Levels, p.Level) {
			tr.Levels = append(tr.Levels, p.Level)
		}
		walks[i].starts = append(walks[i].starts, p.Start)
	}

	for k, s := range e.Slices {
		i, ok := index[s.ID]
		if !ok {
			continue
		}
		tr, w := &rep.Tasks[i], &walks[i]
		rep.Span = max(rep.Span, s.To)
		switch s.Kind {
		case sched.DispatchOvertime:
			tr.OvertimeTicks += s.To - s.From
		case sched.DispatchGranted, sched.DispatchGrace:
			tr.GrantedTicks += s.To - s.From
			for w.period+1 < len(w.starts) && w.starts[w.period+1] <= s.From {
				w.period++
				w.inPeriod = 0
			}
			w.inPeriod++
			if w.inPeriod > 1 && e.Slices[k-1].ID != s.ID {
				tr.Preemptions++
			}
			for len(w.ends) <= w.period {
				w.ends = append(w.ends, 0)
			}
			w.ends[w.period] = s.To
		}
	}

	for i, w := range walks {
		tr := &rep.Tasks[i]
		slices.Sort(tr.Levels)
		var gaps metrics.Summary
		prev := ticks.Ticks(-1)
		for _, end := range w.ends {
			if end == 0 {
				continue
			}
			if prev >= 0 {
				gaps.Add(float64(end - prev))
			}
			prev = end
		}
		// Each statistic is one of the samples, an integer tick count
		// well inside float64's exact range, so int64 takes it back
		// exactly.
		tr.WorstLatency = ticks.Ticks(int64(gaps.Max()))
		tr.LatencyP50 = ticks.Ticks(int64(gaps.Percentile(50)))
		tr.LatencyP99 = ticks.Ticks(int64(gaps.Percentile(99)))
	}
	return rep
}

// String renders the report as a table.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace span %v, %d deadline misses\n", r.Span, r.Misses)
	fmt.Fprintf(&b, "%-12s %8s %10s %10s %8s %10s %10s %10s %s\n",
		"task", "periods", "granted", "overtime", "preempt", "lat-p50", "lat-p99", "lat-max", "levels")
	for _, t := range r.Tasks {
		fmt.Fprintf(&b, "%-12s %8d %10v %10v %8d %10v %10v %10v %v\n",
			t.Name, t.Periods, t.GrantedTicks, t.OvertimeTicks,
			t.Preemptions, t.LatencyP50, t.LatencyP99, t.WorstLatency, t.Levels)
	}
	return b.String()
}

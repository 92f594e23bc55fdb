package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one harness-side interval around a call into a layer. The
// simulator is not instrumented here: every span is opened and closed
// in this package, around public entry points (choosing-metrics §4).
type span struct {
	Name    string `json:"name"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 = root
	Run     int    `json:"run"`    // shared by every span of one workload run; 0 = not inside a run
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the workload ends. A nil tracer
// is tracing off: every method is a no-op, so the timed pass and the
// traced pass run the same harness code.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent, run int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		Name: name, ID: len(t.spans) + 1, Parent: parent, Run: run,
		StartNS: time.Since(t.t0).Nanoseconds(),
	})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].EndNS = time.Since(t.t0).Nanoseconds()
}

// complete records an already-measured interval.
func (t *tracer) complete(name string, parent, run int, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{
		Name: name, ID: len(t.spans) + 1, Parent: parent, Run: run,
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds(),
	})
}

// layerTime is one span name's totals.
type layerTime struct {
	total time.Duration // sum of durations
	self  time.Duration // total minus the part direct children cover
}

// byName folds the spans under root into per-name totals. Self time
// is a span's duration minus its direct children's durations.
func (t *tracer) byName(root int) map[string]layerTime {
	out := map[string]layerTime{}
	child := make([]int64, len(t.spans)+1)
	under := make([]bool, len(t.spans)+1) // parents are recorded before children
	under[root] = true
	for _, s := range t.spans {
		child[s.Parent] += s.EndNS - s.StartNS
		under[s.ID] = under[s.ID] || under[s.Parent] && s.Parent != 0
	}
	for _, s := range t.spans {
		if !under[s.ID] {
			continue
		}
		lt := out[s.Name]
		lt.total += time.Duration(s.EndNS - s.StartNS)
		lt.self += time.Duration(s.EndNS - s.StartNS - child[s.ID])
		out[s.Name] = lt
	}
	return out
}

// write stores the spans as JSON under dir.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	data, err := json.Marshal(t.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

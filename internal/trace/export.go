package trace

import (
	"encoding/json"
	"io"

	"repro/internal/task"
)

// Export is the JSON shape of a recorded run, for analysis outside
// the simulator (plotting Figure 5 staircases, computing latency
// distributions, diffing runs). All times are 27 MHz ticks.
type Export struct {
	Tasks    []ExportTask  `json:"tasks"`
	Slices   []Slice       `json:"slices"`
	Periods  []PeriodStart `json:"periods"`
	Misses   []Miss        `json:"misses,omitempty"`
	Switches []Switch      `json:"switches,omitempty"`
	Summary  ExportSummary `json:"summary"`
}

// ExportTask names a task ID.
type ExportTask struct {
	ID   task.ID `json:"id"`
	Name string  `json:"name"`
}

// ExportSummary aggregates the run.
type ExportSummary struct {
	MissCount     int   `json:"missCount"`
	VolSwitches   int   `json:"volSwitches"`
	InvolSwitches int   `json:"involSwitches"`
	SwitchTicks   int64 `json:"switchTicks"`
}

// Export builds the JSON-ready view of the recording. It shares the
// Recorder's records rather than copying them.
func (r *Recorder) Export() Export {
	var tasks []ExportTask
	for _, id := range r.TaskIDs() {
		tasks = append(tasks, ExportTask{ID: id, Name: r.NameOf(id)})
	}
	vol, invol, volT, involT := r.SwitchSummary()
	return Export{
		Tasks:    tasks,
		Slices:   shared(r.Slices),
		Periods:  shared(r.Periods),
		Misses:   shared(r.Misses),
		Switches: shared(r.Switches),
		Summary: ExportSummary{
			MissCount:     len(r.Misses),
			VolSwitches:   vol,
			InvolSwitches: invol,
			SwitchTicks:   int64(volT + involT),
		},
	}
}

// shared clips a record store to its length, so appending to an
// Export never writes into the Recorder, and is nil when the store is
// empty (a reserved Recorder's stores are not), as the JSON has always
// carried it.
func shared[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return s[:len(s):len(s)]
}

// WriteJSON streams the recording as indented JSON.
func (r *Recorder) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Export())
}

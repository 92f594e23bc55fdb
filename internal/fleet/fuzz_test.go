package fleet

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/telemetry"
	"repro/internal/ticks"
)

// A schedule tape is a 4-byte header — node count, placement policy,
// governor interval, seed — followed by 6-byte records, each one batch
// of submissions, one fault.NodeCrash spec or one fault.NodeStorm spec.
// Every byte is reduced into its field's valid range, so every tape is a
// schedule; a trailing partial record is ignored.
const (
	fuzzHorizon = 300 * ms
	fuzzRecords = 40 // records decoded per tape: bounds one execution
)

// lifetimeBody exits after life periods; life 0 never exits.
func lifetimeBody(life int) BodyFunc {
	return func() task.Body {
		periods := 0
		return task.BodyFunc(func(ctx task.RunContext) task.RunResult {
			if ctx.NewPeriod {
				if periods++; life > 0 && periods > life {
					return task.RunResult{Op: task.OpExit}
				}
			}
			return task.RunResult{Used: ctx.Span, Op: task.OpYield, Completed: true}
		})
	}
}

// fleetFromTape builds the cluster a tape describes and submits and arms
// everything on it. Workers is the one thing the tape does not decide.
func fleetFromTape(t *testing.T, tape []byte, workers int) *Cluster {
	var hdr [4]byte
	copy(hdr[:], tape)
	nodes := 2 + int(hdr[0])%7
	costs := sim.PaperSwitchCosts()
	c, err := New(Config{
		Nodes:                   nodes,
		Seed:                    uint64(hdr[3]),
		Workers:                 workers,
		Placement:               Placement(hdr[1] % 3),
		SwitchCosts:             &costs,
		InterruptReservePercent: 2,
		GovernorInterval:        ticks.Ticks(hdr[2]%4) * 5 * ms, // off, 5, 10, 15 ms
		Invariants:              true,
		SpanLog:                 true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var injs []fault.NodeInjector
	for i := 0; i < fuzzRecords && 4+6*(i+1) <= len(tape); i++ {
		r := tape[4+6*i:]
		a, b, c4, d, e := int(r[1]), int(r[2]), int(r[3]), int(r[4]), int(r[5])
		switch r[0] % 4 {
		case 2:
			injs = append(injs, fault.NodeCrash{
				Node:     a%(nodes+1) - 1, // -1: a roaming target
				At:       fuzzHorizon * ticks.Ticks(b) / 256,
				Cycles:   1 + c4%4,
				MeanUp:   ticks.Ticks(1+d%16) * 10 * ms,
				MeanDown: ticks.Ticks(1+e%16) * 5 * ms,
			})
		case 3:
			first := a % nodes
			injs = append(injs, fault.NodeStorm{
				Storm: fault.Storm{
					At:      fuzzHorizon * ticks.Ticks(c4) / 256,
					Bursts:  1 + d%6,
					Every:   ticks.Ticks(2+d%14) * ms,
					Count:   1 + e%12,
					Service: 400 * ticks.PerMicrosecond,
				},
				FirstNode: first,
				Nodes:     1 + b%(nodes-first),
				Stagger:   ticks.Ticks(e%4) * ms,
			})
		default:
			// Arrivals up to 1.27 horizons out (some never arrive), four
			// periods, top levels of 5..60 % over a half-size fallback,
			// lifetimes of 0 (steady) to 31 periods, 1..4 copies.
			top := 5 + c4%56
			for k := 0; k <= e%4; k++ {
				if err := c.Submit(Admission{
					At:   fuzzHorizon * ticks.Ticks(a) / 200,
					Name: fmt.Sprintf("fz%02d-%d", i, k),
					List: task.UniformLevels([]ticks.Ticks{5 * ms, 10 * ms, 20 * ms, 40 * ms}[b%4], "Fuzz", top, (top+1)/2),
					Body: lifetimeBody(d % 32),
				}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	var armLog telemetry.EventLog
	if err := fault.ArmFleet(c, uint64(hdr[3]), &armLog, injs...); err != nil {
		t.Fatal(err)
	}
	return c
}

// checkLedger holds a finished cluster to the conservation contract,
// counting from the admission records and the nodes' held lists — not
// through auditConservation, which it also requires to have been silent.
func checkLedger(t *testing.T, c *Cluster, rep *Report) {
	if n := rep.Log.CountKind("invariant.fleet-conservation"); n != 0 {
		t.Errorf("%d invariant.fleet-conservation event(s):\n%s", n, rep.Log.String())
	}
	if rep.LostToCrash != rep.Recovered+rep.LostRecorded {
		t.Errorf("lost to crash %d != recovered %d + lost-recorded %d", rep.LostToCrash, rep.Recovered, rep.LostRecorded)
	}
	var byState [admLost + 1]int64
	var lost, recovered int64
	for _, a := range c.recs.a {
		byState[a.state]++
		lost += int64(a.timesLost)
		recovered += int64(a.timesRecovered)
		if a.recovering {
			t.Errorf("%s ended the run still in recovery", a.Name)
		}
		if (a.state == admPlaced) != (a.id != task.NoID) {
			t.Errorf("%s: state %d as task %d", a.Name, a.state, a.id)
		}
	}
	// Pending at the end means never arrived: everything that entered
	// the pipeline is placed or has a recorded terminal outcome.
	if byState[admPending] != rep.Unarrived || rep.Arrivals+rep.Unarrived != int64(len(c.recs.a)) {
		t.Errorf("%d pending of %d admissions, report says %d arrived, %d unarrived",
			byState[admPending], len(c.recs.a), rep.Arrivals, rep.Unarrived)
	}
	if byState[admRejected] != rep.Rejected || byState[admLost] != rep.LostRecorded ||
		lost != rep.LostToCrash || recovered != rep.Recovered {
		t.Errorf("records say rejected %d, lost-recorded %d, lost %d, recovered %d; report:\n%s",
			byState[admRejected], byState[admLost], lost, recovered, rep.Summary())
	}
	var held int64
	for _, n := range c.nodes {
		for _, a := range n.placed {
			if held++; a.state != admPlaced || a.node != n.id {
				t.Errorf("node %d holds %s, whose record says state %d on node %d", n.id, a.Name, a.state, a.node)
			}
		}
	}
	if held != byState[admPlaced] {
		t.Errorf("nodes hold %d guarantees, %d records are placed", held, byState[admPlaced])
	}
}

// FuzzFleetSchedule runs a tape's schedule at 1, 2 and 3 cluster
// workers: no run may panic or break the conservation ledger, and the
// report, the merged event log and the stitched manifest must not
// depend on the worker count.
func FuzzFleetSchedule(f *testing.F) {
	// A fleet-crash-shaped schedule: 8 least-loaded nodes under 10 ms
	// governors, staggered arrivals of mixed lifetimes, a roaming crash
	// cycle, one pinned crash and a storm front over four nodes.
	crash := []byte{6, 1, 2, 7}
	for i := 0; i < 24; i++ {
		crash = append(crash, 0, byte(6*i), byte(i), byte(17*i), byte(5*i), byte(i))
	}
	crash = append(crash, 2, 0, 30, 2, 5, 4, 2, 3, 90, 0, 3, 2, 3, 0, 3, 50, 3, 9)
	f.Add(crash)
	// Two full nodes; node 0 crashes for longer than the retry budget,
	// so its three guarantees end lost-recorded.
	f.Add([]byte{0, 0, 0, 1, 0, 0, 1, 55, 0, 3, 0, 0, 1, 55, 0, 1, 2, 1, 10, 0, 0, 15})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, tape []byte) {
		var summary, log string
		var manifest []byte
		for workers := 1; workers <= 3; workers++ {
			c := fleetFromTape(t, tape, workers)
			rep := c.Run(fuzzHorizon)
			checkLedger(t, c, rep)
			m, err := c.Manifest()
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := m.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			if workers == 1 {
				summary, log, manifest = rep.Summary(), rep.Log.String(), buf.Bytes()
				continue
			}
			if got := rep.Summary(); got != summary {
				t.Errorf("summary at %d workers\n %s\nat 1 worker\n %s", workers, got, summary)
			}
			if rep.Log.String() != log {
				t.Errorf("event log at %d workers differs from 1 worker's", workers)
			}
			if !bytes.Equal(buf.Bytes(), manifest) {
				t.Errorf("stitched manifest at %d workers differs from 1 worker's", workers)
			}
		}
	})
}

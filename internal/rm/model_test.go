package rm

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"slices"
	"testing"

	"repro/internal/policy"
	"repro/internal/task"
	"repro/internal/ticks"
)

// The Manager keeps incremental state — running sums, an ID-ordered
// task table, scratch buffers, a committed grant set repaired by
// merge — and this file holds it to a reference that keeps none: a
// map of admitted lists and states, re-summed from scratch after every
// operation. One byte-tape interpreter drives both users: the fuzzer
// (FuzzManagerModel) and a seeded generator whose printed grant sets
// are pinned to a digest recorded before GrantSet stopped being a map
// (TestGrantTranscriptMatchesParent).

// tapeLists are the resource lists a tape can admit or change to: the
// paper's shapes, Data Streamer demands, an FFU user that can shed the
// unit and one that cannot.
var tapeLists = []task.ResourceList{
	task.UniformLevels(10*ticks.PerMillisecond, "A", 40, 20, 10),
	task.UniformLevels(10*ticks.PerMillisecond, "B", 12, 8),
	task.UniformLevels(30*ticks.PerMillisecond, "C", 33, 25, 17, 9),
	task.SingleLevel(270_000, 27_000, "D"),
	task.SingleLevel(270_000, 13_500, "E"),
	mpegTask().List,
	streamList(30, 20, 80, 60),
	streamList(15, 5, 40, 10),
	{
		{Period: 270_000, CPU: 67_500, Fn: "ScaleHW", NeedsFFU: true},
		{Period: 270_000, CPU: 40_500, Fn: "ScaleSW"},
		{Period: 270_000, CPU: 13_500, Fn: "ScaleSkip"},
	},
	{{Period: 270_000, CPU: 21_600, Fn: "ScaleOnly", NeedsFFU: true}},
	task.UniformLevels(20*ticks.PerMillisecond, "G", 90, 50, 3),
}

// Six names for up to a machine-full of tasks: tasks sharing a name
// share a Policy Box member, so member lists carry duplicates.
var tapeNames = []string{"n0", "n1", "n2", "n3", "n4", "n5"}

// refTask is the reference model's whole record of an admitted task.
type refTask struct {
	name      string
	list      task.ResourceList
	quiescent bool
}

// harness runs one tape against a Manager and the reference model.
type harness struct {
	m        *Manager
	ref      map[task.ID]*refTask
	issued   []task.ID // every ID ever admitted, removed ones included
	avail    ticks.Frac
	streamer int64 // capacity in MB/s; 0 = unmodelled
	pressure ticks.Frac

	// signals are the Hooks calls of the operation in flight, in call
	// order: "D<id>:<level>" and "R<id>".
	signals   []string
	decreased []task.ID
}

func (h *harness) GrantDecreased(id task.ID, g Grant) {
	h.signals = append(h.signals, fmt.Sprintf("D%d:%d", id, g.Level))
	h.decreased = append(h.decreased, id)
}
func (h *harness) GrantRemoved(id task.ID) {
	h.signals = append(h.signals, fmt.Sprintf("R%d", id))
}

// newHarness reads the tape's configuration byte: interrupt reserve,
// Data Streamer capacity, and whether the Box starts with stored
// policies.
func newHarness(cfg byte) *harness {
	h := &harness{ref: map[task.ID]*refTask{}}
	var reserve int64
	if cfg&1 != 0 {
		reserve = 4
	}
	if cfg&2 != 0 {
		h.streamer = 100
	}
	box := policy.NewBox()
	if cfg&4 != 0 {
		policy.Table5(box, [4]string{tapeNames[0], tapeNames[1], tapeNames[2], tapeNames[3]})
	}
	h.avail = ticks.FracOne.Sub(ticks.FracPercent(reserve))
	h.m = New(Config{
		Box:                     box,
		InterruptReservePercent: reserve,
		Streamer:                Capacity{StreamerMBps: h.streamer},
	})
	h.m.SetHooks(h)
	return h
}

// refIDs is the reference's admitted set in ascending order.
func (h *harness) refIDs() []task.ID {
	ids := make([]task.ID, 0, len(h.ref))
	for id := range h.ref {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// refSums re-derives the running demands from the reference lists,
// optionally leaving one task out (a list change re-tests without the
// list it replaces): min sums the minimum entries of every admitted
// task, max the maximum entries of the non-quiescent ones.
func (h *harness) refSums(except task.ID) (min, max demand) {
	min, max = demand{cpu: ticks.FracZero}, demand{cpu: ticks.FracZero}
	add := func(d *demand, e task.Entry) {
		d.cpu = d.cpu.Add(e.Frac())
		d.mbps += e.StreamerMBps
		if e.NeedsFFU {
			d.ffu++
		}
	}
	for _, id := range h.refIDs() {
		if r := h.ref[id]; id != except {
			add(&min, r.list.Min())
			if !r.quiescent {
				add(&max, r.list.Max())
			}
		}
	}
	return
}

// wantVerdict is the reference admission test for adding list to the
// admitted set less except: the sentinel the Manager must deny with,
// or nil.
func (h *harness) wantVerdict(list task.ResourceList, except task.ID) error {
	min, _ := h.refSums(except)
	switch {
	case !min.cpu.Add(list.MinFrac()).LessOrEqual(h.avail):
		return ErrAdmissionDenied
	case h.streamer > 0 && min.mbps+list.Min().StreamerMBps > h.streamer:
		return ErrStreamerDenied
	case list.MinNeedsFFU() && min.ffu > 0:
		return ErrFFUDenied
	}
	return nil
}

// pick maps a tape byte onto an issued ID; with nothing issued, or one
// time in sixteen, it names an ID the Manager never handed out.
func (h *harness) pick(b byte) task.ID {
	if len(h.issued) == 0 || b&0x0f == 0x0f {
		return task.ID(1000 + int(b))
	}
	return h.issued[int(b)%len(h.issued)]
}

// step decodes and applies one three-byte operation, returning a
// one-line description of what was asked and how the Manager answered.
func (h *harness) step(t testing.TB, op, p1, p2 byte) string {
	h.signals, h.decreased = h.signals[:0], h.decreased[:0]
	unknown := func(id task.ID, err error) bool {
		if _, ok := h.ref[id]; ok {
			return false
		}
		if !errors.Is(err, ErrUnknownTask) {
			t.Fatalf("operation on unknown task %d: err = %v, want ErrUnknownTask", id, err)
		}
		return true
	}
	switch op % 16 {
	case 0, 1, 2, 3, 4:
		list := tapeLists[int(p1)%len(tapeLists)]
		name := tapeNames[int(p2)%len(tapeNames)]
		want := h.wantVerdict(list, task.NoID)
		id, err := h.m.RequestAdmittance(&task.Task{
			Name: name, List: list, Body: yieldBody, StartQuiescent: p2&0x80 != 0,
		})
		if !errors.Is(err, want) || (want == nil && err != nil) {
			t.Fatalf("admit %s: err = %v, reference says %v", name, err, want)
		}
		if err == nil {
			if n := len(h.issued); n > 0 && id <= h.issued[n-1] {
				t.Fatalf("admit handed out ID %d after %d", id, h.issued[n-1])
			}
			h.issued = append(h.issued, id)
			h.ref[id] = &refTask{name: name, list: list, quiescent: p2&0x80 != 0}
		}
		return fmt.Sprintf("admit %s list %d -> %d %v", name, int(p1)%len(tapeLists), id, err == nil)
	case 5, 6:
		id := h.pick(p1)
		err := h.m.Remove(id)
		if !unknown(id, err) {
			if err != nil {
				t.Fatalf("remove %d: %v", id, err)
			}
			delete(h.ref, id)
		}
		return fmt.Sprintf("remove %d %v", id, err == nil)
	case 7:
		id := h.pick(p1)
		list := tapeLists[int(p2)%len(tapeLists)]
		err := h.m.ChangeResourceList(id, list)
		if !unknown(id, err) {
			want := h.wantVerdict(list, id)
			if !errors.Is(err, want) || (want == nil && err != nil) {
				t.Fatalf("change-list %d: err = %v, reference says %v", id, err, want)
			}
			if err == nil {
				h.ref[id].list = list
			}
		}
		return fmt.Sprintf("change-list %d list %d %v", id, int(p2)%len(tapeLists), err == nil)
	case 8, 9, 10, 11:
		id := h.pick(p1)
		quiesce := op%16 < 10
		var err error
		if quiesce {
			err = h.m.SetQuiescent(id)
		} else {
			err = h.m.Wake(id)
		}
		if !unknown(id, err) {
			if err != nil {
				t.Fatalf("quiesce=%v %d: %v", quiesce, id, err)
			}
			h.ref[id].quiescent = quiesce
		}
		return fmt.Sprintf("quiesce=%v %d %v", quiesce, id, err == nil)
	case 12:
		h.pressure = ticks.FracPercent(int64(p1) % 41)
		h.m.SetPressure(0, h.pressure, "tape")
		return fmt.Sprintf("pressure %d%%", int64(p1)%41)
	case 13:
		h.m.Reevaluate()
		return "reevaluate"
	case 14:
		// Store a user policy for exactly the running member set, so the
		// next recompute correlates a stored row instead of inventing.
		members := h.activeMembers()
		if len(members) == 0 {
			return "set-override (nobody running)"
		}
		weights, total := make([]int, len(members)), 0
		for i := range members {
			weights[i] = 1 + int(p1>>(uint(i)%8)&1) + int(p2>>(uint(i)%8)&1)*2
			total += weights[i]
		}
		shares := policy.Ranking{}
		for i, mb := range members {
			shares[mb] = max(1, 94*weights[i]/total)
		}
		if err := h.m.Box().SetOverride(policy.Policy{Shares: shares, Exclusive: members[int(p1)%len(members)]}); err != nil {
			t.Fatalf("set-override %v: %v", shares, err)
		}
		h.m.Reevaluate()
		return fmt.Sprintf("set-override %v", members)
	default:
		members := h.activeMembers()
		h.m.Box().ClearOverride(members)
		h.m.Reevaluate()
		return fmt.Sprintf("clear-override %v", members)
	}
}

// activeMembers lists the distinct Policy Box members of the
// reference's non-quiescent tasks, ascending.
func (h *harness) activeMembers() []policy.MemberID {
	var out []policy.MemberID
	for _, id := range h.refIDs() {
		if r := h.ref[id]; !r.quiescent {
			out = append(out, h.m.Box().MemberOf(r.name))
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// check holds the Manager's observable state to the reference after an
// operation.
func (h *harness) check(t testing.TB, what string) {
	ids := h.refIDs()
	min, max := h.refSums(task.NoID)
	if h.m.MinSum().Cmp(min.cpu) != 0 {
		t.Fatalf("%s: MinSum = %v, reference %v", what, h.m.MinSum(), min.cpu)
	}
	for _, s := range []struct {
		name      string
		got, want demand
	}{{"min", h.m.min, min}, {"max", h.m.max, max}} {
		if s.got.cpu.Cmp(s.want.cpu) != 0 || s.got.mbps != s.want.mbps || s.got.ffu != s.want.ffu {
			t.Fatalf("%s: %s demand = %+v, reference %+v", what, s.name, s.got, s.want)
		}
	}
	if h.m.NTasks() != len(ids) || !slices.Equal(h.m.TaskIDs(), ids) {
		t.Fatalf("%s: TaskIDs = %v (NTasks %d), reference %v", what, h.m.TaskIDs(), h.m.NTasks(), ids)
	}
	var running []task.ID
	for _, id := range h.issued {
		r, in := h.ref[id]
		if h.m.Has(id) != in {
			t.Fatalf("%s: Has(%d) = %v, reference says %v", what, id, !in, in)
		}
		st, err := h.m.State(id)
		switch {
		case !in:
			if !errors.Is(err, ErrUnknownTask) {
				t.Fatalf("%s: State(%d) of a removed task: %v, %v", what, id, st, err)
			}
		case err != nil || (st == task.Quiescent) != r.quiescent:
			t.Fatalf("%s: State(%d) = %v, %v; reference quiescent=%v", what, id, st, err, r.quiescent)
		case !r.quiescent:
			running = append(running, id)
		}
	}

	gs := h.m.Grants()
	gids := gs.IDs()
	if !slices.Equal(gids, running) {
		t.Fatalf("%s: granted %v, reference's non-quiescent set is %v", what, gids, running)
	}
	for i := 1; i < len(gids); i++ {
		if gids[i-1] >= gids[i] {
			t.Fatalf("%s: grant IDs %v not strictly ascending", what, gids)
		}
	}
	var mbps int64
	ffu := 0
	for _, id := range gids {
		g, list := lookup(gs, id), h.ref[id].list
		if g.Task != id || g.Level < 0 || g.Level >= len(list) || g.Entry != list[g.Level] {
			t.Fatalf("%s: grant %+v is not level %d of task %d's list %v", what, g, g.Level, id, list)
		}
		mbps += g.Entry.StreamerMBps
		if g.Entry.NeedsFFU {
			ffu++
		}
	}
	capacity := h.avail.Sub(h.pressure)
	if capacity.Cmp(min.cpu) < 0 {
		capacity = min.cpu
	}
	if total := gs.TotalFrac(); !total.LessOrEqual(capacity) {
		t.Fatalf("%s: grants total %v over capacity %v", what, total, capacity)
	}
	if ffu > 1 {
		t.Fatalf("%s: %d grants hold the exclusive FFU", what, ffu)
	}
	if h.streamer > 0 && mbps > h.streamer {
		t.Fatalf("%s: grants stream %d MB/s of %d", what, mbps, h.streamer)
	}
	if !slices.IsSorted(h.decreased) {
		t.Fatalf("%s: GrantDecreased signalled out of ID order: %v", what, h.decreased)
	}
}

// transcribe prints what the operation did — the Hooks calls in order,
// then the committed set row by row — into the transcript hash.
func (h *harness) transcribe(w hash.Hash, what string) {
	fmt.Fprintf(w, "%s %v\n", what, h.signals)
	gs := h.m.Grants()
	for _, id := range gs.IDs() {
		g := lookup(gs, id)
		fmt.Fprintf(w, "  %d %d %d %d %s\n", id, g.Level, g.Entry.Period, g.Entry.CPU, g.Entry.Fn)
	}
}

// lookup reads one grant out of a set. It is the only line of this
// file that differs from the copy that recorded transcriptDigest on
// the parent commit, where it read gs[id].
func lookup(gs GrantSet, id task.ID) Grant { return gs.Of(id) }

// runTape interprets tape — one configuration byte, then three bytes
// per operation — checking the reference after every operation and
// transcribing into w when it is not nil.
func runTape(t testing.TB, tape []byte, w hash.Hash) {
	if len(tape) == 0 {
		return
	}
	h := newHarness(tape[0])
	for ops := tape[1:]; len(ops) >= 3; ops = ops[3:] {
		what := h.step(t, ops[0], ops[1], ops[2])
		h.check(t, what)
		if w != nil {
			h.transcribe(w, what)
		}
	}
}

// FuzzManagerModel feeds arbitrary operation tapes through the
// reference check.
func FuzzManagerModel(f *testing.F) {
	f.Add([]byte{0})
	f.Add(seededTape(1, 60))
	f.Add(seededTape(77, 60))
	// Fill with FFU users and streamers, press, quiesce, wake.
	f.Add([]byte{7, 0, 8, 0, 0, 8, 1, 0, 9, 2, 0, 6, 3, 0, 7, 4, 12, 30, 0, 8, 0, 0, 10, 0, 0, 14, 5, 3, 15, 0, 0})
	// With a 100 MB/s Streamer: an FFU resident, an FFU-maximum task and
	// a third whose change to an FFU-minimum list is denied; two streamers
	// and a change to a list whose minimum overdraws the Streamer; then
	// the FFU-maximum task quiesces and wakes.
	f.Add([]byte{2, 0, 9, 0, 0, 8, 1, 0, 3, 2, 7, 2, 9, 0, 6, 3, 0, 7, 4, 7, 4, 6, 8, 1, 0, 10, 1, 0})
	f.Fuzz(func(t *testing.T, tape []byte) {
		if len(tape) > 1+3*400 {
			tape = tape[:1+3*400]
		}
		runTape(t, tape, nil)
	})
}

// seededTape is a reproducible tape of n operations (splitmix64, so
// the bytes do not depend on a library's generator).
func seededTape(seed uint64, n int) []byte {
	tape := make([]byte, 1+3*n)
	x := seed
	for i := range tape {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		tape[i] = byte((z ^ z>>31) >> 24)
	}
	return tape
}

// transcriptDigest is the SHA-256 of 200 seeded 60-operation
// transcripts as printed by the commit before GrantSet became an
// ordered slice and Manager.tasks a slice (recorded there with this
// file's interpreter and printer; see lookup).
const transcriptDigest = "e6060c63e1e73ef45e3106f30ae601b81098caaa38aed6c803363eb5baf41d92"

// TestGrantTranscriptMatchesParent replays those sequences: every
// grant set, and every GrantDecreased/GrantRemoved in the order it was
// signalled, must still be what the map-based Manager produced.
func TestGrantTranscriptMatchesParent(t *testing.T) {
	w := sha256.New()
	for seed := uint64(1); seed <= 200; seed++ {
		fmt.Fprintf(w, "tape %d\n", seed)
		runTape(t, seededTape(seed, 60), w)
	}
	if got := hex.EncodeToString(w.Sum(nil)); got != transcriptDigest {
		t.Errorf("transcript digest %s, recorded %s", got, transcriptDigest)
	}
}

package rm

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/policy"
	"repro/internal/task"
	tk "repro/internal/ticks"
)

// streamList builds a two-level list whose levels demand hi/lo MB/s
// of Data Streamer bandwidth alongside hi/lo percent of CPU.
func streamList(hiPct, loPct int, hiMBps, loMBps int64) task.ResourceList {
	return task.ResourceList{
		{Period: 270_000, CPU: 2_700 * tk.Ticks(hiPct), Fn: "Hi", StreamerMBps: hiMBps},
		{Period: 270_000, CPU: 2_700 * tk.Ticks(loPct), Fn: "Lo", StreamerMBps: loMBps},
	}
}

func TestStreamerAdmissionDenied(t *testing.T) {
	m := New(Config{Streamer: Capacity{StreamerMBps: 100}})
	// Minimum demands 60 MB/s each: the second does not fit.
	l := streamList(30, 20, 80, 60)
	if _, err := m.RequestAdmittance(newTask("a", l)); err != nil {
		t.Fatal(err)
	}
	_, err := m.RequestAdmittance(newTask("b", l))
	if !errors.Is(err, ErrStreamerDenied) {
		t.Errorf("second 60MB/s-min task: err = %v, want ErrStreamerDenied", err)
	}
	// A CPU-cheap, bandwidth-cheap task still fits.
	if _, err := m.RequestAdmittance(newTask("c", streamList(10, 5, 40, 30))); err != nil {
		t.Errorf("30MB/s-min task denied: %v", err)
	}
}

func TestStreamerShedsLevels(t *testing.T) {
	// Two tasks whose maxima want 80+80=160 MB/s of a 100 MB/s
	// Streamer but whose CPU fits: grant control must shed on the
	// bandwidth dimension alone.
	m := New(Config{Streamer: Capacity{StreamerMBps: 100}})
	a, err := m.RequestAdmittance(newTask("a", streamList(30, 20, 80, 20)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.RequestAdmittance(newTask("b", streamList(30, 20, 80, 20)))
	if err != nil {
		t.Fatal(err)
	}
	gs := m.Grants()
	total := gs.Of(a).Entry.StreamerMBps + gs.Of(b).Entry.StreamerMBps
	if total > 100 {
		t.Errorf("granted Streamer demand %d exceeds 100 MB/s capacity", total)
	}
	if m.LastOp().FastPath {
		t.Error("bandwidth conflict must not take the fast path")
	}
	// One of them keeps the high level (80+20 fits exactly).
	if gs.Of(a).Level == 1 && gs.Of(b).Level == 1 {
		t.Error("both shed; one high level fits and should be kept")
	}
}

func TestStreamerUnlimitedByDefault(t *testing.T) {
	m := New(Config{})
	l := streamList(30, 20, 1_000_000, 500_000)
	if _, err := m.RequestAdmittance(newTask("a", l)); err != nil {
		t.Errorf("unmodelled Streamer should admit anything: %v", err)
	}
	if !m.LastOp().FastPath {
		t.Error("no capacity set: fast path should apply")
	}
}

func ffuList(hiPct, loPct int) task.ResourceList {
	return task.ResourceList{
		{Period: 2_700_000, CPU: 27_000 * tk.Ticks(hiPct), Fn: "WithFFU", NeedsFFU: true},
		{Period: 2_700_000, CPU: 27_000 * tk.Ticks(loPct), Fn: "NoFFU"},
	}
}

func TestFFUExclusivityInGrants(t *testing.T) {
	m := New(Config{})
	a, err := m.RequestAdmittance(newTask("a", ffuList(30, 20)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.RequestAdmittance(newTask("b", ffuList(30, 20)))
	if err != nil {
		t.Fatal(err)
	}
	gs := m.Grants()
	holders := 0
	for _, id := range []task.ID{a, b} {
		if gs.Of(id).Entry.NeedsFFU {
			holders++
		}
	}
	if holders != 1 {
		t.Errorf("%d FFU holders, want exactly 1", holders)
	}
	if m.LastOp().FastPath {
		t.Error("FFU contention must not take the fast path")
	}
	// Removing the holder lets the other claim the unit.
	holderID := a
	if gs.Of(b).Entry.NeedsFFU {
		holderID = b
	}
	other := a + b - holderID
	if err := m.Remove(holderID); err != nil {
		t.Fatal(err)
	}
	if !m.Grants().Of(other).Entry.NeedsFFU {
		t.Error("survivor did not claim the freed FFU")
	}
}

func TestFFUResidentAdmission(t *testing.T) {
	// A task whose minimum needs the FFU reserves it outright; a
	// second such task is denied, but shed-capable claimants are
	// admitted and simply never granted the unit.
	resident := task.ResourceList{
		{Period: 2_700_000, CPU: 540_000, Fn: "ScalerOnly", NeedsFFU: true},
	}
	m := New(Config{})
	if _, err := m.RequestAdmittance(newTask("r1", resident)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RequestAdmittance(newTask("r2", resident)); !errors.Is(err, ErrFFUDenied) {
		t.Errorf("second FFU resident: err = %v, want ErrFFUDenied", err)
	}
	flex, err := m.RequestAdmittance(newTask("flex", ffuList(30, 20)))
	if err != nil {
		t.Fatalf("shed-capable FFU claimant denied: %v", err)
	}
	if m.Grants().Of(flex).Entry.NeedsFFU {
		t.Error("flexible claimant granted the FFU over the resident")
	}
}

func TestFFUPolicyExclusiveWins(t *testing.T) {
	// A stored policy designating the Exclusive member decides FFU
	// contention (§4.3's "an arbitrary thread is given control of
	// exclusive resources" is only for invented policies).
	box := policy.NewBox()
	a := box.Register("a")
	b := box.Register("b")
	if err := box.SetDefault(policy.Policy{
		Shares:    policy.Ranking{a: 30, b: 30},
		Exclusive: b,
	}); err != nil {
		t.Fatal(err)
	}
	m := New(Config{Box: box})
	aid, _ := m.RequestAdmittance(newTask("a", ffuList(30, 20)))
	bid, _ := m.RequestAdmittance(newTask("b", ffuList(30, 20)))
	gs := m.Grants()
	if !gs.Of(bid).Entry.NeedsFFU {
		t.Error("policy-designated exclusive member did not get the FFU")
	}
	if gs.Of(aid).Entry.NeedsFFU {
		t.Error("non-designated member granted the FFU too")
	}
}

func TestMonotoneMenuValidation(t *testing.T) {
	bad := task.ResourceList{
		{Period: 270_000, CPU: 100_000, Fn: "Hi", StreamerMBps: 10},
		{Period: 270_000, CPU: 50_000, Fn: "Lo", StreamerMBps: 20},
	}
	if err := bad.Validate(); err == nil {
		t.Error("non-monotone Streamer menu accepted")
	}
	badFFU := task.ResourceList{
		{Period: 270_000, CPU: 100_000, Fn: "Hi"},
		{Period: 270_000, CPU: 50_000, Fn: "Lo", NeedsFFU: true},
	}
	if err := badFFU.Validate(); err == nil {
		t.Error("non-monotone FFU menu accepted")
	}
}

func TestGrantsRespectAllDimensionsProperty(t *testing.T) {
	// Whatever mix of CPU, bandwidth, and FFU demands is admitted,
	// the granted set always fits every dimension.
	f := func(seed uint8, cap8 uint8) bool {
		capMBps := int64(cap8%100) + 50
		m := New(Config{Streamer: Capacity{StreamerMBps: capMBps}})
		for i := 0; i < 6; i++ {
			hi := int(seed)%60 + 20
			lo := hi / 3
			if lo < 1 {
				lo = 1
			}
			hiB := int64((int(seed)*7 + i*13) % 90)
			loB := hiB / 4
			list := task.ResourceList{
				{Period: 270_000, CPU: 2_700 * tk.Ticks(hi), Fn: "Hi",
					StreamerMBps: hiB, NeedsFFU: i%2 == 0},
				{Period: 270_000, CPU: 2_700 * tk.Ticks(lo), Fn: "Lo",
					StreamerMBps: loB},
			}
			_, _ = m.RequestAdmittance(newTask(string(rune('a'+i)), list))
			seed = seed*31 + 17
		}
		gs := m.Grants()
		if !gs.TotalFrac().LessOrEqual(m.Available()) {
			return false
		}
		var mbps int64
		ffu := 0
		for _, g := range gs.All() {
			mbps += g.Entry.StreamerMBps
			if g.Entry.NeedsFFU {
				ffu++
			}
		}
		return mbps <= capMBps && ffu <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCapacityFits(t *testing.T) {
	unlimited := Capacity{}
	if !unlimited.Unlimited() {
		t.Error("zero capacity should be unlimited")
	}
	if !unlimited.Fits(1 << 40) {
		t.Error("unlimited capacity rejected a demand")
	}
	capped := Capacity{StreamerMBps: 100}
	if capped.Unlimited() {
		t.Error("capped capacity reported unlimited")
	}
	if !capped.Fits(100) {
		t.Error("exact fit rejected")
	}
	if capped.Fits(101) {
		t.Error("over-capacity demand accepted")
	}
}

func TestCapacityString(t *testing.T) {
	if s := (Capacity{}).String(); !strings.Contains(s, "unlimited") {
		t.Errorf("String() = %q", s)
	}
	if s := (Capacity{StreamerMBps: 80}).String(); !strings.Contains(s, "80") {
		t.Errorf("String() = %q", s)
	}
}

package policy

import (
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestRegisterIsIdempotent(t *testing.T) {
	b := NewBox()
	a1 := b.Register("audio")
	a2 := b.Register("audio")
	v := b.Register("video")
	if a1 != a2 {
		t.Error("re-registering a name must return the same member")
	}
	if a1 == v {
		t.Error("distinct names must get distinct members")
	}
	if b.NameOf(a1) != "audio" || b.MemberOf("video") != v {
		t.Error("name correlation broken")
	}
	if b.MemberOf("nope") != NoMember {
		t.Error("unknown name should map to NoMember")
	}
}

func TestPolicyValidate(t *testing.T) {
	cases := []struct {
		name string
		p    Policy
		ok   bool
	}{
		{"good", Policy{Shares: Ranking{1: 10, 2: 85}}, true},
		{"sums to 100", Policy{Shares: Ranking{1: 50, 2: 50}}, true},
		{"empty", Policy{Shares: Ranking{}}, false},
		{"over 100", Policy{Shares: Ranking{1: 60, 2: 60}}, false},
		{"zero share", Policy{Shares: Ranking{1: 0, 2: 50}}, false},
		{"negative share", Policy{Shares: Ranking{1: -5, 2: 50}}, false},
		{"exclusive member", Policy{Shares: Ranking{1: 50}, Exclusive: 1}, true},
		{"exclusive outsider", Policy{Shares: Ranking{1: 50}, Exclusive: 2}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.p.Validate()
			if (err == nil) != c.ok {
				t.Errorf("Validate() = %v, want ok=%v", err, c.ok)
			}
		})
	}
}

func TestTable5LookupEveryRow(t *testing.T) {
	b := NewBox()
	m := Table5(b, [4]string{"t1", "t2", "t3", "t4"})
	cases := []struct {
		active []MemberID
		want   map[MemberID]int
	}{
		{[]MemberID{m[0], m[1]}, map[MemberID]int{m[0]: 10, m[1]: 85}},
		{[]MemberID{m[0], m[2]}, map[MemberID]int{m[0]: 20, m[2]: 75}},
		{[]MemberID{m[0], m[3]}, map[MemberID]int{m[0]: 10, m[3]: 85}},
		{[]MemberID{m[0], m[1], m[2]}, map[MemberID]int{m[0]: 10, m[1]: 50, m[2]: 35}},
		{[]MemberID{m[0], m[1], m[3]}, map[MemberID]int{m[0]: 10, m[1]: 35, m[3]: 50}},
		{[]MemberID{m[0], m[2], m[3]}, map[MemberID]int{m[0]: 10, m[2]: 35, m[3]: 50}},
		{[]MemberID{m[0], m[1], m[2], m[3]}, map[MemberID]int{m[0]: 5, m[1]: 35, m[2]: 20, m[3]: 35}},
	}
	for _, c := range cases {
		p := b.PolicyFor(c.active)
		if p.Invented {
			t.Errorf("PolicyFor(%v) invented, want stored row", c.active)
			continue
		}
		for mem, share := range c.want {
			if p.Shares[mem] != share {
				t.Errorf("PolicyFor(%v)[%d] = %d, want %d", c.active, mem, p.Shares[mem], share)
			}
		}
	}
	if b.Len() != 7 {
		t.Errorf("Box has %d policies, want the 7 Table 5 rows", b.Len())
	}
}

func TestLookupOrderIndependence(t *testing.T) {
	b := NewBox()
	m := Table5(b, [4]string{"t1", "t2", "t3", "t4"})
	p1 := b.PolicyFor([]MemberID{m[0], m[1], m[2]})
	p2 := b.PolicyFor([]MemberID{m[2], m[0], m[1]})
	if p1.Invented || p2.Invented {
		t.Fatal("lookup should hit the stored row regardless of order")
	}
	for mem, s := range p1.Shares {
		if p2.Shares[mem] != s {
			t.Errorf("order-dependent lookup: %d vs %d", s, p2.Shares[mem])
		}
	}
}

func TestInventedPolicyEvenSplit(t *testing.T) {
	b := NewBox()
	ids := []MemberID{b.Register("a"), b.Register("b"), b.Register("c")}
	p := b.PolicyFor(ids)
	if !p.Invented {
		t.Fatal("unmatched set should invent a policy")
	}
	for _, id := range ids {
		if p.Shares[id] != 33 {
			t.Errorf("invented share for %d = %d, want 33 (100/3)", id, p.Shares[id])
		}
	}
	if p.Exclusive != ids[0] {
		t.Errorf("exclusive = %d, want lowest member %d", p.Exclusive, ids[0])
	}
	if err := p.Validate(); err != nil {
		t.Errorf("invented policy invalid: %v", err)
	}
}

func TestInventDeterministicAcrossOrder(t *testing.T) {
	b := NewBox()
	x, y := b.Register("x"), b.Register("y")
	p1 := b.Invent([]MemberID{x, y})
	p2 := b.Invent([]MemberID{y, x})
	if p1.Exclusive != p2.Exclusive {
		t.Error("invented exclusive depends on argument order")
	}
}

func TestOverrideShadowsDefaultAndClears(t *testing.T) {
	b := NewBox()
	a, v := b.Register("audio"), b.Register("video")
	def := Policy{Shares: Ranking{a: 70, v: 25}} // audio preferred (default)
	if err := b.SetDefault(def); err != nil {
		t.Fatal(err)
	}
	// Loud-environment user override: video preferred (§4.3).
	ovr := Policy{Shares: Ranking{a: 25, v: 70}}
	if err := b.SetOverride(ovr); err != nil {
		t.Fatal(err)
	}
	got := b.PolicyFor([]MemberID{a, v})
	if got.Shares[v] != 70 {
		t.Errorf("override not consulted first: video share %d, want 70", got.Shares[v])
	}
	b.ClearOverride([]MemberID{v, a}) // any order
	got = b.PolicyFor([]MemberID{a, v})
	if got.Shares[a] != 70 {
		t.Errorf("default not restored after ClearOverride: audio share %d", got.Shares[a])
	}
}

func TestSetRejectsInvalid(t *testing.T) {
	b := NewBox()
	bad := Policy{Shares: Ranking{1: 200}}
	if err := b.SetDefault(bad); err == nil {
		t.Error("SetDefault accepted invalid policy")
	}
	if err := b.SetOverride(bad); err == nil {
		t.Error("SetOverride accepted invalid policy")
	}
}

func TestPolicyForEmptySet(t *testing.T) {
	b := NewBox()
	p := b.PolicyFor(nil)
	if !p.Invented || len(p.Shares) != 0 {
		t.Error("empty active set should yield an empty invented policy")
	}
}

func TestInventedSharesNeverExceed100(t *testing.T) {
	f := func(n uint8) bool {
		count := int(n%12) + 1
		b := NewBox()
		ids := make([]MemberID, count)
		for i := range ids {
			ids[i] = b.Register(strings.Repeat("x", i+1))
		}
		p := b.Invent(ids)
		return p.Validate() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPolicyString(t *testing.T) {
	p := Policy{Shares: Ranking{2: 85, 1: 10}, Invented: true}
	s := p.String()
	if !strings.Contains(s, "1:10%") || !strings.Contains(s, "2:85%") || !strings.Contains(s, "invented") {
		t.Errorf("String() = %q", s)
	}
	// Members sorted.
	if strings.Index(s, "1:10%") > strings.Index(s, "2:85%") {
		t.Errorf("members not sorted in %q", s)
	}
}

func TestLenCountsOverriddenSetOnce(t *testing.T) {
	b := NewBox()
	a, v := b.Register("a"), b.Register("v")
	if err := b.SetDefault(Policy{Shares: Ranking{a: 50, v: 50}}); err != nil {
		t.Fatal(err)
	}
	if err := b.SetOverride(Policy{Shares: Ranking{a: 30, v: 70}}); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 1 {
		t.Errorf("Len = %d, want 1 (same set in both layers)", b.Len())
	}
}

// keyOfRef is keyOf as it was before it stopped copying sorted input:
// copy, reflective sort, one Itoa per member into a Builder.
func keyOfRef(members []MemberID) string {
	ms := make([]MemberID, len(members))
	copy(ms, members)
	sort.Slice(ms, func(i, j int) bool { return ms[i] < ms[j] })
	var b strings.Builder
	for i, m := range ms {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(int(m)))
	}
	return b.String()
}

func TestKeyOfMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 3000; i++ {
		// Up to 40 members: past the 64 bytes of digits keyOf keeps on
		// its stack. A narrow ID range repeats members; a wide one
		// yields multi-digit, duplicate-free lists.
		ms := make([]MemberID, rng.Intn(41))
		span := []int{3, 12, 100_000}[i%3]
		for j := range ms {
			ms[j] = MemberID(1 + rng.Intn(span))
		}
		if i%2 == 0 {
			slices.Sort(ms) // the Resource Manager's usual input
		}
		in := slices.Clone(ms)
		if got, want := keyOf(ms), keyOfRef(ms); got != want {
			t.Fatalf("keyOf(%v) = %q, reference %q", in, got, want)
		}
		if !slices.Equal(ms, in) {
			t.Fatalf("keyOf reordered its argument: %v -> %v", in, ms)
		}
	}
}

func TestPolicyForIgnoresEmptyLayers(t *testing.T) {
	b := NewBox()
	x, y, z := b.Register("x"), b.Register("y"), b.Register("z")
	if err := b.SetOverride(Policy{Shares: Ranking{x: 30, y: 60}}); err != nil {
		t.Fatal(err)
	}
	if p := b.PolicyFor([]MemberID{y, x}); p.Invented || p.Shares[y] != 60 {
		t.Errorf("stored row not found from unsorted input: %v", p)
	}
	// Clearing the only override leaves an allocated, empty layer: the
	// Box must invent again, for that set and any other.
	b.ClearOverride([]MemberID{y, x})
	for _, set := range [][]MemberID{{x, y}, {z, y, x}} {
		p := b.PolicyFor(set)
		if !p.Invented || p.Exclusive != x || p.Shares[y] != 100/len(set) {
			t.Errorf("PolicyFor(%v) on a cleared Box = %v, want the invented even split led by %d", set, p, x)
		}
	}
	// A default under an empty override layer is still found.
	if err := b.SetDefault(Policy{Shares: Ranking{x: 10, z: 20}}); err != nil {
		t.Fatal(err)
	}
	if p := b.PolicyFor([]MemberID{z, x}); p.Invented || p.Shares[z] != 20 {
		t.Errorf("default row not found from unsorted input: %v", p)
	}
}

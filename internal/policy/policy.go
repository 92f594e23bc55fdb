// Package policy implements the Policy Box of the ETI Resource
// Distributor (§4.3): a repository of information on how to trade off
// QOS among running applications when the system is overloaded.
//
// The Policy Box correlates task names with policy member identifiers
// and stores, for each *set* of members that may be running together,
// a relative ranking (Table 5). It is consulted by the Resource
// Manager only when not every task can have its maximum resource list
// entry; it never talks to the Scheduler. Default policies supplied
// by the system designer can be overridden by the user, and if no
// policy matches the running set, the Box invents one "in which each
// of N threads receives 1/Nth of the resources, and an arbitrary
// thread is given control of exclusive resources."
package policy

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// MemberID is the Policy Box's stable identity for a task, assigned
// at registration. Table 5's "Task 1 … Task 4" columns are MemberIDs.
type MemberID int32

// NoMember is the zero, invalid member ID.
const NoMember MemberID = 0

// Ranking assigns each member of a policy a relative share, in
// percent of the schedulable CPU. Table 5's rows are Rankings.
type Ranking map[MemberID]int

// Policy is one row of the Policy Box: a ranking over a set of
// members plus the designation of which member holds exclusive
// resources (the FFU in §5.5) while this policy is in force.
type Policy struct {
	Shares    Ranking
	Exclusive MemberID // holder of exclusive resources; NoMember if unused

	// Invented marks policies fabricated by the Box when no stored
	// policy matched (§6.3). Reported for observability.
	Invented bool
}

// Members returns the policy's member set in ascending order.
func (p Policy) Members() []MemberID {
	out := make([]MemberID, 0, len(p.Shares))
	for m := range p.Shares {
		out = append(out, m)
	}
	slices.Sort(out)
	return out
}

// Validate checks a policy row: positive shares summing to at most
// 100, and an Exclusive member (if set) that is part of the policy.
func (p Policy) Validate() error {
	if len(p.Shares) == 0 {
		return errors.New("policy: empty ranking")
	}
	sum := 0
	// Members() iterates in sorted order so the error reported for a
	// multi-violation policy is the same on every run.
	for _, m := range p.Members() {
		s := p.Shares[m]
		if s <= 0 {
			return fmt.Errorf("policy: member %d has non-positive share %d", m, s)
		}
		sum += s
	}
	if sum > 100 {
		return fmt.Errorf("policy: shares sum to %d%%, exceeding 100%%", sum)
	}
	if p.Exclusive != NoMember {
		if _, ok := p.Shares[p.Exclusive]; !ok {
			return fmt.Errorf("policy: exclusive member %d not in ranking", p.Exclusive)
		}
	}
	return nil
}

// String renders the policy like a Table 5 row.
func (p Policy) String() string {
	var b strings.Builder
	b.WriteString(keyOf(p.Members()))
	b.WriteString(" →")
	for _, m := range p.Members() {
		fmt.Fprintf(&b, " %d:%d%%", m, p.Shares[m])
	}
	if p.Invented {
		b.WriteString(" (invented)")
	}
	return b.String()
}

// Box is the policy database. It is not safe for concurrent use; the
// Resource Distributor consults it only from the simulation
// goroutine, in the context of the task requesting admittance (§4.3).
type Box struct {
	nextID  MemberID
	byName  map[string]MemberID
	builtin map[string]Policy // designer defaults, keyed by member set
	user    map[string]Policy // user overrides, consulted first

	tel boxTelemetry
}

// NewBox returns an empty Policy Box. The member and policy maps are
// created on first write (reads and deletes on nil maps are safe), so
// a Box that is constructed but never consulted — every underload run
// — costs one allocation, not five.
func NewBox() *Box { return NewBoxIn(nil) }

// NewBoxIn is NewBox in b's storage (a new Box when b is nil): b is
// emptied of members, policies and telemetry, and keeps only its
// member map's storage. The Box b was is gone.
func NewBoxIn(b *Box) *Box {
	if b == nil {
		b = new(Box)
	}
	clear(b.byName)
	*b = Box{nextID: 1, byName: b.byName}
	return b
}

// Register correlates a task name with a MemberID, creating one if
// the name is new. §4.3: "The Policy Box correlates a task name and
// Policy Box identifiers."
func (b *Box) Register(name string) MemberID {
	if id, ok := b.byName[name]; ok {
		return id
	}
	id := b.nextID
	b.nextID++
	if b.byName == nil {
		b.byName = make(map[string]MemberID)
	}
	b.byName[name] = id
	return id
}

// NameOf reports the task name registered for a member. The reverse
// lookup scans the registry: member counts are small, the callers
// (persistence, diagnostics) are cold, and not keeping a second map
// in sync keeps admission — which registers a member per task — at
// one map touch.
func (b *Box) NameOf(m MemberID) string {
	//rdlint:ordered-ok member IDs are unique, so at most one entry matches and the result is order-independent
	for name, id := range b.byName {
		if id == m {
			return name
		}
	}
	return ""
}

// MemberOf reports the member ID for a task name, or NoMember.
func (b *Box) MemberOf(name string) MemberID { return b.byName[name] }

// keyOf names a member set: its IDs in ascending order, comma-joined
// (a member listed twice appears twice). The Resource Manager hands in
// its members in task-ID order, which for members registered as their
// tasks arrive is already ascending, so the copy and sort are for the
// input that is not.
func keyOf(members []MemberID) string {
	if !slices.IsSorted(members) {
		members = slices.Clone(members)
		slices.Sort(members)
	}
	var digits [64]byte
	key := digits[:0]
	for i, m := range members {
		if i > 0 {
			key = append(key, ',')
		}
		key = strconv.AppendInt(key, int64(m), 10)
	}
	return string(key)
}

// SetDefault installs a designer-supplied policy for the member set
// covered by p.Shares, replacing any previous default for that set.
func (b *Box) SetDefault(p Policy) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if b.builtin == nil {
		b.builtin = make(map[string]Policy)
	}
	b.builtin[keyOf(p.Members())] = p
	return nil
}

// SetOverride installs a user override for p's member set. Overrides
// take precedence over defaults. §4.3: defaults "can be overridden by
// users", e.g. preferring video over audio in a loud environment.
func (b *Box) SetOverride(p Policy) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if b.user == nil {
		b.user = make(map[string]Policy)
	}
	b.user[keyOf(p.Members())] = p
	return nil
}

// ClearOverride removes the user override for the given member set,
// restoring the designer default (if any).
func (b *Box) ClearOverride(members []MemberID) {
	delete(b.user, keyOf(members))
}

// Len reports the number of stored policies (defaults + overrides,
// counting a set once when both layers define it).
func (b *Box) Len() int {
	seen := make(map[string]bool, len(b.builtin)+len(b.user))
	for k := range b.builtin {
		seen[k] = true
	}
	for k := range b.user {
		seen[k] = true
	}
	return len(seen)
}

// PolicyFor returns the policy governing the given set of running
// members. The user layer is consulted first, then designer defaults;
// if neither matches the exact set, the Box invents an even split
// (§6.3: "the current implementation invents a policy in which each
// of N threads receives 1/Nth of the resources, and an arbitrary
// thread is given control of exclusive resources").
func (b *Box) PolicyFor(active []MemberID) Policy {
	if p, ok := b.Consult(active); ok {
		return p
	}
	if len(active) == 0 {
		return Policy{Shares: Ranking{}, Invented: true}
	}
	return invent(active)
}

// Consult is PolicyFor for a caller that applies an invented policy
// itself rather than reading it out of a Ranking: it returns the stored
// policy for the running members and true, or the zero Policy and false
// where PolicyFor would invent one. It counts the consultation, and the
// invention, exactly as PolicyFor does. The invented policy gives each
// member InventedShare(len(active)) and the exclusive resources to the
// lowest-numbered member (Invent).
func (b *Box) Consult(active []MemberID) (Policy, bool) {
	b.tel.consults.Inc()
	if len(active) == 0 {
		return Policy{}, false
	}
	// A layer that stores nothing cannot match, so a Box nobody has
	// written a policy into — every fleet node's — invents without
	// building the key.
	if len(b.user) > 0 || len(b.builtin) > 0 {
		k := keyOf(active)
		if p, ok := b.user[k]; ok {
			return p, true
		}
		if p, ok := b.builtin[k]; ok {
			return p, true
		}
	}
	b.tel.invents.Inc()
	return Policy{}, false
}

// InventedShare is each member's share, in percent, of the policy the
// Box invents for n members: "each of N threads receives 1/Nth of the
// resources".
func InventedShare(n int) int { return 100 / n }

// Invent fabricates the 1/N policy for the given members. The
// "arbitrary thread" given exclusive resources is the lowest-numbered
// member, which makes invention deterministic and start-order
// independent (a first principle: policy must not depend on accidents
// of timing or creation order).
func (b *Box) Invent(active []MemberID) Policy {
	b.tel.invents.Inc()
	return invent(active)
}

func invent(active []MemberID) Policy {
	shares := make(Ranking, len(active))
	each := InventedShare(len(active))
	for _, m := range active {
		shares[m] = each
	}
	return Policy{Shares: shares, Exclusive: slices.Min(active), Invented: true}
}

// Table5 installs the paper's example Policy Box (Table 5) over four
// freshly registered task names, returning their member IDs in order.
// Useful for tests and the rdbench table5 experiment.
func Table5(b *Box, names [4]string) [4]MemberID {
	var m [4]MemberID
	for i, n := range names {
		m[i] = b.Register(n)
	}
	rows := []struct {
		members []int // indices into m
		shares  []int
	}{
		{[]int{0, 1}, []int{10, 85}},
		{[]int{0, 2}, []int{20, 75}},
		{[]int{0, 3}, []int{10, 85}},
		{[]int{0, 1, 2}, []int{10, 50, 35}},
		{[]int{0, 1, 3}, []int{10, 35, 50}},
		{[]int{0, 2, 3}, []int{10, 35, 50}},
		{[]int{0, 1, 2, 3}, []int{5, 35, 20, 35}},
	}
	for _, r := range rows {
		shares := make(Ranking, len(r.members))
		for i, idx := range r.members {
			shares[m[idx]] = r.shares[i]
		}
		// The paper's table does not designate exclusives; leave unset.
		if err := b.SetDefault(Policy{Shares: shares}); err != nil {
			panic("policy: Table5 row invalid: " + err.Error())
		}
	}
	return m
}

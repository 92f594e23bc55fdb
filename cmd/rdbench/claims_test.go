package main

import (
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// claim is one of the paper's figures held as a predicate over the
// golden: the paper's figure(s), the figure(s) parsed from one
// experiment's section, and whether they agree today.
type claim struct {
	section string    // where the paper states it
	what    string    // the claim, in the paper's terms
	exp     string    // the rdbench experiment whose golden section is measured
	paper   []float64 // the paper's figure(s)
	// tol is how far each measured figure may sit from the paper's;
	// above instead asks each measured figure to exceed the paper's.
	tol   float64
	above bool
	holds bool // the verdict recorded for the golden as committed
	// measure parses the measured figure(s) from the section; t fails
	// the test on a section it cannot read.
	measure func(t *testing.T, section string) []float64
}

// claims are the paper's deterministic figures, as rdbench measures
// them. A row whose verdict is false is a known gap, stated so that a
// change closing it shows up as a flip.
var claims = []claim{
	{"Table 4", "modem grant (% CPU)", "table4", []float64{10}, 0.5, false, true, table4Grant("modem")},
	{"Table 4", "3D grant (% CPU); ours lands on Table 3's 40 % level", "table4", []float64{52}, 0.5, false, false, table4Grant("3d")},
	{"Table 4", "MPEG grant (% CPU)", "table4", []float64{33}, 0.5, false, true, table4Grant("mpeg")},
	{"§6.1", "voluntary switch min/median/mean (µs)", "switch", []float64{11.5, 18.3, 20.7}, 0.2, false, true,
		floats(`measured voluntary +min ([0-9.]+), median ([0-9.]+), mean ([0-9.]+)`)},
	{"§6.1", "involuntary switch min/median/mean (µs)", "switch", []float64{16.9, 28.2, 35.0}, 0.2, false, true,
		floats(`measured involuntary min ([0-9.]+), median ([0-9.]+), mean ([0-9.]+)`)},
	{"§6.1", "tuned MPEG+AC3 system: ~300 switches/s", "switch", []float64{300}, 30, false, false,
		floats(`measured: ([0-9]+) switches/s`)},
	{"Figure 5 / Table 6", "thread 2 steps 9 → 4 → 3 → 2 → 2 ms as threads arrive every 20 ms", "fig5", []float64{9, 4, 3, 2, 2}, 0, false, true,
		fig5Staircase},
	{"Figure 5 / §6.5", "no deadline misses in the overload staircase", "fig5", []float64{0}, 0, false, true,
		floats(`deadline misses: ([0-9]+) \(paper: guarantees held\)`)},
	{"Figure 4 / §6.5", "data threads 8 and 10 busy-wait their 2 and 3 ms grants each period (ms)", "fig4", []float64{2, 3}, 0, false, true,
		fig4Data},
	{"§6.5", "the buggy data thread busy-waits its whole grant: 30 periods × 3 ms (ms)", "fig4fix", []float64{90}, 0, false, true,
		floats(`buggy +switches= *[0-9]+ data-thread CPU=([0-9.]+)ms`)},
	{"§6.5", "blocking on a producer event frees CPU for the producers (ms)", "fig4fix", []float64{0}, 0, true, true,
		floats(`CPU freed for the producers: ([0-9.]+)ms`)},
	{"§5.2", "no deadline misses while the interrupt load is at or below the 4 % reserve", "interrupts", []float64{0}, 0, false, true,
		missesWithinReserve},
	{"§5.1", "sporadic latency never rises as the server's grant grows (rises counted)", "sporadic-latency", []float64{0}, 0, false, true,
		latencyRises},
}

// TestPaperClaims holds each claim's verdict on the committed golden to
// the one recorded in its row. A verdict that flips fails: a change
// that moves the reproduction towards or away from the paper updates
// the row, and says why.
func TestPaperClaims(t *testing.T) {
	sections := goldenSections(t)
	for _, c := range claims {
		section, ok := sections[c.exp]
		if !ok {
			t.Fatalf("%s: no experiment %q", c.section, c.exp)
		}
		got := c.measure(t, section)
		verdict := c.check(got)
		t.Logf("%-18s %-75s paper %v, measured %v: %v", c.section, c.what, c.paper, got, verdict)
		if verdict != c.holds {
			t.Errorf("%s %q: verdict is now %v (paper %v, measured %v, tolerance %v), recorded %v; edit the row if this is intended",
				c.section, c.what, verdict, c.paper, got, c.tol, c.holds)
		}
	}
}

func (c claim) check(measured []float64) bool {
	if len(measured) != len(c.paper) {
		return false
	}
	for i, m := range measured {
		if c.above && m <= c.paper[i] || !c.above && math.Abs(m-c.paper[i]) > c.tol+1e-9 {
			return false
		}
	}
	return true
}

// floats measures the capture groups of re's first match.
func floats(re string) func(*testing.T, string) []float64 {
	rx := regexp.MustCompile(re)
	return func(t *testing.T, section string) []float64 {
		t.Helper()
		m := rx.FindStringSubmatch(section)
		if m == nil {
			t.Fatalf("no line matches %q in:\n%s", re, section)
		}
		out := make([]float64, len(m)-1)
		for i, s := range m[1:] {
			out[i] = parseFloat(t, s)
		}
		return out
	}
}

func parseFloat(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// table4Grant measures one task's row of the Table 4 grant set.
func table4Grant(name string) func(*testing.T, string) []float64 {
	return floats(fmt.Sprintf(`(?m)^  %s +[0-9]+ +[0-9]+ +([0-9.]+)%%`, name))
}

// fig5Staircase reads thread 2's allocation at each 20 ms admission
// step: the last row of the allocation table at or before it.
func fig5Staircase(t *testing.T, section string) []float64 {
	t.Helper()
	rows := regexp.MustCompile(`(?m)^ +([0-9.]+) +[0-9.]+ +([0-9.]+) `).FindAllStringSubmatch(section, -1)
	var out []float64
	for _, step := range []float64{0, 20, 40, 60, 80} {
		v := math.NaN()
		for _, r := range rows {
			if parseFloat(t, r[1]) <= step {
				v = parseFloat(t, r[2])
			}
		}
		out = append(out, v)
	}
	return out
}

// fig4Data reads each data thread's granted CPU per period off the
// Figure 4 chart, one column a millisecond: its '#' columns over its
// runs of them.
func fig4Data(t *testing.T, section string) []float64 {
	t.Helper()
	var out []float64
	for _, name := range []string{"data8", "data10"} {
		m := regexp.MustCompile(`(?m)^ +` + name + ` \|(.*)\|$`).FindStringSubmatch(section)
		if m == nil {
			t.Fatalf("no %s row in:\n%s", name, section)
		}
		runs := len(regexp.MustCompile(`#+`).FindAllString(m[1], -1))
		out = append(out, float64(strings.Count(m[1], "#"))/float64(max(runs, 1)))
	}
	return out
}

// missesWithinReserve sums the §5.2 table's misses over the loads at
// or below the 4 % reserve.
func missesWithinReserve(t *testing.T, section string) []float64 {
	t.Helper()
	var misses float64
	for _, r := range regexp.MustCompile(`(?m)^ +([0-9.]+)% +[0-9]+ +([0-9]+)$`).FindAllStringSubmatch(section, -1) {
		if parseFloat(t, r[1]) <= 4 {
			misses += parseFloat(t, r[2])
		}
	}
	return []float64{misses}
}

// latencyRises counts the steps of the one-sporadic rows, in growing
// server grant, where the mean latency rose.
func latencyRises(t *testing.T, section string) []float64 {
	t.Helper()
	rows := regexp.MustCompile(`(?m)^ +([0-9]+)% +1 +([0-9.]+) `).FindAllStringSubmatch(section, -1)
	if len(rows) < 2 {
		t.Fatalf("fewer than two one-sporadic rows in:\n%s", section)
	}
	var rises float64
	for i := 1; i < len(rows); i++ {
		if parseFloat(t, rows[i][1]) <= parseFloat(t, rows[i-1][1]) {
			t.Fatalf("server grants not in growing order in:\n%s", section)
		}
		if parseFloat(t, rows[i][2]) > parseFloat(t, rows[i-1][2]) {
			rises++
		}
	}
	return []float64{rises}
}

package main

import (
	"bytes"
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/rdbench.golden")

const goldenPath = "testdata/rdbench.golden"

// TestRdbenchGolden pins every byte a bare `rdbench` prints — each
// paper table, figure and ablation — against the committed golden, and
// holds the output to being a pure function of the source: two runs in
// one process are identical. Regenerate after an intended change with:
// go test ./cmd/rdbench -run Golden -update
func TestRdbenchGolden(t *testing.T) {
	var got, again bytes.Buffer
	run(&got, experiments)
	run(&again, experiments)
	if !bytes.Equal(got.Bytes(), again.Bytes()) {
		t.Fatal("two runs in one process print different bytes")
	}
	if *update {
		if err := os.WriteFile(goldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("output differs from %s (%d vs %d bytes); diff it against `go run ./cmd/rdbench` and, if intended, rerun with -update",
			goldenPath, got.Len(), len(want))
	}
}

// quoteRE matches a fenced block of EXPERIMENTS.md whose info string is
// rdbench:<experiment>.
var quoteRE = regexp.MustCompile("(?ms)^```rdbench:(\\S+)\n(.*?)^```$")

// TestExperimentsDocQuotesGolden holds EXPERIMENTS.md to the golden:
// every block tagged rdbench:<experiment> must be a contiguous run of
// whole lines of that experiment's golden section, so a measured number
// in the document cannot drift from the one the code prints. A markdown
// table is how a measurement gets typed in instead, so the file may
// hold none.
func TestExperimentsDocQuotesGolden(t *testing.T) {
	sections := goldenSections(t)
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(string(doc), "\n") {
		if strings.HasPrefix(line, "|") {
			t.Errorf("EXPERIMENTS.md:%d is a markdown table row; quote rdbench output instead: %s", i+1, line)
		}
	}
	quotes := quoteRE.FindAllStringSubmatch(string(doc), -1)
	if len(quotes) == 0 {
		t.Error("EXPERIMENTS.md quotes no rdbench output")
	}
	for _, q := range quotes {
		name, quote := q[1], q[2]
		if section, ok := sections[name]; !ok {
			t.Errorf("EXPERIMENTS.md quotes unknown experiment %q", name)
		} else if quote == "" || !strings.Contains("\n"+section, "\n"+quote) {
			t.Errorf("EXPERIMENTS.md: this block is not a run of lines of `rdbench -exp %s`:\n%s", name, quote)
		}
	}
}

// goldenSections splits the golden into each experiment's section, by
// name: walking the table backwards, an experiment's section is
// whatever follows its banner in what is left of the file.
func goldenSections(t *testing.T) map[string]string {
	t.Helper()
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	rest, sections := string(golden), map[string]string{}
	for i := len(experiments) - 1; i >= 0; i-- {
		var head bytes.Buffer
		banner(&head, experiments[i].title)
		at := strings.LastIndex(rest, head.String())
		if at < 0 {
			t.Fatalf("%s has no section for %q", goldenPath, experiments[i].name)
		}
		sections[experiments[i].name] = rest[at+head.Len():]
		rest = rest[:at]
	}
	return sections
}

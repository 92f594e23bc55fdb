package main

import (
	"flag"
	"os"
	"strings"
	"testing"
)

// TestClusterSpecCosts holds -cluster-manifest's -costs rule: an
// untouched flag's two-model default picks the paper model, while the
// same two models given explicitly are refused rather than silently
// narrowed.
func TestClusterSpecCosts(t *testing.T) {
	const both = "zero,paper"
	spec, err := clusterSpec("fleet-crash", both, false, "all", 1, 0)
	if err != nil || spec.CostModel != "paper" {
		t.Fatalf("untouched -costs: got %q, %v; want paper", spec.CostModel, err)
	}
	_, err = clusterSpec("fleet-crash", both, true, "all", 1, 0)
	if err == nil || !strings.Contains(err.Error(), "exactly one value for -costs") {
		t.Fatalf("explicit -costs %s: got %v; want a one-value error", both, err)
	}
	spec, err = clusterSpec("fleet-crash", "zero", true, "all", 1, 0)
	if err != nil || spec.CostModel != "zero" {
		t.Fatalf("explicit -costs zero: got %q, %v; want zero", spec.CostModel, err)
	}
}

// runArgs runs rdsweep with the given command line and returns its exit
// status.
func runArgs(t *testing.T, args ...string) int {
	t.Helper()
	saved, savedArgs := flag.CommandLine, os.Args
	defer func() { flag.CommandLine, os.Args = saved, savedArgs }()
	flag.CommandLine = flag.NewFlagSet("rdsweep", flag.ContinueOnError)
	os.Args = append([]string{"rdsweep"}, args...)
	return run()
}

// A seed count or horizon that cannot describe a sweep is a usage
// error (exit 2), not a crash or a silent default.
func TestRejectsBadMatrixFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-scenarios", "settop", "-seeds", "-1", "-quiet"},
		{"-scenarios", "settop", "-seeds", "1", "-horizon-ms", "-5", "-quiet"},
		{"-scenarios", "fleet-crash", "-horizon-ms", "-5", "-cluster-manifest", os.DevNull},
	} {
		if code := runArgs(t, args...); code != 2 {
			t.Errorf("rdsweep %s: exit %d, want 2", strings.Join(args, " "), code)
		}
	}
}

package main

import (
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

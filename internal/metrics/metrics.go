// Package metrics provides the small statistical summary the paper's
// evaluation reports: minimum / median / mean (§6.1 presents
// context-switch costs exactly this way) and percentiles.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Summary accumulates float64 samples and reports order statistics.
// The zero value is ready to use.
type Summary struct {
	samples []float64
	sum     float64
	sorted  bool
}

// Add appends one sample.
func (s *Summary) Add(v float64) {
	s.samples = append(s.samples, v)
	s.sum += v
	s.sorted = false
}

// Merge folds all of o's samples into s, leaving o unchanged. Sweep
// workers aggregate per-run results into per-cell summaries this way;
// merging in a fixed order keeps the sample sequence (and so the
// float accumulation) identical regardless of how many workers
// produced the parts.
func (s *Summary) Merge(o *Summary) {
	if o == nil || len(o.samples) == 0 {
		return
	}
	s.samples = append(s.samples, o.samples...)
	s.sum += o.sum
	s.sorted = false
}

// N reports the sample count.
func (s *Summary) N() int { return len(s.samples) }

// Sum reports the sample total.
func (s *Summary) Sum() float64 { return s.sum }

// Mean reports the arithmetic mean, or 0 with no samples.
func (s *Summary) Mean() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	return s.sum / float64(len(s.samples))
}

func (s *Summary) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.samples)
		s.sorted = true
	}
}

// Min reports the smallest sample, or 0 with no samples.
func (s *Summary) Min() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.samples[0]
}

// Max reports the largest sample, or 0 with no samples.
func (s *Summary) Max() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.samples[len(s.samples)-1]
}

// Median reports the 50th percentile.
func (s *Summary) Median() float64 { return s.Percentile(50) }

// Percentile reports the p-th percentile (0-100) by the
// nearest-rank method, or 0 with no samples.
func (s *Summary) Percentile(p float64) float64 {
	n := len(s.samples)
	if n == 0 {
		return 0
	}
	s.ensureSorted()
	if p <= 0 {
		return s.samples[0]
	}
	if p >= 100 {
		return s.samples[n-1]
	}
	rank := int(math.Ceil(p/100*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	return s.samples[rank]
}

// Stddev reports the population standard deviation.
func (s *Summary) Stddev() float64 {
	n := len(s.samples)
	if n == 0 {
		return 0
	}
	mean := s.Mean()
	var ss float64
	for _, v := range s.samples {
		d := v - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(n))
}

// String renders min/median/mean the way §6.1 reports them.
func (s *Summary) String() string {
	return fmt.Sprintf("min %.1f, median %.1f, mean %.1f (n=%d)",
		s.Min(), s.Median(), s.Mean(), s.N())
}

//rd:hotpath
package sim

import (
	"math"
	"sync"

	"repro/internal/ticks"
)

// A switch cost is an integer tick count, and costTicks — a Pow and a
// Log1p per draw — is a non-decreasing step function of the draw with
// a few thousand steps. tickTable stores where the steps are, found by
// bisection on costTicks itself, so a sample is a bucket lookup and a
// short scan instead of two transcendentals.
//
// The table's answer equals costTicks' without assuming costTicks is
// monotone at the scale of its own rounding noise: bisection places a
// step within that noise (a few draws) of the true crossing, and a
// draw within guardBand of any step is not answered from the table but
// by costTicks. A draw further out is on the side of every crossing
// that the table says it is unless costTicks' float error spans 2^24
// draws, which is more than ten orders of magnitude above it.
const (
	tableBits   = 12 // buckets are indexed by a draw's top tableBits bits
	bucketShift = drawBits - tableBits
	guardBand   = 1 << 24

	// tableEnd is the first draw of the last bucket. The tail above it
	// (one draw in 4096) is where steps crowd together — the quantile
	// diverges as the draw approaches 1 — and is left to costTicks.
	tableEnd = (1<<tableBits - 1) << bucketShift
)

// tickTable is the lazily built step table of one calibrated
// distribution. Building costs one bisection per step (tens of
// milliseconds for the paper's two tables), so it happens on the first
// stochastic sample, once per process, never at start-up. After that
// the table is immutable.
type tickTable struct {
	min, scale, shape float64 // costTicks' arguments, as calibrated

	once sync.Once
	base ticks.Ticks // costTicks at draw 0
	// steps[i], 1 <= i < len-1, is the smallest draw costing at least
	// base+i ticks, in non-decreasing order; steps[0] and the last
	// entry are sentinels more than guardBand outside the draw range.
	steps []int64
	// first[b] is the index of the first step at or above the start of
	// bucket b (the end sentinel if there is none).
	first [1<<tableBits - 1]uint32
}

func (t *tickTable) costTicks(u uint64) ticks.Ticks {
	return costTicks(t.min, t.scale, t.shape, u)
}

// at returns costTicks(u) for a drawBits-bit draw u.
func (t *tickTable) at(u uint64) ticks.Ticks {
	t.once.Do(t.build)
	if u >= tableEnd-guardBand {
		return t.costTicks(u)
	}
	x := int64(u)
	i := int(t.first[u>>bucketShift])
	for t.steps[i] <= x {
		i++
	}
	// steps[i-1] <= x < steps[i]: x has passed i-1 steps.
	if x-t.steps[i-1] < guardBand || t.steps[i]-x <= guardBand {
		return t.costTicks(u)
	}
	return t.base + ticks.Ticks(i-1)
}

func (t *tickTable) build() {
	t.base = t.costTicks(0)
	top := t.costTicks(tableEnd)
	t.steps = make([]int64, 1, top-t.base+2)
	t.steps[0] = -guardBand
	lo := uint64(0)
	for v := t.base + 1; v <= top; v++ {
		// costTicks(lo) < v <= costTicks(hi) throughout; carrying lo
		// over from the previous v keeps the steps ordered.
		hi := uint64(tableEnd)
		for hi-lo > 1 {
			mid := lo + (hi-lo)/2
			if t.costTicks(mid) < v {
				lo = mid
			} else {
				hi = mid
			}
		}
		t.steps = append(t.steps, int64(hi))
	}
	t.steps = append(t.steps, math.MaxInt64)
	i := 1
	for b := range t.first {
		for t.steps[i] < int64(b)<<bucketShift {
			i++
		}
		t.first[b] = uint32(i)
	}
}

// rsfree holds rngstream negatives: named constants below the
// injector band (reused at several sites — one purpose, one stream),
// the sanctioned fault.StreamBase+i band shape, and a constant another
// package declares (sim.StreamReserved).
package rsfree

import (
	"repro/internal/fault"
	"repro/internal/sim"
)

const streamJitter = 6

func derive(seed uint64) {
	_ = sim.SplitSeed(seed, streamJitter)
	_ = sim.SplitSeed(seed, streamJitter) // same constant twice: same purpose
	_ = sim.SplitSeed(seed, sim.StreamReserved)
	for i := 0; i < 4; i++ {
		_ = sim.SplitSeed(seed, fault.StreamBase+uint64(i))
	}
}

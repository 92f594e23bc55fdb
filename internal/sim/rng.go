package sim

import "math"

// RNG is a small, deterministic pseudo-random generator
// (xorshift64*, Vigna 2016 parameters). We use our own rather than
// math/rand so that simulation runs are reproducible across Go
// releases: math/rand's stream is not guaranteed stable between
// versions, and EXPERIMENTS.md records exact simulated numbers.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. A zero seed is
// remapped to a fixed non-zero constant (xorshift requires non-zero
// state).
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &RNG{state: seed}
}

// SplitSeed derives a decorrelated child seed from seed for substream
// number stream, via one splitmix64 step (Steele, Lea & Flood 2014).
// Substreams let one run seed drive several independent generators —
// the kernel's main cost stream, workload parameter jitter, fault
// injectors — without the streams consuming from (and so perturbing)
// each other.
//
// Stream numbers are a fleet-wide namespace policed by the rngstream
// analyzer: every substream purpose owns a distinct named constant
// below fault.StreamBase (16) — the kernel's cost stream is the raw
// seed, stream 1 is reserved (it was the kernel's retired cost-probe
// generator; leaving it unclaimed keeps every other stream's number),
// internal/sweep claims 2 and 3 for workload parameter jitter, and the
// band at 16 and above belongs to fault.ArmAll's injectors.
func SplitSeed(seed, stream uint64) uint64 {
	z := seed + 0x9E3779B97F4A7C15*(stream+1)
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// drawBits is the width of the uniform integer draw behind Float64:
// the top drawBits bits of one Uint64, every one of which a float64
// mantissa holds exactly.
const drawBits = 53

// draw returns a uniform drawBits-bit integer: one Uint64's top bits.
func (r *RNG) draw() uint64 {
	return r.Uint64() >> (64 - drawBits)
}

// unitFloat maps a drawBits-bit draw onto [0, 1).
func unitFloat(u uint64) float64 {
	return float64(u) / (1 << drawBits)
}

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return unitFloat(r.draw())
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// weibullQuantile is the Weibull inverse CDF at u in [0, 1):
// lambda * (-ln(1-u))^(1/k). The switch-cost model draws from a
// Weibull because its median/mean ratio is tunable through k, letting
// us calibrate simultaneously to the paper's reported median and mean
// (§6.1).
func weibullQuantile(u, k, lambda float64) float64 {
	return lambda * math.Pow(-math.Log1p(-u), 1/k)
}

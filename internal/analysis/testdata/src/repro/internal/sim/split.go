// split.go shadows the live SplitSeed surface so rngstream and
// detflow fixtures resolve sim.SplitSeed to the exact identity the
// analyzers gate on.
package sim

// StreamReserved is a stream constant the sim package itself declares.
const StreamReserved = 1

// SplitSeed mirrors the live substream derivation.
func SplitSeed(seed, stream uint64) uint64 { return seed ^ stream }

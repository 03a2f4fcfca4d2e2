// Package splitmix is SplitMix64 (Steele, Lea and Flood, "Fast splittable
// pseudorandom number generators", OOPSLA 2014): the one mixer the
// tree's hash-based decisions and private random streams derive from —
// tiny, allocation-free and identical on every platform, so every golden
// built on it is byte-stable.
package splitmix

// golden is the generator's increment, 2^64 divided by the golden ratio.
const golden = 0x9E3779B97F4A7C15

// Mix is the SplitMix64 output function: a well-distributed hash of x even
// for sequential inputs, used to derive decorrelated seeds and stateless
// per-event decisions.
func Mix(x uint64) uint64 {
	x += golden
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Stream is a SplitMix64 generator. Any seed works, zero included: the
// n-th draw is Mix(seed + n·golden).
type Stream struct{ state uint64 }

// NewStream returns the stream seeded with seed.
func NewStream(seed uint64) Stream { return Stream{state: seed} }

// Next returns the next draw.
func (s *Stream) Next() uint64 {
	x := Mix(s.state)
	s.state += golden
	return x
}

// Unit maps x onto [0, 1) through its top 53 bits, the standard
// uint64→float64 construction.
func Unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }

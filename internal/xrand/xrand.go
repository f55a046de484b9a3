// Package xrand provides deterministic, splittable pseudo-random number
// generation for the simulator.
//
// Every protocol run in this repository is replayable from a single root
// seed. Sub-streams are derived by hashing a label and an index into the
// root seed (SplitMix64 finalization), so independent protocol phases and
// independent nodes draw from statistically independent streams without
// sharing mutable state. This is what makes the CONGEST-CLIQUE simulator
// deterministic even when node handlers run concurrently.
package xrand

import (
	"math"
	"math/bits"
	"math/rand/v2"
)

// splitmix64 is the SplitMix64 finalizer. It is a strong 64-bit mixing
// function used to derive independent stream seeds from (seed, label, index)
// triples.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashLabel folds a string label into a 64-bit value with FNV-1a and then
// strengthens it with SplitMix64.
func hashLabel(label string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= prime
	}
	return splitmix64(h)
}

// Source is a deterministic random stream. It wraps math/rand/v2's PCG
// generator seeded from a derived seed.
type Source struct {
	seed uint64
	pcg  *rand.PCG
	rng  *rand.Rand
}

// New returns a Source rooted at seed.
func New(seed uint64) *Source {
	pcg := new(rand.PCG)
	seedPCG(pcg, seed)
	return &Source{
		seed: seed,
		pcg:  pcg,
		rng:  rand.New(pcg),
	}
}

// Reseed re-initializes the source in place to the stream New(seed) would
// produce, reusing the generator's allocations. It is the scratch-source
// primitive behind the allocation-free split variants below.
func (s *Source) Reseed(seed uint64) {
	s.seed = seed
	seedPCG(s.pcg, seed)
}

// seedPCG seeds p with the generator state of the stream rooted at seed.
func seedPCG(p *rand.PCG, seed uint64) {
	p.Seed(splitmix64(seed), splitmix64(seed^0xa5a5a5a5a5a5a5a5))
}

// Seed reports the seed this source was derived from.
func (s *Source) Seed() uint64 { return s.seed }

// Split derives an independent child stream identified by a label. Splitting
// does not advance the parent stream, so the derivation is order-independent:
// Split("a") yields the same stream whether or not Split("b") was called
// first.
func (s *Source) Split(label string) *Source {
	return New(splitmix64(s.seed ^ hashLabel(label)))
}

// SplitN derives an independent child stream identified by a label and an
// index (for example, one stream per node).
func (s *Source) SplitN(label string, n int) *Source {
	return New(splitmix64(s.seed^hashLabel(label)) + splitmix64(uint64(n)+0x1234_5678_9abc_def0))
}

// Splitter precomputes the label-dependent half of the SplitN derivation.
// Hot loops that split one stream per index under a fixed label (the probe
// and covering loops) pay the label hash once instead of per split, and
// reseed a scratch source instead of allocating one; the derived streams
// are bit-identical to SplitN's.
type Splitter struct{ base uint64 }

// SplitterFor returns a Splitter bound to this source's seed and label:
// sp.Into(scratch, n) yields the stream s.SplitN(label, n) returns.
func (s *Source) SplitterFor(label string) Splitter {
	return Splitter{base: splitmix64(s.seed ^ hashLabel(label))}
}

// Into reseeds scratch to the indexed child stream and returns scratch.
func (sp Splitter) Into(scratch *Source, n int) *Source {
	scratch.Reseed(sp.child(n))
	return scratch
}

// child returns the seed of the indexed child stream.
func (sp Splitter) child(n int) uint64 {
	return sp.base + splitmix64(uint64(n)+0x1234_5678_9abc_def0)
}

// Float64At returns the first Float64 of the indexed child stream — what
// sp.Into(scratch, n).Float64() returns — from a generator on the stack
// instead of a reseeded scratch source. Hot loops that take one draw per
// index (the multi-search's probes) skip the scratch source's pointer
// round trips, and parallel workers share no generator state.
func (sp Splitter) Float64At(n int) float64 {
	var p rand.PCG
	seedPCG(&p, sp.child(n))
	return float64(p.Uint64()<<11>>11) * 0x1p-53 // as Float64
}

// The draw methods below operate on the PCG generator directly instead of
// going through the *rand.Rand wrapper: every draw otherwise pays an
// interface dispatch (Rand.Uint64 → Source interface → PCG), and the
// protocol layers draw hundreds of millions of times per large solve. The
// arithmetic replicates math/rand/v2 exactly — same generator state, same
// rejection algorithm, same float conversion — so the streams are
// bit-identical to the wrapper's (pinned by TestFastPathsMatchRandV2);
// determinism across the whole simulator depends on that equivalence.

// Uint64 returns a uniformly random 64-bit value.
func (s *Source) Uint64() uint64 { return s.pcg.Uint64() }

// uint64n returns a uniform value in [0, n), replicating math/rand/v2's
// Lemire rejection sampling bit for bit (the 32-bit-platform variant
// upstream is documented to produce this exact sequence too, so one
// implementation covers every platform).
func (s *Source) uint64n(n uint64) uint64 {
	if n&(n-1) == 0 { // power of two: mask
		return s.pcg.Uint64() & (n - 1)
	}
	hi, lo := bits.Mul64(s.pcg.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(s.pcg.Uint64(), n)
		}
	}
	return hi
}

// IntN returns a uniform value in [0, n). It panics if n <= 0, matching
// math/rand/v2 semantics.
func (s *Source) IntN(n int) int {
	if n <= 0 {
		panic("invalid argument to IntN")
	}
	return int(s.uint64n(uint64(n)))
}

// Int64N returns a uniform value in [0, n).
func (s *Source) Int64N(n int64) int64 {
	if n <= 0 {
		panic("invalid argument to Int64N")
	}
	return int64(s.uint64n(uint64(n)))
}

// Float64 returns a uniform value in [0, 1). Scaling by 0x1p-53 instead of
// dividing by 1<<53 is exact — both only adjust the exponent — so the
// stream stays bit-identical to math/rand/v2's Float64 while avoiding the
// FP division.
func (s *Source) Float64() float64 {
	return float64(s.pcg.Uint64()<<11>>11) * 0x1p-53
}

// Bool returns true with probability p. Values of p outside [0, 1] clip.
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return float64(s.pcg.Uint64()<<11>>11)*0x1p-53 < p
}

// BoolSampler precomputes Bool(p)'s acceptance test for a fixed p, turning
// the per-draw float conversion, scale and compare into one integer
// comparison against the draw's low 53 bits. The equivalence is exact:
// float64(u53)·0x1p-53 is the real number u53/2^53 (53-bit integer scaled
// by a power of two), so "x < p" holds iff u53 < p·2^53 iff
// u53 < ceil(p·2^53), and p·2^53 and its ceil are both computed exactly.
// Clipped probabilities keep Bool's no-draw behavior.
type BoolSampler struct {
	thresh uint64 // acceptance bound for the draw's low 53 bits
	clip   int8   // -1: always false, +1: always true (no draw either way)
}

// NewBoolSampler returns the sampler for probability p:
// sampler.Draw(s) ≡ s.Bool(p) draw for draw.
func NewBoolSampler(p float64) BoolSampler {
	if p <= 0 {
		return BoolSampler{clip: -1}
	}
	if p >= 1 {
		return BoolSampler{clip: 1}
	}
	return BoolSampler{thresh: uint64(math.Ceil(p * 0x1p53))}
}

// Draw returns true with the sampler's probability, advancing s exactly as
// s.Bool(p) would.
func (b BoolSampler) Draw(s *Source) bool {
	if b.clip != 0 {
		return b.clip > 0
	}
	return s.pcg.Uint64()&(1<<53-1) < b.thresh
}

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int { return s.rng.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using the provided swap
// function.
func (s *Source) Shuffle(n int, swap func(i, j int)) { s.rng.Shuffle(n, swap) }

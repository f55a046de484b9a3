package xrand

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(1234)
	b := New(1234)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must yield identical streams")
		}
	}
	if New(1).Uint64() == New(2).Uint64() {
		t.Error("different seeds should diverge immediately (overwhelmingly likely)")
	}
}

func TestSplitIndependenceOfOrder(t *testing.T) {
	r1 := New(99)
	r2 := New(99)
	// Draw from r1's "a" child after creating "b" first; order must not matter.
	_ = r1.Split("b")
	a1 := r1.Split("a")
	a2 := r2.Split("a")
	for i := 0; i < 50; i++ {
		if a1.Uint64() != a2.Uint64() {
			t.Fatal("Split must be order-independent")
		}
	}
	if r1.Split("a").Seed() == r1.Split("b").Seed() {
		t.Error("distinct labels must yield distinct streams")
	}
}

func TestSplitNDistinct(t *testing.T) {
	r := New(7)
	seen := make(map[uint64]bool)
	for i := 0; i < 100; i++ {
		s := r.SplitN("node", i)
		if seen[s.Seed()] {
			t.Fatalf("SplitN collision at %d", i)
		}
		seen[s.Seed()] = true
	}
}

func TestIntNBounds(t *testing.T) {
	r := New(3)
	for i := 0; i < 1000; i++ {
		v := r.IntN(7)
		if v < 0 || v >= 7 {
			t.Fatalf("IntN out of range: %d", v)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(17)
	if r.Bool(0) {
		t.Error("Bool(0) must be false")
	}
	if !r.Bool(1) {
		t.Error("Bool(1) must be true")
	}
	if r.Bool(-0.5) || !r.Bool(1.5) {
		t.Error("out-of-range probabilities must clip")
	}
	const trials = 20000
	hits := 0
	for i := 0; i < trials; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / trials
	if math.Abs(p-0.3) > 0.02 {
		t.Errorf("Bool(0.3) empirical rate %f", p)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(5)
	p := r.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(23)
	for i := 0; i < 1000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %f", f)
		}
	}
}

func TestShuffle(t *testing.T) {
	r := New(31)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := make([]bool, len(xs))
	for _, v := range xs {
		seen[v] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("element %d lost in shuffle", i)
		}
	}
}

// TestFastPathsMatchRandV2 pins the direct-PCG draw methods to the
// math/rand/v2 wrapper they replaced: the whole simulator's determinism
// (round counts, covering samples, Grover measurements) rides on the two
// producing bit-identical streams. Draws are interleaved across every
// method so state advancement is compared too, and the IntN bounds include
// powers of two (mask path), small odd values (rejection path) and values
// near 2^63 (high rejection probability).
func TestFastPathsMatchRandV2(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 0xdeadbeef} {
		fast := New(seed)
		ref := New(seed)
		refRand := ref.rng // the wrapper around the same PCG state
		bounds := []int{1, 2, 3, 7, 8, 11, 100, 1 << 20, (1 << 62) + 12345}
		for i := 0; i < 5000; i++ {
			switch i % 5 {
			case 0:
				if g, w := fast.Uint64(), refRand.Uint64(); g != w {
					t.Fatalf("seed %d draw %d: Uint64 %d != rand/v2 %d", seed, i, g, w)
				}
			case 1:
				n := bounds[i%len(bounds)]
				if g, w := fast.IntN(n), refRand.IntN(n); g != w {
					t.Fatalf("seed %d draw %d: IntN(%d) %d != rand/v2 %d", seed, i, n, g, w)
				}
			case 2:
				if g, w := fast.Float64(), refRand.Float64(); g != w {
					t.Fatalf("seed %d draw %d: Float64 %g != rand/v2 %g", seed, i, g, w)
				}
			case 3:
				n := int64(bounds[(i+3)%len(bounds)])
				if g, w := fast.Int64N(n), refRand.Int64N(n); g != w {
					t.Fatalf("seed %d draw %d: Int64N(%d) %d != rand/v2 %d", seed, i, n, g, w)
				}
			case 4:
				p := float64(1+i%99) / 100 // strictly inside (0,1) so both sides draw
				if g, w := fast.Bool(p), refRand.Float64() < p; g != w {
					t.Fatalf("seed %d draw %d: Bool(%g) %v != rand/v2 %v", seed, i, p, g, w)
				}
			}
		}
	}
}

// TestBoolClipDrawsNothing pins that clipped probabilities skip the draw —
// Bool(0)/Bool(1) must not advance the stream (the wrapper-based
// implementation behaved this way, and replay depends on it).
func TestBoolClipDrawsNothing(t *testing.T) {
	a, b := New(9), New(9)
	a.Bool(0)
	a.Bool(1)
	a.Bool(-0.5)
	a.Bool(2)
	if a.Uint64() != b.Uint64() {
		t.Fatal("clipped Bool must not advance the stream")
	}
}

// TestFloat64AtMatchesInto pins Splitter.Float64At to the first Float64 of
// the stream Splitter.Into reseeds, so a probe draws the same value either
// way.
func TestFloat64AtMatchesInto(t *testing.T) {
	scratch := New(0)
	for _, seed := range []uint64{0, 1, 42, 0xdeadbeef} {
		sp := New(seed).SplitterFor("probe")
		for n := -3; n < 5000; n++ {
			if got, want := sp.Float64At(n), sp.Into(scratch, n).Float64(); got != want {
				t.Fatalf("seed %d n %d: Float64At %v, Into then Float64 %v", seed, n, got, want)
			}
		}
	}
}

// TestSplitterMatchesSplitNInto pins that Splitter.Into reseeds a scratch
// source into the stream SplitN derives for the same label and index — the
// hot paths use one and the rest of the protocol stack the other, so the
// equivalence is a replay-compatibility contract.
func TestSplitterMatchesSplitNInto(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 0xdeadbeef} {
		src := New(seed)
		for _, label := range []string{"probe", "covering", "identify-sample", ""} {
			sp := src.SplitterFor(label)
			a := New(0)
			for _, n := range []int{0, 1, 2, 7, 1000, 1 << 20} {
				ga := sp.Into(a, n)
				gb := src.SplitN(label, n)
				for i := 0; i < 8; i++ {
					if x, y := ga.Uint64(), gb.Uint64(); x != y {
						t.Fatalf("seed %d label %q n %d draw %d: Splitter %d != SplitN %d", seed, label, n, i, x, y)
					}
				}
			}
		}
	}
}

// TestBoolSamplerMatchesBool pins that BoolSampler.Draw is draw-for-draw
// identical to Bool — same outcomes and same stream advancement, including
// the no-draw clip behavior.
func TestBoolSamplerMatchesBool(t *testing.T) {
	ps := []float64{-1, 0, 1e-17, 0.01, 0.25, 0.5, 1 - 1e-9, 1 - 0x1p-60, 1, 2}
	a, b := New(7), New(7)
	for i := 0; i < 5000; i++ {
		p := ps[i%len(ps)]
		sampler := NewBoolSampler(p)
		if g, w := sampler.Draw(a), b.Bool(p); g != w {
			t.Fatalf("draw %d p=%g: sampler %v != Bool %v", i, p, g, w)
		}
	}
	if a.Uint64() != b.Uint64() {
		t.Fatal("sampler and Bool advanced their streams differently")
	}
}

package matrix

import (
	"errors"
	"fmt"
	"math/bits"
	"testing"

	"qclique/internal/graph"
	"qclique/internal/xrand"
)

func noCheckpoint() error { return nil }

// chainFixedPoint is the reference SquaringFixedPoint must reproduce: the
// early-exit squaring chain over the blocked product.
func chainFixedPoint(t testing.TB, ag *Matrix) (*Matrix, SquaringStats) {
	t.Helper()
	prod := func(dst, a, b *Matrix) error { return MulMinPlusInto(dst, a, b, 1) }
	want, stats, err := APSPBySquaringInto(ag, prod)
	if err != nil {
		t.Fatal(err)
	}
	return want, stats
}

// checkFixedPoint runs the pass at 1 and 3 workers and holds it to the
// chain: declined wherever the chain's result has a negative diagonal, and
// wherever it accepts, the chain's distances and Products bit for bit. It
// returns whether the pass accepted and whether the chain's result has a
// negative diagonal.
func checkFixedPoint(t testing.TB, name string, ag *Matrix) (accepted, negative bool) {
	t.Helper()
	want, wantStats := chainFixedPoint(t, ag)
	negative = want.HasNegativeDiagonal()
	for _, workers := range []int{1, 3} {
		got, stats, ok, err := SquaringFixedPoint(ag, workers, noCheckpoint)
		if err != nil {
			t.Fatalf("%s workers=%d: %v", name, workers, err)
		}
		if workers == 1 {
			accepted = ok
		} else if ok != accepted {
			t.Fatalf("%s: accepted=%v at 1 worker, %v at %d", name, accepted, ok, workers)
		}
		if !ok {
			if got != nil {
				t.Fatalf("%s workers=%d: declined but returned a matrix", name, workers)
			}
			continue
		}
		if negative {
			t.Fatalf("%s workers=%d: accepted an input whose chain result has a negative diagonal", name, workers)
		}
		if !got.Equal(want) {
			t.Fatalf("%s workers=%d: distances differ from the chain\ngot:\n%swant:\n%s", name, workers, got, want)
		}
		if stats != wantStats {
			t.Fatalf("%s workers=%d: products %d, chain %d", name, workers, stats.Products, wantStats.Products)
		}
	}
	return accepted, negative
}

// TestSquaringFixedPointMatchesChain is the pass's table test: random
// digraphs across every block boundary of the pass (n = 31…33, 64, 65,
// 100), sparse to complete, with zero weights (every cycle a zero-weight
// cycle), 0/1 weights, potential-shifted weights in [−8, 8] (negative arcs,
// no negative cycle), wide weights [1, 1000] and unshifted [−8, 8], where
// the denser graphs hold negative cycles. Every input without a negative
// cycle has weights far inside the bound, so the pass must take it.
func TestSquaringFixedPointMatchesChain(t *testing.T) {
	regimes := []struct {
		name     string
		lo, hi   int64
		noNegCyc bool
	}{
		{"zero", 0, 0, true},
		{"01", 0, 1, true},
		{"shifted-8..8", -8, 8, true},
		{"1..1000", 1, 1000, true},
		{"-8..8", -8, 8, false},
	}
	declined := 0
	for _, n := range []int{2, 3, 31, 32, 33, 64, 65, 100} {
		for _, density := range []float64{0.02, 0.1, 0.4, 1} {
			for ri, r := range regimes {
				g, err := graph.RandomDigraph(n, graph.DigraphOpts{
					ArcProb: density, MinWeight: r.lo, MaxWeight: r.hi, NoNegativeCycles: r.noNegCyc,
				}, xrand.New(uint64(n*100+ri)))
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("n=%d density=%v %s", n, density, r.name)
				ok, negative := checkFixedPoint(t, name, FromDigraph(g))
				if !ok && !negative {
					t.Fatalf("%s: declined an input with no negative cycle and small weights", name)
				}
				if !ok {
					declined++
				}
			}
		}
	}
	if declined == 0 {
		t.Fatal("no input had a negative cycle: the decline path is untested")
	}
}

// TestSquaringFixedPointCases pins the named shapes: Products at both ends
// of its range, zero-weight cycles, unreachable pairs, and every kind of
// input the pass must decline.
func TestSquaringFixedPointCases(t *testing.T) {
	arcs := func(n int, list ...[3]int64) *Matrix {
		m := FromDigraph(graph.NewDigraph(n))
		for _, a := range list {
			m.Set(int(a[0]), int(a[1]), a[2])
		}
		return m
	}
	path := func(n int, w int64) *Matrix {
		m := FromDigraph(graph.NewDigraph(n))
		for i := 0; i+1 < n; i++ {
			m.Set(i, i+1, w)
		}
		return m
	}

	// A 17-vertex directed path needs every squaring of its budget of 5; a
	// complete graph whose arcs are shortest paths is its own square.
	if _, stats, ok, _ := SquaringFixedPoint(path(17, 1), 1, noCheckpoint); !ok || stats.Products != 5 {
		t.Errorf("17-vertex path: ok=%v products=%d, want the full budget 5", ok, stats.Products)
	}
	complete := FromDigraph(graph.NewDigraph(12))
	for i := 0; i < 12; i++ {
		for j := 0; j < 12; j++ {
			if i != j {
				complete.Set(i, j, 3)
			}
		}
	}
	if _, stats, ok, _ := SquaringFixedPoint(complete, 1, noCheckpoint); !ok || stats.Products != 1 {
		t.Errorf("complete graph with shortest arcs: ok=%v products=%d, want 1", ok, stats.Products)
	}

	// A zero-weight 40-cycle with a zero-weight chord, and a tail entered at
	// weight −2: shortest paths tie with walks around the cycle and through
	// the chord, and the fewest hops decide Products.
	zeroCycle := FromDigraph(graph.NewDigraph(45))
	for i := 0; i < 40; i++ {
		zeroCycle.Set(i, (i+1)%40, 0)
	}
	zeroCycle.Set(5, 30, 0)
	zeroCycle.Set(39, 40, -2)
	for i := 40; i+1 < 45; i++ {
		zeroCycle.Set(i, i+1, 1)
	}

	// Two components: no arc between [0,20) and [20,50).
	split := FromDigraph(graph.NewDigraph(50))
	rng := xrand.New(3)
	for i := 0; i < 50; i++ {
		for j := 0; j < 50; j++ {
			if i != j && (i < 20) == (j < 20) && rng.Bool(0.1) {
				split.Set(i, j, rng.Int64N(9))
			}
		}
	}

	n3 := 3
	shift := uint(bits.Len(uint(2 * (n3 - 1))))
	limit := fwLimit(n3, shift)
	for _, tc := range []struct {
		name   string
		ag     *Matrix
		accept bool
	}{
		{"17-vertex path", path(17, 1), true},
		{"2-vertex path", path(2, -7), true},
		{"complete graph", complete, true},
		{"zero-weight cycle", zeroCycle, true},
		{"unreachable pairs", split, true},
		{"no arcs", FromDigraph(graph.NewDigraph(33)), true},
		{"weights at the bound", arcs(3, [3]int64{0, 1, limit}, [3]int64{1, 2, -limit}), true},
		{"weight past the bound", arcs(3, [3]int64{0, 1, limit + 1}, [3]int64{1, 2, 1}), false},
		{"negative weight past the bound", arcs(3, [3]int64{0, 1, -limit - 1}), false},
		{"negative 2-cycle", arcs(4, [3]int64{0, 1, -3}, [3]int64{1, 0, 2}, [3]int64{1, 2, 1}), false},
		{"negative cycle through the last pivot", arcs(70, [3]int64{3, 69, 1}, [3]int64{69, 3, -2}), false},
		{"zero-weight 2-cycle", arcs(4, [3]int64{0, 1, -3}, [3]int64{1, 0, 3}), true},
		{"−∞ entry", arcs(4, [3]int64{0, 1, graph.NegInf}), false},
		{"saturating sum", arcs(3, [3]int64{0, 1, graph.Inf - 1}, [3]int64{1, 2, 1}), false},
		{"−Inf/2 2-cycle", arcs(32, [3]int64{0, 1, -graph.Inf / 2}, [3]int64{1, 0, -graph.Inf / 2}, [3]int64{1, 2, 1}, [3]int64{2, 3, 1}), false},
		{"nonzero diagonal", arcs(3, [3]int64{1, 1, 2}), false},
	} {
		if got, _ := checkFixedPoint(t, tc.name, tc.ag); got != tc.accept {
			t.Errorf("%s: accepted=%v, want %v", tc.name, got, tc.accept)
		}
	}
	for _, n := range []int{0, 1} {
		if m, _, ok, err := SquaringFixedPoint(FromDigraph(graph.NewDigraph(n)), 1, noCheckpoint); ok || m != nil || err != nil {
			t.Errorf("n=%d: ok=%v m=%v err=%v, want a plain decline", n, ok, m, err)
		}
	}
}

// TestSquaringFixedPointCheckpoint: the pass runs its checkpoint before
// each block of pivots and stops at the first error, returning that error
// and no matrix.
func TestSquaringFixedPointCheckpoint(t *testing.T) {
	g, err := graph.RandomDigraph(100, graph.DigraphOpts{ArcProb: 0.2, MinWeight: 1, MaxWeight: 9}, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	ag := FromDigraph(g)
	errStop := errors.New("stop")
	calls := 0
	m, _, ok, err := SquaringFixedPoint(ag, 2, func() error {
		if calls++; calls == 3 {
			return errStop
		}
		return nil
	})
	if !errors.Is(err, errStop) || m != nil || ok {
		t.Fatalf("m=%v ok=%v err=%v, want errStop and no matrix", m, ok, err)
	}
	if calls != 3 {
		t.Fatalf("checkpoint ran %d times, want 3", calls)
	}
	calls = 0
	if _, _, ok, err := SquaringFixedPoint(ag, 2, func() error { calls++; return nil }); !ok || err != nil || calls != 4 {
		t.Fatalf("ok=%v err=%v checkpoints=%d, want 4 (one per block of 32 pivots)", ok, err, calls)
	}
}

// FuzzFixedPointMatchesChain holds the pass to the chain on fuzzed small
// inputs: a random fill of small weights at the given density, overlaid
// with explicit arcs whose weights are w1, w2 (any int64, clamped into
// [−∞, +∞] as Set does), a deleted arc, or a small value. Wherever the pass
// accepts it must equal APSPBySquaringInto exactly, and it must decline
// every input whose chain result has a negative diagonal. It must also take
// every input with no −∞ entry, no negative cycle and |w| ≤ 2²⁰, so a
// bound that declines too much fails as well.
func FuzzFixedPointMatchesChain(f *testing.F) {
	// The saturating sum 0→1 at Inf−1, 1→2 at 1.
	f.Add(uint8(1), uint64(0), uint8(0), graph.Inf-1, int64(1), []byte{0, 1, 0, 1, 2, 1})
	// The −Inf/2 negative 2-cycle with the tail 1→2→3.
	f.Add(uint8(30), uint64(0), uint8(0), -graph.Inf/2, int64(1), []byte{0, 1, 0, 1, 0, 0, 1, 2, 1, 2, 3, 1})
	f.Add(uint8(40), uint64(7), uint8(60), int64(-3), int64(1)<<40, []byte{5, 9, 0, 9, 5, 1, 3, 3, 2})
	f.Add(uint8(33), uint64(2), uint8(255), int64(0), graph.NegInf, []byte{1, 2, 7})
	f.Fuzz(func(t *testing.T, size uint8, seed uint64, density uint8, w1, w2 int64, arcs []byte) {
		n := 2 + int(size)%39
		rng := xrand.New(seed)
		ag := FromDigraph(graph.NewDigraph(n))
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && rng.Bool(float64(density)/255) {
					ag.Set(i, j, rng.Int64N(13)-2)
				}
			}
		}
		for ; len(arcs) >= 3; arcs = arcs[3:] {
			u, v, k := int(arcs[0])%n, int(arcs[1])%n, arcs[2]
			if u == v {
				continue
			}
			switch k % 4 {
			case 0:
				ag.Set(u, v, w1)
			case 1:
				ag.Set(u, v, w2)
			case 2:
				ag.Set(u, v, graph.Inf)
			default:
				ag.Set(u, v, int64(int8(k))/4)
			}
		}
		ok, negative := checkFixedPoint(t, "fuzz", ag)
		if ok || negative {
			return
		}
		small := true
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if v := ag.At(i, j); v < graph.Inf && (v < -1<<20 || v > 1<<20) {
					small = false
				}
			}
		}
		if small {
			t.Fatalf("declined an input with no −∞ entry, no negative cycle and |w| ≤ 2²⁰:\n%s", ag)
		}
	})
}

// BenchmarkSquaringFixedPoint times gossip's node-local work both ways at
// n=256: the early-exit chain over the blocked product and the one-pass
// fixed point, on the A_G of an E1-style digraph (arc probability 0.4,
// weights −8…8, three products to the fixed point) and of a directed path
// (the full budget of eight).
func BenchmarkSquaringFixedPoint(b *testing.B) {
	const n = 256
	g, err := graph.RandomDigraph(n, graph.DigraphOpts{
		ArcProb: 0.4, MinWeight: -8, MaxWeight: 8, NoNegativeCycles: true,
	}, xrand.New(n))
	if err != nil {
		b.Fatal(err)
	}
	path := FromDigraph(graph.NewDigraph(n))
	for i := 0; i+1 < n; i++ {
		path.Set(i, i+1, 1)
	}
	prod := func(dst, a, b *Matrix) error { return MulMinPlusInto(dst, a, b, 1) }
	for _, in := range []struct {
		name string
		ag   *Matrix
	}{{"ag", FromDigraph(g)}, {"path", path}} {
		b.Run(fmt.Sprintf("chain/%s/n=%d", in.name, n), func(b *testing.B) {
			for b.Loop() {
				if _, _, err := APSPBySquaringInto(in.ag, prod); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("pass/%s/n=%d", in.name, n), func(b *testing.B) {
			for b.Loop() {
				if _, _, ok, err := SquaringFixedPoint(in.ag, 1, noCheckpoint); !ok || err != nil {
					b.Fatal(ok, err)
				}
			}
		})
	}
}

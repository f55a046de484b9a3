package approx

import (
	"context"
	"testing"

	"qclique/internal/congest"
	"qclique/internal/distprod"
	"qclique/internal/graph"
	"qclique/internal/matrix"
	"qclique/internal/triangles"
)

func newTestNetwork(t *testing.T, n int) *congest.Network {
	t.Helper()
	net, err := congest.NewNetwork(n)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// chain drives one chainRun through its whole product budget in a plain
// loop, the engine's stages without the engine. It computes
// (1+ε)-approximate APSP distances for the adjacency matrix ag (0
// diagonal, nonnegative finite weights, +Inf for absent arcs): every
// returned entry d̂ satisfies d ≤ d̂ ≤ (1+ε)·d against the exact distance
// d, with reachability preserved exactly. −Inf or negative entries fail
// inside the product.
func chain(ag *matrix.Matrix, opts ChainOptions) (*matrix.Matrix, *ChainStats, error) {
	r, err := newChainRun(ag, opts)
	if err != nil {
		return nil, nil, err
	}
	if err := r.prepare(); err != nil {
		return nil, nil, err
	}
	for i := 0; i < r.budget && !r.done; i++ {
		if err := r.square(context.Background()); err != nil {
			return nil, nil, err
		}
	}
	return r.cur, r.stats, nil
}

// runChain solves g with the (1+ε) chain under scaled constants and
// returns the distances plus the rounds charged.
func runChain(t *testing.T, g *graph.Digraph, eps float64, seed uint64) (*matrix.Matrix, *ChainStats, int64) {
	t.Helper()
	params := triangles.BenchParams()
	net := newTestNetwork(t, 3*g.N())
	dist, stats, err := chain(matrix.FromDigraph(g), ChainOptions{
		Epsilon: eps,
		Solver:  distprod.SolverQuantum,
		Params:  &params,
		Seed:    seed,
		Net:     net,
	})
	if err != nil {
		t.Fatal(err)
	}
	return dist, stats, net.Rounds()
}

func TestChainStretchWithinGuarantee(t *testing.T) {
	for seed := uint64(0); seed < 3; seed++ {
		for _, tc := range chainCases(t, seed) {
			for _, eps := range []float64{0.25, 1.0} {
				dist, stats, rounds := runChain(t, tc.g, eps, seed)
				stretch, err := MeasureStretch(tc.g, dist)
				if err != nil {
					t.Fatalf("seed %d %s eps %v: %v", seed, tc.name, eps, err)
				}
				if stretch > 1+eps {
					t.Errorf("seed %d %s eps %v: observed stretch %v exceeds guarantee %v", seed, tc.name, eps, stretch, 1+eps)
				}
				if rounds <= 0 || stats.FindEdgesCalls <= 0 {
					t.Errorf("seed %d %s: no work accounted (rounds=%d calls=%d)", seed, tc.name, rounds, stats.FindEdgesCalls)
				}
			}
		}
	}
}

func TestChainDeterministicPerSeed(t *testing.T) {
	tc := chainCases(t, 7)[0]
	d1, _, r1 := runChain(t, tc.g, 0.5, 3)
	d2, _, r2 := runChain(t, tc.g, 0.5, 3)
	if !d1.Equal(d2) || r1 != r2 {
		t.Error("equal seeds must replay identical chain runs")
	}
}

func TestChainRejectsBadEpsilon(t *testing.T) {
	g := graph.NewDigraph(4)
	net := newTestNetwork(t, 12)
	if _, _, err := chain(matrix.FromDigraph(g), ChainOptions{Epsilon: 0, Net: net}); err == nil {
		t.Error("eps=0 must fail")
	}
	if _, _, err := chain(matrix.FromDigraph(g), ChainOptions{Epsilon: 0.5}); err == nil {
		t.Error("missing network must fail")
	}
}

func TestChainTrivialSizes(t *testing.T) {
	for n := 0; n <= 1; n++ {
		g := graph.NewDigraph(n)
		net := newTestNetwork(t, max(3*n, 1))
		dist, _, err := chain(matrix.FromDigraph(g), ChainOptions{Epsilon: 0.5, Net: net})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if dist.N() != n {
			t.Fatalf("n=%d: got %d×%d matrix", n, dist.N(), dist.N())
		}
	}
}

// TestChainLargeEpsilonLongPaths: the ladder bound must absorb the
// snap inflation of intermediate entries — a long path graph under a
// large epsilon used to fail mid-chain with "grid top does not cover
// weight bound".
func TestChainLargeEpsilonLongPaths(t *testing.T) {
	n := 32
	g := graph.NewDigraph(n)
	for i := 0; i+1 < n; i++ {
		if err := g.SetArc(i, i+1, 8); err != nil {
			t.Fatal(err)
		}
	}
	for _, eps := range []float64{20, MaxEpsilon} {
		net := newTestNetwork(t, 3*n)
		dist, _, err := chain(matrix.FromDigraph(g), ChainOptions{
			Epsilon: eps,
			Solver:  distprod.SolverDolev,
			Seed:    1,
			Net:     net,
		})
		if err != nil {
			t.Fatalf("eps=%v: %v", eps, err)
		}
		stretch, err := MeasureStretch(g, dist)
		if err != nil {
			t.Fatalf("eps=%v: %v", eps, err)
		}
		if stretch > 1+eps {
			t.Errorf("eps=%v: stretch %v exceeds guarantee", eps, stretch)
		}
	}
}

// TestChainFixpointStopsEarly pins the convergence vote: a dense graph
// with a tiny diameter must not run the full ⌈log₂ n⌉ products.
func TestChainFixpointStopsEarly(t *testing.T) {
	n := 16
	g := graph.NewDigraph(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v {
				if err := g.SetArc(u, v, 1); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	_, stats, _ := runChain(t, g, 0.5, 0)
	if !stats.ConvergedEarly {
		t.Errorf("complete graph did not converge early (%d products)", stats.Products)
	}
	if stats.Products >= 4 {
		t.Errorf("complete graph took %d products, expected the fixpoint vote to stop sooner", stats.Products)
	}
}

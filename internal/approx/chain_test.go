package approx

import (
	"context"
	"testing"

	"qclique/internal/engine"
	"qclique/internal/graph"
	"qclique/internal/matrix"
	"qclique/internal/triangles"
)

// runChain solves g with approx-quantum under scaled constants, through
// the engine as every caller runs it.
func runChain(t *testing.T, g *graph.Digraph, eps float64, seed uint64) *engine.Outcome {
	t.Helper()
	params := triangles.BenchParams()
	out, err := engine.Run(context.Background(), chainStrategy{}, &engine.Request{
		G: g, Params: &params, Seed: seed, Epsilon: eps,
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestChainStretchWithinGuarantee(t *testing.T) {
	for seed := uint64(0); seed < 3; seed++ {
		for _, tc := range chainCases(t, seed) {
			for _, eps := range []float64{0.25, 1.0} {
				out := runChain(t, tc.g, eps, seed)
				if out.ObservedStretch > 1+eps {
					t.Errorf("seed %d %s eps %v: observed stretch %v exceeds guarantee %v", seed, tc.name, eps, out.ObservedStretch, 1+eps)
				}
				if out.Rounds <= 0 || out.FindEdgesCalls <= 0 {
					t.Errorf("seed %d %s: no work accounted (rounds=%d calls=%d)", seed, tc.name, out.Rounds, out.FindEdgesCalls)
				}
			}
		}
	}
}

func TestChainDeterministicPerSeed(t *testing.T) {
	tc := chainCases(t, 7)[0]
	a := runChain(t, tc.g, 0.5, 3)
	b := runChain(t, tc.g, 0.5, 3)
	if !a.Dist.Equal(b.Dist) || a.Rounds != b.Rounds {
		t.Error("equal seeds must replay identical chain runs")
	}
}

// TestChainTrivialSizes runs the one-vertex chain, which has no product to
// run (an empty graph never reaches the engine; core's
// TestSolveTrivialInputs covers it).
func TestChainTrivialSizes(t *testing.T) {
	out := runChain(t, graph.NewDigraph(1), 0.5, 0)
	if out.Dist.N() != 1 || out.Dist.At(0, 0) != 0 {
		t.Fatalf("n=1: got %v", out.Dist)
	}
	if out.Products != 0 || out.Rounds != 0 {
		t.Errorf("n=1: %d products, %d rounds; want none", out.Products, out.Rounds)
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
		if out := runChain(t, g, eps, 1); out.ObservedStretch > 1+eps {
			t.Errorf("eps=%v: stretch %v exceeds guarantee", eps, out.ObservedStretch)
		}
	}
}

// TestChainFixpointStopsEarly pins the convergence vote: a dense graph
// with a tiny diameter must not run the full ⌈log₂ n⌉ products, and the
// engine records each product the vote skipped.
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
	out := runChain(t, g, 0.5, 0)
	budget := matrix.SquaringBudget(n)
	if out.Products >= budget {
		t.Fatalf("complete graph took %d products, expected the fixpoint vote to stop before %d", out.Products, budget)
	}
	skipped := 0
	for _, st := range out.Stages {
		if st.Skipped {
			skipped++
		}
	}
	if skipped != budget-out.Products {
		t.Errorf("%d stages skipped, want the %d products after the fixpoint", skipped, budget-out.Products)
	}
}

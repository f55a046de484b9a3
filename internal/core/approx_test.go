package core

import (
	"errors"
	"testing"

	"qclique/internal/approx"
	"qclique/internal/graph"
	"qclique/internal/triangles"
	"qclique/internal/xrand"
)

func nonnegDigraph(t *testing.T, n int, seed uint64) *graph.Digraph {
	t.Helper()
	g, err := graph.RandomDigraph(n, graph.DigraphOpts{ArcProb: 0.4, MinWeight: 0, MaxWeight: 8}, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSolveEpsilonValidation(t *testing.T) {
	g := nonnegDigraph(t, 6, 1)
	if _, err := Solve(g, Config{Strategy: StrategyGossip, Epsilon: 0.5}); err == nil {
		t.Error("epsilon on an exact strategy must fail")
	}
	if _, err := Solve(g, Config{Strategy: StrategyApproxQuantum}); err == nil {
		t.Error("approximate strategy without epsilon must fail")
	}
	if _, err := Solve(g, Config{Strategy: StrategyApproxSkeleton, Epsilon: -1}); err == nil {
		t.Error("negative epsilon must fail")
	}
}

func TestSolveApproxQuantum(t *testing.T) {
	params := triangles.BenchParams()
	g := nonnegDigraph(t, 14, 3)
	res, err := Solve(g, Config{Strategy: StrategyApproxQuantum, Params: &params, Seed: 0, Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epsilon != 0.5 || res.GuaranteedStretch != 1.5 {
		t.Errorf("epsilon echo = %v guarantee = %v, want 0.5 and 1.5", res.Epsilon, res.GuaranteedStretch)
	}
	if res.ObservedStretch < 1 || res.ObservedStretch > res.GuaranteedStretch {
		t.Errorf("observed stretch %v outside [1, %v]", res.ObservedStretch, res.GuaranteedStretch)
	}
	if res.Rounds <= 0 || res.FindEdgesCalls <= 0 || res.Products <= 0 {
		t.Errorf("approx solve accounted no work: %+v", res)
	}
	// Negative weights are rejected, not silently mis-approximated.
	neg := graph.NewDigraph(4)
	if err := neg.SetArc(0, 1, -2); err != nil {
		t.Fatal(err)
	}
	if _, err := Solve(neg, Config{Strategy: StrategyApproxQuantum, Epsilon: 0.5}); !errors.Is(err, approx.ErrNegativeWeight) {
		t.Errorf("negative weights: err = %v, want ErrNegativeWeight", err)
	}
}

func TestSolveApproxSkeleton(t *testing.T) {
	g, err := graph.RandomSymmetricDigraph(20, graph.DigraphOpts{ArcProb: 0.2, MinWeight: 1, MaxWeight: 10}, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(g, Config{Strategy: StrategyApproxSkeleton, Seed: 1, Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if res.GuaranteedStretch != 2.5 {
		t.Errorf("guarantee = %v, want 2.5", res.GuaranteedStretch)
	}
	if res.ObservedStretch < 1 || res.ObservedStretch > res.GuaranteedStretch {
		t.Errorf("observed stretch %v outside [1, %v]", res.ObservedStretch, res.GuaranteedStretch)
	}
	if res.Rounds <= 0 {
		t.Error("skeleton solve charged no rounds")
	}
	asym := nonnegDigraph(t, 8, 2)
	if _, err := Solve(asym, Config{Strategy: StrategyApproxSkeleton, Epsilon: 0.5}); !errors.Is(err, approx.ErrAsymmetric) {
		t.Errorf("asymmetric input: err = %v, want ErrAsymmetric", err)
	}
}

// TestApproxQuantumFewerRounds pins the point of the strategy: at ε=0.5 the
// ladder-searched chain must charge strictly fewer rounds than the exact
// pipeline on the same graph.
func TestApproxQuantumFewerRounds(t *testing.T) {
	params := triangles.BenchParams()
	g := nonnegDigraph(t, 32, 32)
	exact, err := Solve(g, Config{Strategy: StrategyQuantum, Params: &params, Seed: 0})
	if err != nil {
		t.Fatal(err)
	}
	ap, err := Solve(g, Config{Strategy: StrategyApproxQuantum, Params: &params, Seed: 0, Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if ap.Rounds >= exact.Rounds {
		t.Errorf("approx rounds %d not below exact %d", ap.Rounds, exact.Rounds)
	}
	if ap.FindEdgesCalls >= exact.FindEdgesCalls {
		t.Errorf("approx FindEdges calls %d not below exact %d", ap.FindEdgesCalls, exact.FindEdgesCalls)
	}
}

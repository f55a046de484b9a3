package core

import (
	"errors"
	"strings"
	"testing"

	"qclique/internal/engine"
	"qclique/internal/graph"
	"qclique/internal/matrix"
	"qclique/internal/triangles"
	"qclique/internal/xrand"
)

func randomAPSPInput(t *testing.T, n int, seed uint64) *graph.Digraph {
	t.Helper()
	rng := xrand.New(seed)
	g, err := graph.RandomDigraph(n, graph.DigraphOpts{
		ArcProb: 0.4, MinWeight: -6, MaxWeight: 14, NoNegativeCycles: true,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func checkDistances(t *testing.T, g *graph.Digraph, res *Result, label string) {
	t.Helper()
	want, err := graph.FloydWarshall(g)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if res.Dist.At(i, j) != want[i*n+j] {
				t.Fatalf("%s: d(%d,%d) = %d, want %d", label, i, j, res.Dist.At(i, j), want[i*n+j])
			}
		}
	}
}

// saturatingPathInput is 0→1 (w = Inf−1), 1→2 (w = 1): the in-range
// weights sum to Inf, so d(0,2) is Inf and no strategy may answer Inf−1.
func saturatingPathInput(t *testing.T) *graph.Digraph {
	t.Helper()
	g := graph.NewDigraph(3)
	if err := g.SetArc(0, 1, graph.Inf-1); err != nil {
		t.Fatal(err)
	}
	if err := g.SetArc(1, 2, 1); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSolveAllStrategiesExact(t *testing.T) {
	for _, in := range []struct {
		name string
		g    *graph.Digraph
	}{
		{"random n=16", randomAPSPInput(t, 16, 1)},
		{"saturating sum", saturatingPathInput(t)},
	} {
		budget := matrix.SquaringBudget(in.g.N())
		for _, s := range []string{StrategyGossip, StrategyDolev, StrategyClassicalSearch, StrategyQuantum} {
			label := in.name + "/" + s
			res, err := Solve(in.g, Config{Strategy: s, Seed: 7})
			if err != nil {
				t.Fatalf("%v: %v", label, err)
			}
			checkDistances(t, in.g, res, label)
			if res.Strategy != s {
				t.Errorf("%v: strategy echo = %v", label, res.Strategy)
			}
			if res.Rounds <= 0 {
				t.Errorf("%v: no rounds charged", label)
			}
			// Gossip's node-local chain stops at its fixed point; the search
			// pipelines run the whole ⌈log₂ n⌉ budget, because an early exit
			// there would need a vote that charges rounds.
			if s == StrategyGossip {
				if res.Products < 1 || res.Products > budget {
					t.Errorf("%v: %d products, want 1..%d", label, res.Products, budget)
				}
			} else if res.Products != budget {
				t.Errorf("%v: %d products, want the full budget %d", label, res.Products, budget)
			}
		}
	}
}

func TestSolveMultipleSeedsAndSizes(t *testing.T) {
	for _, n := range []int{8, 12, 20} {
		for seed := uint64(0); seed < 2; seed++ {
			g := randomAPSPInput(t, n, 100*uint64(n)+seed)
			res, err := Solve(g, Config{Strategy: StrategyQuantum, Seed: seed})
			if err != nil {
				t.Fatalf("n=%d seed=%d: %v", n, seed, err)
			}
			checkDistances(t, g, res, "quantum")
		}
	}
}

func TestSolvePropositionCounts(t *testing.T) {
	// Proposition 3: ⌈log₂ n⌉ products; Proposition 2: each product makes
	// O(log M) FindEdges calls.
	g := randomAPSPInput(t, 16, 3)
	res, err := Solve(g, Config{Strategy: StrategyDolev, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Products != 4 { // ceil(log2(16))
		t.Errorf("products = %d, want 4", res.Products)
	}
	if res.FindEdgesCalls < res.Products {
		t.Errorf("FindEdges calls = %d, below product count", res.FindEdgesCalls)
	}
	// logM per product with M ≤ 2·n·W: generous upper bound on calls.
	maxPerProduct := 2 + 64 // log2 of int64 range cap
	if res.FindEdgesCalls > res.Products*maxPerProduct {
		t.Errorf("FindEdges calls = %d, implausibly many", res.FindEdgesCalls)
	}
}

func TestSolveNegativeCycle(t *testing.T) {
	g := graph.NewDigraph(5)
	for _, a := range [][3]int64{{0, 1, 2}, {1, 2, -7}, {2, 0, 1}, {3, 4, 1}} {
		if err := g.SetArc(int(a[0]), int(a[1]), a[2]); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range []string{StrategyGossip, StrategyDolev} {
		res, err := Solve(g, Config{Strategy: s, Seed: 2})
		if !errors.Is(err, ErrNegativeCycle) {
			t.Errorf("%v: err = %v, want ErrNegativeCycle", s, err)
		}
		if res == nil || !res.Dist.HasNegativeDiagonal() {
			t.Errorf("%v: result must carry the negative diagonal", s)
		}
	}
}

// arcDigraph returns the n-vertex digraph with the arcs {u, v, w}.
func arcDigraph(t *testing.T, n int, arcs ...[3]int64) *graph.Digraph {
	t.Helper()
	g := graph.NewDigraph(n)
	for _, a := range arcs {
		if err := g.SetArc(int(a[0]), int(a[1]), a[2]); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// TestSolveSaturatingNegativeCycle: every exact strategy answers
// ErrNegativeCycle on two negative cycles whose sums saturate to −∞.
//   - 0→1 at NegInf+1 and 1→0 at −1: the first squaring saturates d(0,0)
//     to −∞. The search pipelines used to stop at the next product, which
//     refuses −∞ entries, with an untyped error.
//   - 0→1 and 1→2 at −(Inf/2)−10 next to the cycle 3→4→5→3 (1, 1, −3):
//     the first squaring saturates d(0,2) to −∞ before the 3-cycle shows on
//     the diagonal. The search pipelines used to answer
//     ErrSaturatedDistance, reading the product input alone.
func TestSolveSaturatingNegativeCycle(t *testing.T) {
	for _, g := range []*graph.Digraph{
		arcDigraph(t, 3, [3]int64{0, 1, graph.NegInf + 1}, [3]int64{1, 0, -1}),
		arcDigraph(t, 6, [3]int64{0, 1, -(graph.Inf / 2) - 10}, [3]int64{1, 2, -(graph.Inf / 2) - 10},
			[3]int64{3, 4, 1}, [3]int64{4, 5, 1}, [3]int64{5, 3, -3}),
	} {
		for _, s := range []string{StrategyGossip, StrategyDolev, StrategyClassicalSearch, StrategyQuantum} {
			if _, err := Solve(g, Config{Strategy: s, Seed: 2}); !errors.Is(err, ErrNegativeCycle) {
				t.Errorf("n=%d %v: err = %v, want ErrNegativeCycle", g.N(), s, err)
			}
		}
	}
}

// TestSolveNegativeCycleStillErrors pins the solver-level behavior the
// path oracle relies on: a negative 2-cycle solves to ErrNegativeCycle
// before any distance can be served.
func TestSolveNegativeCycleStillErrors(t *testing.T) {
	g := arcDigraph(t, 2, [3]int64{0, 1, -1}, [3]int64{1, 0, 0})
	if _, err := Solve(g, Config{Strategy: StrategyGossip}); !errors.Is(err, ErrNegativeCycle) {
		t.Errorf("negative 2-cycle: err = %v, want ErrNegativeCycle", err)
	}
}

// TestGossipStopsAtFixedPoint: on this n=32 input gossip's node-local
// chain reaches its fixed point after 4 of its 5 squarings, with the
// full-budget chain's distances bit for bit.
func TestGossipStopsAtFixedPoint(t *testing.T) {
	const n = 32
	g := randomAPSPInput(t, n, 1)
	want, _, err := matrix.APSPBySquaring(matrix.FromDigraph(g), matrix.DistanceProduct)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(g, Config{Strategy: StrategyGossip, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Dist.Equal(want) {
		t.Error("distances differ from the full-budget chain")
	}
	if budget := matrix.SquaringBudget(n); res.Products >= budget {
		t.Errorf("%d products, want the fixed point before the budget %d", res.Products, budget)
	}
}

// TestGossipNegativeCycleAtFixedPoint: a negative 2-cycle whose arcs weigh
// −Inf/2 saturates to −∞ within two squarings and reaches the end of the
// tail 1→2→3 at the third; the fourth changes nothing, so gossip stops
// before its budget of five. The solve must still report ErrNegativeCycle
// with the full-budget chain's distances.
func TestGossipNegativeCycleAtFixedPoint(t *testing.T) {
	const n = 32
	g := graph.NewDigraph(n)
	for _, a := range [][3]int64{{0, 1, -graph.Inf / 2}, {1, 0, -graph.Inf / 2}, {1, 2, 1}, {2, 3, 1}} {
		if err := g.SetArc(int(a[0]), int(a[1]), a[2]); err != nil {
			t.Fatal(err)
		}
	}
	want, _, err := matrix.APSPBySquaring(matrix.FromDigraph(g), matrix.DistanceProduct)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(g, Config{Strategy: StrategyGossip})
	if !errors.Is(err, ErrNegativeCycle) {
		t.Fatalf("err = %v, want ErrNegativeCycle", err)
	}
	if !res.Dist.Equal(want) {
		t.Error("distances differ from the full-budget chain")
	}
	if budget := matrix.SquaringBudget(n); res.Products >= budget {
		t.Errorf("%d products, want the fixed point before the budget %d", res.Products, budget)
	}
}

func TestSolveTrivialInputs(t *testing.T) {
	if _, err := Solve(nil, Config{}); err == nil {
		t.Error("nil graph must fail")
	}
	for _, cfg := range engineTestStrategies() {
		res, err := Solve(graph.NewDigraph(0), cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Strategy, err)
		}
		if res.Dist.N() != 0 {
			t.Errorf("%s: empty graph must give empty result", cfg.Strategy)
		}
		res, err = Solve(graph.NewDigraph(1), cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Strategy, err)
		}
		if res.Dist.N() != 1 || res.Dist.At(0, 0) != 0 {
			t.Errorf("%s: singleton diagonal must be 0", cfg.Strategy)
		}
	}
}

func TestSolveDisconnected(t *testing.T) {
	g := graph.NewDigraph(6)
	if err := g.SetArc(0, 1, 4); err != nil {
		t.Fatal(err)
	}
	if err := g.SetArc(4, 5, -2); err != nil {
		t.Fatal(err)
	}
	res, err := Solve(g, Config{Strategy: StrategyDolev, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkDistances(t, g, res, "disconnected")
	if res.Dist.At(0, 5) != graph.Inf {
		t.Error("cross-component distance must be Inf")
	}
	if res.Dist.At(4, 5) != -2 {
		t.Error("negative arc distance wrong")
	}
}

func TestSolveWeightBoundEcho(t *testing.T) {
	g := graph.NewDigraph(4)
	if err := g.SetArc(0, 1, -9); err != nil {
		t.Fatal(err)
	}
	res, err := Solve(g, Config{Strategy: StrategyGossip})
	if err != nil {
		t.Fatal(err)
	}
	if res.W != 9 {
		t.Errorf("W = %d, want 9", res.W)
	}
}

func TestSolveScaledParams(t *testing.T) {
	g := randomAPSPInput(t, 16, 9)
	p := triangles.BenchParams()
	res, err := Solve(g, Config{Strategy: StrategyQuantum, Params: &p, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	checkDistances(t, g, res, "scaled")
}

func TestSolveUnknownStrategy(t *testing.T) {
	_, err := Solve(graph.NewDigraph(2), Config{Strategy: "warp-drive"})
	if err == nil || !strings.Contains(err.Error(), "registered: approx-quantum") {
		t.Errorf("err = %v, want a rejection listing the registered strategies", err)
	}
}

// TestStrategyStrings pins the name constants' spelling: each is the
// canonical name of the registered pipeline it looks up.
func TestStrategyStrings(t *testing.T) {
	for name, want := range map[string]string{
		StrategyQuantum:         "quantum",
		StrategyClassicalSearch: "classical-search",
		StrategyDolev:           "dolev",
		StrategyGossip:          "gossip",
		StrategyApproxQuantum:   "approx-quantum",
		StrategyApproxSkeleton:  "approx-skeleton",
		StrategyAuto:            "auto",
	} {
		if name != want {
			t.Errorf("constant %q, want %q", name, want)
		}
		if name == StrategyAuto {
			continue
		}
		if st, ok := engine.Lookup(name); !ok || st.Name() != name {
			t.Errorf("%q does not resolve to a pipeline of that name", name)
		}
	}
}

func TestGossipRoundsAreLinear(t *testing.T) {
	for _, n := range []int{8, 32, 64} {
		g := randomAPSPInput(t, n, uint64(n))
		res, err := Solve(g, Config{Strategy: StrategyGossip})
		if err != nil {
			t.Fatal(err)
		}
		if res.Rounds != int64(n) {
			t.Errorf("n=%d: gossip rounds = %d, want n", n, res.Rounds)
		}
	}
}

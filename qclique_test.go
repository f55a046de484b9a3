package qclique

import (
	"errors"
	"reflect"
	"sort"
	"strings"
	"testing"

	"qclique/internal/engine"
	"qclique/internal/graph"
	"qclique/internal/xrand"
)

// toPublicDigraph copies an internal graph through the public Digraph
// constructor.
func toPublicDigraph(tb testing.TB, inner *graph.Digraph) *Digraph {
	tb.Helper()
	n := inner.N()
	d := NewDigraph(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if w, ok := inner.Weight(u, v); ok {
				if err := d.SetArc(u, v, w); err != nil {
					tb.Fatal(err)
				}
			}
		}
	}
	return d
}

func buildRandomDigraph(t *testing.T, n int, seed uint64) *Digraph {
	t.Helper()
	rng := xrand.New(seed)
	inner, err := graph.RandomDigraph(n, graph.DigraphOpts{
		ArcProb: 0.4, MinWeight: -5, MaxWeight: 12, NoNegativeCycles: true,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return toPublicDigraph(t, inner)
}

func referenceDistances(t *testing.T, d *Digraph) [][]int64 {
	t.Helper()
	n := d.N()
	inner := graph.NewDigraph(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if w, ok := d.Weight(u, v); ok {
				if err := inner.SetArc(u, v, w); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	flat, err := graph.FloydWarshall(inner)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]int64, n)
	for i := range out {
		out[i] = flat[i*n : (i+1)*n]
	}
	return out
}

func TestSolveAPSPAllStrategies(t *testing.T) {
	d := buildRandomDigraph(t, 16, 11)
	want := referenceDistances(t, d)
	for _, s := range []Strategy{Quantum, ClassicalSearch, DolevListing, Gossip} {
		res, err := SolveAPSP(d, WithStrategy(s), WithSeed(3))
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if res.Strategy != s {
			t.Errorf("strategy echo = %v", res.Strategy)
		}
		for i := range want {
			for j := range want[i] {
				if res.Dist[i][j] != want[i][j] {
					t.Fatalf("%v: d(%d,%d) = %d, want %d", s, i, j, res.Dist[i][j], want[i][j])
				}
			}
		}
		if res.Rounds <= 0 {
			t.Errorf("%v: rounds = %d", s, res.Rounds)
		}
	}
}

func TestSolveAPSPNegativeCycle(t *testing.T) {
	d := NewDigraph(4)
	for _, a := range [][3]int64{{0, 1, 1}, {1, 2, -4}, {2, 0, 1}} {
		if err := d.SetArc(int(a[0]), int(a[1]), a[2]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := SolveAPSP(d, WithStrategy(Gossip)); !errors.Is(err, ErrNegativeCycle) {
		t.Errorf("err = %v, want ErrNegativeCycle", err)
	}
}

// TestSettersRejectNonFiniteWeights: the public setters refuse a weight
// outside (−Inf, Inf), which would otherwise be stored as −∞ or as an
// absent arc.
func TestSettersRejectNonFiniteWeights(t *testing.T) {
	d, g := NewDigraph(3), NewGraph(3)
	for _, w := range []int64{-Inf, Inf} {
		if err := d.SetArc(0, 1, w); err == nil {
			t.Errorf("Digraph.SetArc(0, 1, %d) accepted", w)
		}
		if err := g.SetEdge(0, 1, w); err == nil {
			t.Errorf("Graph.SetEdge(0, 1, %d) accepted", w)
		}
	}
}

func TestSolveAPSPNil(t *testing.T) {
	if _, err := SolveAPSP(nil); err == nil {
		t.Error("nil graph must fail")
	}
}

func TestSolveAPSPUnreachable(t *testing.T) {
	d := NewDigraph(3)
	if err := d.SetArc(0, 1, 5); err != nil {
		t.Fatal(err)
	}
	res, err := SolveAPSP(d, WithStrategy(Gossip))
	if err != nil {
		t.Fatal(err)
	}
	if res.Dist[0][2] != Inf || res.Dist[1][0] != Inf {
		t.Error("unreachable pairs must be Inf")
	}
	if res.Dist[0][1] != 5 || res.Dist[0][0] != 0 {
		t.Error("reachable distances wrong")
	}
}

func TestFindNegativeTriangleEdges(t *testing.T) {
	g := NewGraph(16)
	set := func(u, v int, w int64) {
		t.Helper()
		if err := g.SetEdge(u, v, w); err != nil {
			t.Fatal(err)
		}
	}
	set(0, 1, -7)
	set(0, 2, 2)
	set(1, 2, 2) // negative triangle {0,1,2}
	set(3, 4, 5)
	set(3, 5, 5)
	set(4, 5, 5) // positive triangle
	want := []Edge{{0, 1}, {0, 2}, {1, 2}}
	for _, s := range []Strategy{Quantum, ClassicalSearch, DolevListing} {
		rep, err := FindNegativeTriangleEdges(g, WithStrategy(s), WithSeed(5))
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		got := append([]Edge(nil), rep.Edges...)
		sort.Slice(got, func(i, j int) bool {
			if got[i].U != got[j].U {
				return got[i].U < got[j].U
			}
			return got[i].V < got[j].V
		})
		if len(got) != len(want) {
			t.Fatalf("%v: edges = %v, want %v", s, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v: edges = %v, want %v", s, got, want)
			}
		}
		if rep.Rounds <= 0 {
			t.Errorf("%v: rounds = %d", s, rep.Rounds)
		}
	}
	if _, err := FindNegativeTriangleEdges(nil); err == nil {
		t.Error("nil graph must fail")
	}
}

func TestDistanceProductPublic(t *testing.T) {
	a := [][]int64{
		{0, 2, Inf},
		{Inf, 0, -1},
		{4, Inf, 0},
	}
	b := a
	for _, s := range []Strategy{Gossip, DolevListing, ClassicalSearch, Quantum} {
		res, err := DistanceProduct(a, b, WithStrategy(s), WithSeed(2))
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if res.C[0][2] != 1 {
			t.Errorf("%v: C[0][2] = %d, want 1", s, res.C[0][2])
		}
		if res.C[2][1] != 6 {
			t.Errorf("%v: C[2][1] = %d, want 6", s, res.C[2][1])
		}
	}
	if _, err := DistanceProduct([][]int64{{0, 1}}, a); err == nil {
		t.Error("ragged matrix must fail")
	}
}

// TestDistanceProductRejectsUnsupported: the product is exact and runs on a
// FindEdges solver or Gossip, so any other strategy, and any epsilon, is
// refused instead of silently running the exact quantum product.
func TestDistanceProductRejectsUnsupported(t *testing.T) {
	a := [][]int64{
		{0, 2, Inf},
		{Inf, 0, -1},
		{4, Inf, 0},
	}
	for _, tc := range []struct {
		name string
		opts []Option
		want string
	}{
		{"approx-skeleton with epsilon", []Option{WithStrategy(ApproxSkeleton), WithEpsilon(0.5)}, string(ApproxSkeleton)},
		{"approx-quantum", []Option{WithStrategy(ApproxQuantum)}, string(ApproxQuantum)},
		{"planner", []Option{WithPlanner()}, string(StrategyAuto)},
		{"quantum with epsilon", []Option{WithStrategy(Quantum), WithEpsilon(0.5)}, "epsilon"},
	} {
		res, err := DistanceProduct(a, a, tc.opts...)
		if err == nil {
			t.Errorf("%s: accepted, ran %d rounds", tc.name, res.Rounds)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestScaledConstantsPreset(t *testing.T) {
	d := buildRandomDigraph(t, 16, 21)
	want := referenceDistances(t, d)
	res, err := SolveAPSP(d, WithStrategy(Quantum), WithParams(ScaledConstants), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		for j := range want[i] {
			if res.Dist[i][j] != want[i][j] {
				t.Fatalf("d(%d,%d) = %d, want %d", i, j, res.Dist[i][j], want[i][j])
			}
		}
	}
}

// TestStrategyConstantsAreRegistryNames pins the one identity of a
// strategy: every exported pipeline constant resolves through the engine
// registry to itself, Strategies() lists exactly those six, and
// StrategyAuto is a planner sentinel, not a pipeline.
func TestStrategyConstantsAreRegistryNames(t *testing.T) {
	consts := []Strategy{ApproxQuantum, ApproxSkeleton, ClassicalSearch, DolevListing, Gossip, Quantum}
	for _, s := range consts {
		if st, ok := engine.Lookup(string(s)); !ok || st.Name() != string(s) {
			t.Errorf("constant %q does not resolve to itself in the registry", s)
		}
	}
	if _, ok := engine.Lookup(string(StrategyAuto)); ok {
		t.Errorf("%q must not be a registered pipeline", StrategyAuto)
	}
	var listed []Strategy
	for _, si := range Strategies() {
		listed = append(listed, si.Strategy)
	}
	if !reflect.DeepEqual(listed, consts) {
		t.Errorf("Strategies() = %v, want %v", listed, consts)
	}
}

// TestUnregisteredStrategyRejected: a strategy name with no registered
// pipeline fails every entry point with the registered names listed,
// instead of silently running quantum.
func TestUnregisteredStrategyRejected(t *testing.T) {
	const want = "registered: approx-quantum, approx-skeleton, classical-search, dolev, gossip, quantum"
	bogus := WithStrategy(Strategy("warp-drive"))
	d := NewDigraph(4)
	if err := d.SetArc(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	g := NewGraph(4)
	if err := g.SetEdge(0, 1, -2); err != nil {
		t.Fatal(err)
	}
	m := [][]int64{{0, 1}, {Inf, 0}}
	calls := map[string]func() error{
		"Options.Validate": func() error { return Options{Strategy: "warp-drive"}.Validate() },
		"SolveAPSP": func() error {
			_, err := SolveAPSP(d, bogus)
			return err
		},
		"Solver.Solve": func() error {
			_, err := NewSolver().Solve(d, bogus)
			return err
		},
		"FindNegativeTriangleEdges": func() error {
			_, err := FindNegativeTriangleEdges(g, bogus)
			return err
		},
		"DistanceProduct": func() error {
			_, err := DistanceProduct(m, m, bogus)
			return err
		},
	}
	for name, call := range calls {
		if err := call(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want a rejection listing the registered strategies", name, err)
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	d := buildRandomDigraph(t, 16, 33)
	a, err := SolveAPSP(d, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := SolveAPSP(d, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if a.Rounds != b.Rounds {
		t.Errorf("same seed, different rounds: %d vs %d", a.Rounds, b.Rounds)
	}
}

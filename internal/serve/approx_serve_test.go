package serve

import (
	"context"
	"errors"
	"testing"

	"qclique/internal/core"
	"qclique/internal/graph"
	"qclique/internal/xrand"
)

func testNonnegDigraph(t *testing.T, n int, seed uint64) *graph.Digraph {
	t.Helper()
	g, err := graph.RandomDigraph(n, graph.DigraphOpts{
		ArcProb: 0.35, MinWeight: 0, MaxWeight: 9,
	}, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSpecValidation(t *testing.T) {
	s := New(Config{})
	g := testDigraph(t, 6, 1)
	if _, err := s.SolveGraph(g, SolveSpec{Strategy: core.StrategyGossip, Epsilon: 0.5}); !errors.Is(err, ErrInvalidSpec) {
		t.Errorf("epsilon on exact strategy: err = %v, want ErrInvalidSpec", err)
	}
	if _, err := s.SolveGraph(g, SolveSpec{Strategy: core.StrategyApproxQuantum}); !errors.Is(err, ErrInvalidSpec) {
		t.Errorf("approx without epsilon: err = %v, want ErrInvalidSpec", err)
	}
	// Epsilons outside [MinEpsilon, MaxEpsilon] are rejected up front —
	// tiny values would otherwise buy unbounded ladder CPU per request.
	for _, eps := range []float64{1e-18, 1e-9, 1e6} {
		if _, err := s.SolveGraph(g, SolveSpec{Strategy: core.StrategyApproxQuantum, Epsilon: eps}); !errors.Is(err, ErrInvalidSpec) {
			t.Errorf("epsilon %v: err = %v, want ErrInvalidSpec", eps, err)
		}
	}
	// Path reconstruction is an exact-strategy service: approximate
	// distances carry no tight-successor structure to walk.
	ng := testNonnegDigraph(t, 8, 2)
	if _, _, err := s.PathsBatchGraphContext(context.Background(), ng, SolveSpec{Strategy: core.StrategyApproxQuantum, Epsilon: 0.5}, []PathQuery{{Src: 0, Dst: 1}}); !errors.Is(err, ErrApproxPaths) {
		t.Errorf("paths under approx strategy: err = %v, want ErrApproxPaths", err)
	}
	// Invalid specs must not pollute the accounting: no request recorded.
	if st := s.Stats(); len(st.Strategies) != 0 {
		t.Errorf("invalid specs were accounted: %+v", st.Strategies)
	}
}

// TestEpsilonInCacheKey: two approximate solves of the same graph that
// differ only in epsilon are distinct results — sharing an entry would
// serve one accuracy contract under another's name.
func TestEpsilonInCacheKey(t *testing.T) {
	s := New(Config{})
	g := testNonnegDigraph(t, 10, 7)
	spec := SolveSpec{Strategy: core.StrategyApproxQuantum, Preset: PresetScaled, Epsilon: 0.5}
	r1, err := s.SolveGraph(g, spec)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cached {
		t.Fatal("first solve reported cached")
	}
	spec2 := spec
	spec2.Epsilon = 1.0
	r2, err := s.SolveGraph(g, spec2)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Cached {
		t.Error("different epsilon must miss the cache")
	}
	if r2.Res.GuaranteedStretch != 2.0 {
		t.Errorf("eps=1 guarantee = %v, want 2", r2.Res.GuaranteedStretch)
	}
	r3, err := s.SolveGraph(g, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !r3.Cached || r3.Res != r1.Res {
		t.Error("identical epsilon must hit the original entry")
	}
}

// TestGraphAccessorClone: mutating the graph handed out by Service.Graph
// must not poison the content-addressed store or the solve cache.
func TestGraphAccessorClone(t *testing.T) {
	s := New(Config{})
	g := testDigraph(t, 8, 3)
	id, err := s.PutGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	spec := SolveSpec{Strategy: core.StrategyGossip}
	before, err := s.Solve(id, spec)
	if err != nil {
		t.Fatal(err)
	}

	leaked, err := s.Graph(id)
	if err != nil {
		t.Fatal(err)
	}
	if err := leaked.SetArc(0, 1, -999); err != nil {
		t.Fatal(err)
	}

	// The store's content must still match its id...
	stored, err := s.store.get(id)
	if err != nil {
		t.Fatal(err)
	}
	if HashDigraph(stored.g) != id {
		t.Fatal("mutating the accessor result changed the stored graph")
	}
	// ...and a re-solve must reproduce the original distances, not ones
	// computed over the mutated copy.
	after, err := s.Solve(id, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !after.Cached {
		t.Error("re-solve of an untouched stored graph must hit the cache")
	}
	if !after.Res.Dist.Equal(before.Res.Dist) {
		t.Error("distances changed after mutating the accessor's graph")
	}
}

package qclique

import (
	"errors"
	"reflect"
	"sync"
	"testing"
)

// TestSolverCachedResolveZeroRounds: the headline serving property — a
// re-solve of an unchanged graph performs zero simulator rounds and
// returns a bit-identical result. The cached result is shared by every
// caller, so editing one returned result's stages leaves the next one's
// unchanged.
func TestSolverCachedResolveZeroRounds(t *testing.T) {
	g := buildRandomDigraph(t, 10, 9)
	s := NewSolver(WithStrategy(Quantum), WithParams(ScaledConstants), WithSeed(5))

	fresh, err := s.Solve(g)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Cached {
		t.Fatal("first solve must not be cached")
	}
	charged := s.Stats().Strategies["quantum"].RoundsCharged
	if charged != fresh.Rounds {
		t.Fatalf("charged %d rounds, result reports %d", charged, fresh.Rounds)
	}
	stages := append([]StageStat(nil), fresh.Stages...)
	for i := range fresh.Stages {
		fresh.Stages[i].Name, fresh.Stages[i].Rounds = "edited", -1
	}

	cached, err := s.Solve(g)
	if err != nil {
		t.Fatal(err)
	}
	if !cached.Cached {
		t.Fatal("re-solve of an unchanged graph must be cached")
	}
	if got := s.Stats().Strategies["quantum"].RoundsCharged; got != charged {
		t.Fatalf("cached re-solve charged simulator rounds: %d -> %d", charged, got)
	}
	if cached.Rounds != fresh.Rounds {
		t.Fatalf("cached result reports %d rounds, fresh %d", cached.Rounds, fresh.Rounds)
	}
	if len(stages) == 0 || !reflect.DeepEqual(cached.Stages, stages) {
		t.Fatalf("cached stages = %+v, want the original run's %+v", cached.Stages, stages)
	}
	for i := range fresh.Dist {
		for j := range fresh.Dist[i] {
			if cached.Dist[i][j] != fresh.Dist[i][j] {
				t.Fatalf("d(%d,%d): cached %d != fresh %d", i, j, cached.Dist[i][j], fresh.Dist[i][j])
			}
		}
	}

	// Mutating the graph changes its content identity: a new solve runs.
	if err := g.SetArc(0, 5, 1); err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Fatal("mutated graph must not be served from the stale entry")
	}
}

// TestSolverMatchesSolveAPSP: the cached path returns exactly what the
// one-shot entry point computes.
func TestSolverMatchesSolveAPSP(t *testing.T) {
	g := buildRandomDigraph(t, 12, 31)
	want, err := SolveAPSP(g, WithStrategy(Gossip), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	s := NewSolver(WithStrategy(Gossip), WithSeed(3))
	for round := 0; round < 2; round++ {
		got, err := s.Solve(g)
		if err != nil {
			t.Fatal(err)
		}
		if got.Rounds != want.Rounds || got.Products != want.Products {
			t.Fatalf("round %d: accounting (%d,%d) != SolveAPSP (%d,%d)",
				round, got.Rounds, got.Products, want.Rounds, want.Products)
		}
		for i := range want.Dist {
			for j := range want.Dist[i] {
				if got.Dist[i][j] != want.Dist[i][j] {
					t.Fatalf("round %d: d(%d,%d) = %d, want %d", round, i, j, got.Dist[i][j], want.Dist[i][j])
				}
			}
		}
	}
}

// TestSolverSSSPAndPaths: SSSP rows and batch paths share one cached solve.
func TestSolverSSSPAndPaths(t *testing.T) {
	g := buildRandomDigraph(t, 12, 77)
	s := NewSolver(WithStrategy(Gossip))

	full, err := s.Solve(g)
	if err != nil {
		t.Fatal(err)
	}
	var queries []PathQuery
	for src := 0; src < g.N(); src++ {
		row, res, err := s.SSSP(g, src)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Cached {
			t.Fatalf("SSSP(src=%d) re-ran the simulator", src)
		}
		for v := range row {
			if row[v] != full.Dist[src][v] {
				t.Fatalf("d(%d,%d) = %d, want %d", src, v, row[v], full.Dist[src][v])
			}
		}
		for dst := 0; dst < g.N(); dst++ {
			queries = append(queries, PathQuery{Src: src, Dst: dst})
		}
	}

	answers, res, err := s.PathsBatch(g, queries)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Fatal("batch must reuse the cached solve")
	}
	for _, a := range answers {
		want := full.Dist[a.Src][a.Dst]
		if want >= Inf {
			if !errors.Is(a.Err, ErrNoPath) {
				t.Fatalf("(%d,%d): err = %v, want ErrNoPath", a.Src, a.Dst, a.Err)
			}
			continue
		}
		if a.Err != nil || a.Dist != want {
			t.Fatalf("(%d,%d): dist %d err %v, want %d", a.Src, a.Dst, a.Dist, a.Err, want)
		}
		var total int64
		for i := 0; i+1 < len(a.Path); i++ {
			w, ok := g.Weight(a.Path[i], a.Path[i+1])
			if !ok {
				t.Fatalf("(%d,%d): broken path %v", a.Src, a.Dst, a.Path)
			}
			total += w
		}
		if total != want {
			t.Fatalf("(%d,%d): path weight %d, want %d", a.Src, a.Dst, total, want)
		}
	}

	path, d, err := s.ShortestPath(g, 0, g.N()-1)
	if err == nil {
		if d != full.Dist[0][g.N()-1] || path[0] != 0 || path[len(path)-1] != g.N()-1 {
			t.Fatalf("ShortestPath = %v (%d), inconsistent with solve", path, d)
		}
	} else if !errors.Is(err, ErrNoPath) {
		t.Fatal(err)
	}

	st := s.Stats()
	if st.Strategies["gossip"].Solves != 1 {
		t.Fatalf("whole flow ran %d solves, want 1", st.Strategies["gossip"].Solves)
	}
	if st.PathQueries != int64(len(queries)) {
		t.Fatalf("path queries = %d, want %d", st.PathQueries, len(queries))
	}
}

// TestSolverConcurrentDedup: concurrent identical solves through the
// public API run the simulator once.
func TestSolverConcurrentDedup(t *testing.T) {
	g := buildRandomDigraph(t, 8, 2)
	s := NewSolver(WithStrategy(Quantum), WithParams(ScaledConstants))

	const callers = 6
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer done.Done()
			start.Wait()
			_, errs[i] = s.Solve(g)
		}(i)
	}
	start.Done()
	done.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	if got := s.Stats().Strategies["quantum"].Solves; got != 1 {
		t.Fatalf("simulator ran %d times for %d concurrent identical solves, want 1", got, callers)
	}
}

// TestSolverCacheSizeOption: WithCacheSize(1) evicts the older of two
// graphs.
func TestSolverCacheSizeOption(t *testing.T) {
	g1 := buildRandomDigraph(t, 9, 1)
	g2 := buildRandomDigraph(t, 9, 2)
	s := NewSolver(WithStrategy(Gossip), WithCacheSize(1))
	for _, g := range []*Digraph{g1, g2, g1} {
		if _, err := s.Solve(g); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats().Strategies["gossip"].Solves; got != 3 {
		t.Fatalf("solves = %d, want 3 under a size-1 cache", got)
	}
	if got := s.Stats().CachedResults; got != 1 {
		t.Fatalf("cached results = %d, want 1", got)
	}
}

// TestSolverValidation covers the defensive paths.
func TestSolverValidation(t *testing.T) {
	var nilSolver *Solver
	if _, err := nilSolver.Solve(NewDigraph(2)); err == nil {
		t.Error("nil solver must fail")
	}
	s := NewSolver()
	if _, err := s.Solve(nil); err == nil {
		t.Error("nil graph must fail")
	}
	if _, _, err := s.SSSP(nil, 0); err == nil {
		t.Error("SSSP nil graph must fail")
	}
	if _, _, err := s.SSSP(NewDigraph(3), 9); err == nil {
		t.Error("SSSP bad source must fail")
	}
	if _, _, err := s.PathsBatch(nil, nil); err == nil {
		t.Error("PathsBatch nil graph must fail")
	}
	if _, _, err := s.ShortestPath(NewDigraph(3), 0, 9, WithStrategy(Gossip)); err == nil {
		t.Error("ShortestPath bad dst must fail")
	}
	// Bad endpoints are rejected before anything is solved.
	g := buildRandomDigraph(t, 8, 3)
	if _, _, err := s.ShortestPath(g, -1, 0); err == nil {
		t.Error("ShortestPath bad src must fail")
	}
	if _, _, err := s.ShortestPath(g, 0, g.N()); err == nil {
		t.Error("ShortestPath dst n must fail")
	}
	for name, st := range s.Stats().Strategies {
		if st.Solves != 0 {
			t.Errorf("%s: %d solves, want none for rejected requests", name, st.Solves)
		}
	}
}

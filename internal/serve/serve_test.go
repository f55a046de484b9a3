package serve

import (
	"errors"
	"sync"
	"testing"

	"qclique/internal/core"
	"qclique/internal/graph"
	"qclique/internal/xrand"
)

func testDigraph(t *testing.T, n int, seed uint64) *graph.Digraph {
	t.Helper()
	g, err := graph.RandomDigraph(n, graph.DigraphOpts{
		ArcProb: 0.35, MinWeight: -4, MaxWeight: 9, NoNegativeCycles: true,
	}, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestHashDistinguishesIsomorphicGraphs: relabeling a graph preserves its
// structure but must change its content identity — APSP output is
// label-addressed, so isomorphic-but-distinct graphs may not share cache
// entries.
func TestHashDistinguishesIsomorphicGraphs(t *testing.T) {
	g := graph.NewDigraph(4)
	relabeled := graph.NewDigraph(4)
	perm := []int{2, 0, 3, 1}
	arcs := [][3]int64{{0, 1, 5}, {1, 2, -1}, {2, 3, 7}, {3, 0, 2}}
	for _, a := range arcs {
		if err := g.SetArc(int(a[0]), int(a[1]), a[2]); err != nil {
			t.Fatal(err)
		}
		if err := relabeled.SetArc(perm[a[0]], perm[a[1]], a[2]); err != nil {
			t.Fatal(err)
		}
	}
	if HashDigraph(g) == HashDigraph(relabeled) {
		t.Fatal("isomorphic-but-relabeled graphs must hash differently")
	}
	if HashDigraph(g) != HashDigraph(g.Clone()) {
		t.Fatal("identical graphs must hash identically")
	}

	svc := New(Config{})
	if _, err := svc.SolveGraph(g, SolveSpec{Strategy: core.StrategyGossip}); err != nil {
		t.Fatal(err)
	}
	res, err := svc.SolveGraph(relabeled, SolveSpec{Strategy: core.StrategyGossip})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Fatal("relabeled graph must not be served from the original's cache entry")
	}
}

// TestCachedVsFreshBitIdentical: a cache hit must return distances and
// round accounting bit-identical to the fresh solve, and charge zero new
// rounds.
func TestCachedVsFreshBitIdentical(t *testing.T) {
	g := testDigraph(t, 10, 3)
	svc := New(Config{})
	spec := SolveSpec{Strategy: core.StrategyGossip, Seed: 7}

	fresh, err := svc.SolveGraph(g, spec)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Cached {
		t.Fatal("first solve must not be cached")
	}
	charged := svc.Stats().Strategies["gossip"].RoundsCharged

	cached, err := svc.SolveGraph(g, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !cached.Cached {
		t.Fatal("second identical solve must be cached")
	}
	if !cached.Res.Dist.Equal(fresh.Res.Dist) {
		t.Fatal("cached distances differ from fresh")
	}
	if cached.Res.Rounds != fresh.Res.Rounds {
		t.Fatalf("cached rounds %d != fresh rounds %d", cached.Res.Rounds, fresh.Res.Rounds)
	}
	st := svc.Stats().Strategies["gossip"]
	if st.RoundsCharged != charged {
		t.Fatalf("cache hit charged rounds: %d -> %d", charged, st.RoundsCharged)
	}
	if st.Solves != 1 || st.CacheHits != 1 || st.Requests != 2 {
		t.Fatalf("stats = %+v, want 1 solve, 1 hit, 2 requests", st)
	}

	// A different seed is a different identity: it must re-run.
	other, err := svc.SolveGraph(g, SolveSpec{Strategy: core.StrategyGossip, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if other.Cached {
		t.Fatal("different seed must not hit the cache")
	}
}

// TestSingleflightConcurrentSolves: many concurrent identical solves must
// run the simulator exactly once.
func TestSingleflightConcurrentSolves(t *testing.T) {
	g := testDigraph(t, 8, 11)
	svc := New(Config{})
	spec := SolveSpec{Strategy: core.StrategyQuantum, Preset: PresetScaled, Seed: 1}

	const callers = 8
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(callers)
	results := make([]*SolveResult, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer done.Done()
			start.Wait()
			results[i], errs[i] = svc.SolveGraph(g, spec)
		}(i)
	}
	start.Done()
	done.Wait()

	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if !results[i].Res.Dist.Equal(results[0].Res.Dist) {
			t.Fatalf("caller %d got different distances", i)
		}
	}
	st := svc.Stats().Strategies["quantum"]
	if st.Solves != 1 {
		t.Fatalf("simulator ran %d times for %d concurrent identical solves, want 1", st.Solves, callers)
	}
	if st.CacheHits+st.Deduped != callers-1 {
		t.Fatalf("hits(%d)+deduped(%d) != %d", st.CacheHits, st.Deduped, callers-1)
	}
}

// TestEvictionUnderCacheSize: with capacity 1, alternating graphs must
// evict and re-run.
func TestEvictionUnderCacheSize(t *testing.T) {
	g1 := testDigraph(t, 9, 1)
	g2 := testDigraph(t, 9, 2)
	svc := New(Config{CacheSize: 1})
	spec := SolveSpec{Strategy: core.StrategyGossip}

	for _, g := range []*graph.Digraph{g1, g2, g1} {
		if _, err := svc.SolveGraph(g, spec); err != nil {
			t.Fatal(err)
		}
	}
	st := svc.Stats()
	gossip := st.Strategies["gossip"]
	if gossip.Solves != 3 {
		t.Fatalf("solves = %d, want 3 (g1 evicted by g2 must re-run)", gossip.Solves)
	}
	if st.CachedResults != 1 {
		t.Fatalf("cached results = %d, want 1", st.CachedResults)
	}

	// Without pressure, the same sequence is served from cache.
	roomy := New(Config{CacheSize: 8})
	for _, g := range []*graph.Digraph{g1, g2, g1} {
		if _, err := roomy.SolveGraph(g, spec); err != nil {
			t.Fatal(err)
		}
	}
	if got := roomy.Stats().Strategies["gossip"].Solves; got != 2 {
		t.Fatalf("solves = %d, want 2 with a roomy cache", got)
	}
}

// TestStoreLifecycle: put is idempotent by content, lookups fail cleanly,
// and the store evicts least-recently-used graphs beyond MaxGraphs.
func TestStoreLifecycle(t *testing.T) {
	svc := New(Config{MaxGraphs: 2})
	g1, g2, g3 := testDigraph(t, 6, 1), testDigraph(t, 6, 2), testDigraph(t, 6, 3)

	id1, err := svc.PutGraph(g1)
	if err != nil {
		t.Fatal(err)
	}
	again, err := svc.PutGraph(g1.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if id1 != again {
		t.Fatalf("identical uploads got ids %q and %q", id1, again)
	}
	if _, err := svc.Graph("sha256:nope"); !errors.Is(err, ErrUnknownGraph) {
		t.Fatalf("unknown id: err = %v, want ErrUnknownGraph", err)
	}
	if _, err := svc.PutGraph(nil); err == nil {
		t.Fatal("nil graph must fail")
	}

	if _, err := svc.PutGraph(g2); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.PutGraph(g3); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Graph(id1); !errors.Is(err, ErrUnknownGraph) {
		t.Fatalf("g1 should have been evicted; err = %v", err)
	}

	// The stored graph is a private clone: mutating the caller's graph after
	// the upload changes neither what the store holds nor its id.
	id2 := HashDigraph(g2)
	w, hasArc := g2.Weight(0, 1)
	if err := g2.SetArc(0, 1, 999); err != nil {
		t.Fatal(err)
	}
	stored, err := svc.Graph(id2)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := stored.Weight(0, 1); got != w || ok != hasArc {
		t.Fatalf("stored arc 0->1 = (%d, %v) after the caller's mutation, want (%d, %v): the store kept the caller's graph", got, ok, w, hasArc)
	}
	if got := HashDigraph(stored); got != id2 {
		t.Fatalf("stored graph hashes to %s, want its id %s", got, id2)
	}
}

// TestStoreByteBudget: the store evicts least-recently-used graphs once
// their adjacency bytes exceed its budget, well before its count bound, and
// keeps a graph larger than the whole budget until the next upload.
func TestStoreByteBudget(t *testing.T) {
	const n = 8
	perGraph := int64(n * n * 8)
	st := newGraphStore(100, 2*perGraph+perGraph/2) // room for two n=8 graphs
	id1 := st.put(testDigraph(t, n, 1), false)
	id2 := st.put(testDigraph(t, n, 2), false)
	if _, err := st.get(id1); err != nil { // id2 becomes the least recently used
		t.Fatal(err)
	}
	id3 := st.put(testDigraph(t, n, 3), false)
	if _, err := st.get(id2); !errors.Is(err, ErrUnknownGraph) {
		t.Fatalf("least-recently-used graph survived past the byte budget: err = %v", err)
	}
	for _, id := range []string{id1, id3} {
		if _, err := st.get(id); err != nil {
			t.Fatalf("graph within the budget evicted: %v", err)
		}
	}
	if got := st.len(); got != 2 {
		t.Fatalf("store holds %d graphs, want 2", got)
	}

	big := st.put(testDigraph(t, 3*n, 4), false) // 9x the per-graph bytes
	if _, err := st.get(big); err != nil {
		t.Fatalf("a graph larger than the budget must stay until the next upload: %v", err)
	}
	if got := st.len(); got != 1 {
		t.Fatalf("store holds %d graphs after an oversize upload, want 1", got)
	}
}

// TestPathsBatch: batch answers must agree with the distance matrix, carry
// valid paths, and report unreachable pairs per-query.
func TestPathsBatch(t *testing.T) {
	g := testDigraph(t, 12, 21)
	svc := New(Config{})
	id, err := svc.PutGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	spec := SolveSpec{Strategy: core.StrategyGossip}
	var queries []PathQuery
	for src := 0; src < g.N(); src++ {
		for dst := 0; dst < g.N(); dst++ {
			queries = append(queries, PathQuery{Src: src, Dst: dst})
		}
	}
	answers, res, err := svc.PathsBatch(id, spec, queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != len(queries) {
		t.Fatalf("got %d answers for %d queries", len(answers), len(queries))
	}
	for _, a := range answers {
		want := res.Res.Dist.At(a.Src, a.Dst)
		if want >= graph.Inf {
			if !errors.Is(a.Err, core.ErrNoPath) {
				t.Fatalf("(%d,%d): err = %v, want ErrNoPath", a.Src, a.Dst, a.Err)
			}
			continue
		}
		if a.Err != nil {
			t.Fatalf("(%d,%d): %v", a.Src, a.Dst, a.Err)
		}
		if a.Dist != want {
			t.Fatalf("(%d,%d): dist %d, want %d", a.Src, a.Dst, a.Dist, want)
		}
		w, err := core.PathWeight(g, a.Path)
		if err != nil {
			t.Fatalf("(%d,%d): broken path %v: %v", a.Src, a.Dst, a.Path, err)
		}
		if w != want {
			t.Fatalf("(%d,%d): path weight %d, want %d", a.Src, a.Dst, w, want)
		}
	}
	// Out-of-range queries fail per-answer, not per-batch.
	bad, _, err := svc.PathsBatch(id, spec, []PathQuery{{Src: -1, Dst: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if bad[0].Err == nil {
		t.Fatal("out-of-range query must carry an error")
	}
	if got := svc.Stats().PathQueries; got != int64(len(queries))+1 {
		t.Fatalf("path queries = %d, want %d", got, len(queries)+1)
	}
}

// TestNegativeCycleNotCached: undefined inputs error every time rather
// than polluting the cache.
func TestNegativeCycleNotCached(t *testing.T) {
	g := graph.NewDigraph(3)
	for _, a := range [][3]int64{{0, 1, -2}, {1, 2, -2}, {2, 0, 1}} {
		if err := g.SetArc(int(a[0]), int(a[1]), a[2]); err != nil {
			t.Fatal(err)
		}
	}
	svc := New(Config{})
	spec := SolveSpec{Strategy: core.StrategyGossip}
	for i := 0; i < 2; i++ {
		if _, err := svc.SolveGraph(g, spec); !errors.Is(err, core.ErrNegativeCycle) {
			t.Fatalf("attempt %d: err = %v, want ErrNegativeCycle", i, err)
		}
	}
	st := svc.Stats().Strategies["gossip"]
	if st.Errors != 2 {
		t.Fatalf("errors = %d, want 2 (failures are not cached)", st.Errors)
	}
	if svc.Stats().CachedResults != 0 {
		t.Fatal("failed solves must not be cached")
	}
}

// TestParseHelpers pins the accepted strategy/preset names.
func TestParseHelpers(t *testing.T) {
	for name, want := range map[string]string{
		"":                 "quantum",
		"quantum":          "quantum",
		"classical-search": "classical-search",
		"dolev":            "dolev",
		"dolev-listing":    "dolev",
		"gossip":           "gossip",
		"auto":             "auto",
	} {
		got, err := ParseStrategy(name)
		if err != nil || got != want {
			t.Errorf("ParseStrategy(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseStrategy("warp"); err == nil {
		t.Error("unknown strategy must fail")
	}
	if p, err := ParsePreset("scaled"); err != nil || p != PresetScaled {
		t.Errorf("ParsePreset(scaled) = %v, %v", p, err)
	}
	if _, err := ParsePreset("huge"); err == nil {
		t.Error("unknown preset must fail")
	}
}

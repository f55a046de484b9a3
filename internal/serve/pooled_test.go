package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"qclique/internal/core"
	"qclique/internal/graph"
	"qclique/internal/xrand"
)

// TestConcurrentPooledSolves drives many concurrent cache-miss solves
// through one Service under the race detector (the CI race job runs this
// package), so concurrent solves are shown to share no solve state.
// Distinct graphs and seeds force every request down the simulator path;
// each answer is cross-checked against an independent fresh solve.
func TestConcurrentPooledSolves(t *testing.T) {
	s := New(Config{})
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				n := 6 + (w+i)%4
				g, err := graph.RandomDigraph(n, graph.DigraphOpts{
					ArcProb: 0.5, MinWeight: -4, MaxWeight: 9, NoNegativeCycles: true,
				}, xrand.New(uint64(100*w+i)))
				if err != nil {
					errs <- err
					return
				}
				spec := SolveSpec{Preset: PresetScaled, Seed: uint64(w)}
				got, err := s.SolveGraph(g, spec)
				if err != nil {
					errs <- err
					return
				}
				want, err := core.Solve(g.Clone(), core.Config{
					Params: spec.Preset.Params(), Seed: spec.Seed,
				})
				if err != nil {
					errs <- err
					return
				}
				if !got.Res.Dist.Equal(want.Dist) {
					errs <- fmt.Errorf("worker %d iter %d: concurrent service solve differs from fresh", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestCachedResultNeverAliasesLaterSolves is the escape contract of the
// results the service shares: a cached distance matrix must never alias
// storage a later solve writes. After graph A's solve, misses on graphs of
// the same and of a different size and a solve cut short by its deadline
// run; A's first result and a re-request answered from the cache must
// still equal the snapshot taken before them.
func TestCachedResultNeverAliasesLaterSolves(t *testing.T) {
	svc := New(Config{})
	spec := SolveSpec{Preset: PresetScaled, Seed: 1}
	const n = 32
	a := cancelTestGraph(t, n)
	first, err := svc.SolveGraph(a, spec)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := first.Res.Dist.Clone()

	for i, m := range []int{n, 9, n} {
		if _, err := svc.SolveGraph(testDigraph(t, m, uint64(40+i)), spec); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Millisecond)
	defer cancel()
	var ce *CancelledError
	if _, err := svc.SolveGraphContext(ctx, testDigraph(t, n, 50), spec); !errors.As(err, &ce) {
		t.Fatalf("deadline-bound solve: err = %v (%T), want *CancelledError", err, err)
	}

	again, err := svc.SolveGraph(a, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Fatal("re-request of graph A missed the cache")
	}
	if !first.Res.Dist.Equal(snapshot) {
		t.Fatal("graph A's first result was overwritten by later solves")
	}
	if !again.Res.Dist.Equal(snapshot) {
		t.Fatal("graph A's cached result differs from its first answer")
	}
}

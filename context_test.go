package qclique_test

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"qclique"
)

func cancelDigraph(t *testing.T, n int) *qclique.Digraph {
	t.Helper()
	g := qclique.NewDigraph(n)
	for i := 0; i < n; i++ {
		for _, off := range []int{1, 2, 5} {
			if err := g.SetArc(i, (i+off)%n, int64(1+(i+off)%7)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return g
}

// TestSolveAPSPContextAlreadyCancelled pins the public cancellation
// contract: an already-cancelled context returns context.Canceled in
// well under 100ms at n=64.
func TestSolveAPSPContextAlreadyCancelled(t *testing.T) {
	g := cancelDigraph(t, 64)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := qclique.SolveAPSPContext(ctx, g, qclique.WithParams(qclique.ScaledConstants))
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("cancelled solve took %v, want < 100ms", elapsed)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestWithTimeoutStopsTheSolve pins the WithTimeout option end to end.
func TestWithTimeoutStopsTheSolve(t *testing.T) {
	g := cancelDigraph(t, 48)
	_, err := qclique.SolveAPSP(g,
		qclique.WithParams(qclique.ScaledConstants),
		qclique.WithTimeout(2*time.Millisecond))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestSolverQueriesHonorWithTimeout: SSSP, ShortestPath and PathsBatch
// run their solve under WithTimeout's deadline, as Solve and the one-shot
// SolveSSSP do; an already-expired deadline answers DeadlineExceeded and
// solves nothing.
func TestSolverQueriesHonorWithTimeout(t *testing.T) {
	g := qclique.NewDigraph(16)
	for i := 0; i < 16; i++ {
		if err := g.SetArc(i, (i+1)%16, 1); err != nil {
			t.Fatal(err)
		}
	}
	s := qclique.NewSolver(qclique.WithParams(qclique.ScaledConstants))
	expired := qclique.WithTimeout(time.Nanosecond)
	if _, err := s.Solve(g, expired); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Solve: err = %v, want context.DeadlineExceeded", err)
	}
	if _, _, err := qclique.SolveSSSP(g, 0, qclique.WithParams(qclique.ScaledConstants), expired); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("SolveSSSP: err = %v, want context.DeadlineExceeded", err)
	}
	if _, _, err := s.SSSP(g, 0, expired); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Solver.SSSP: err = %v, want context.DeadlineExceeded", err)
	}
	if _, _, err := s.ShortestPath(g, 0, 5, expired); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Solver.ShortestPath: err = %v, want context.DeadlineExceeded", err)
	}
	if _, _, err := s.PathsBatch(g, []qclique.PathQuery{{Src: 0, Dst: 5}}, expired); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Solver.PathsBatch: err = %v, want context.DeadlineExceeded", err)
	}
	if st := s.Stats().Strategies["quantum"]; st.Solves != 0 {
		t.Errorf("stats = %+v, want no completed solve", st)
	}
}

// TestSolverSolveContextCancelThenResolve: a cancelled solve must leave
// the solver fully usable — the retry runs fresh (not cached) and is
// bit-identical to an independent solve.
func TestSolverSolveContextCancelThenResolve(t *testing.T) {
	g := cancelDigraph(t, 32)
	s := qclique.NewSolver(qclique.WithParams(qclique.ScaledConstants))

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	if _, err := s.SolveContext(ctx, g); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}

	got, err := s.Solve(g)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cached {
		t.Fatal("retry after cancellation reported cached")
	}
	want, err := qclique.SolveAPSP(g, qclique.WithParams(qclique.ScaledConstants))
	if err != nil {
		t.Fatal(err)
	}
	if got.Rounds != want.Rounds || !reflect.DeepEqual(got.Dist, want.Dist) {
		t.Fatal("solver retry after cancellation differs from an independent solve")
	}

	st := s.Stats().Strategies["quantum"]
	if st.Cancelled != 1 || st.Solves != 1 {
		t.Fatalf("stats = %+v, want Cancelled=1 Solves=1", st)
	}
	if len(st.Stages) == 0 {
		t.Fatal("per-stage rounds missing from solver stats")
	}
	var sum int64
	for _, agg := range st.Stages {
		sum += agg.Rounds
	}
	if sum != st.RoundsCharged {
		t.Fatalf("stage rounds roll up to %d, want %d", sum, st.RoundsCharged)
	}
}

// TestAPSPResultStagesSumToRounds pins the public stage telemetry.
func TestAPSPResultStagesSumToRounds(t *testing.T) {
	g := cancelDigraph(t, 16)
	res, err := qclique.SolveAPSP(g, qclique.WithParams(qclique.ScaledConstants))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stages) == 0 {
		t.Fatal("no stage telemetry on the public result")
	}
	var sum int64
	for _, sg := range res.Stages {
		sum += sg.Rounds
	}
	if sum != res.Rounds {
		t.Fatalf("stage rounds sum %d != rounds %d", sum, res.Rounds)
	}
}

// TestStrategiesEnumeration pins the public registry surface, and that an
// alias is canonicalized once: it parses to its strategy's name, and a
// solve naming it shares that strategy's cache entry and stats key and
// echoes the canonical name.
func TestStrategiesEnumeration(t *testing.T) {
	infos := qclique.Strategies()
	if len(infos) < 6 {
		t.Fatalf("Strategies() = %d entries, want at least the 6 built-ins", len(infos))
	}
	byName := map[qclique.Strategy]qclique.StrategyInfo{}
	for _, si := range infos {
		byName[si.Strategy] = si
	}
	if si, ok := byName[qclique.ApproxSkeleton]; !ok || !si.Approximate || si.Guarantee(0.5) != 2.5 {
		t.Fatalf("approx-skeleton info wrong: %+v", si)
	}
	if si, ok := byName[qclique.Quantum]; !ok || si.Approximate || si.Guarantee(0) != 1 {
		t.Fatalf("quantum info wrong: %+v", si)
	}
	// A weight-symmetric nonnegative ring, so every strategy accepts it.
	g := qclique.NewDigraph(6)
	for i := 0; i < 6; i++ {
		w := int64(1 + i%3)
		if err := g.SetArc(i, (i+1)%6, w); err != nil {
			t.Fatal(err)
		}
		if err := g.SetArc((i+1)%6, i, w); err != nil {
			t.Fatal(err)
		}
	}
	for alias, want := range map[string]qclique.Strategy{
		"classical":     qclique.ClassicalSearch,
		"dolev-listing": qclique.DolevListing,
		"skeleton":      qclique.ApproxSkeleton,
		"quantum":       qclique.Quantum,
	} {
		got, err := qclique.ParseStrategy(alias)
		if err != nil {
			t.Errorf("ParseStrategy(%q): %v", alias, err)
			continue
		}
		if got != want {
			t.Errorf("ParseStrategy(%q) = %v, want %v", alias, got, want)
		}
		var eps []qclique.Option
		if byName[want].Approximate {
			eps = []qclique.Option{qclique.WithEpsilon(0.5)}
		}
		s := qclique.NewSolver(append(eps, qclique.WithParams(qclique.ScaledConstants))...)
		byAlias, err := s.Solve(g, qclique.WithStrategy(qclique.Strategy(alias)))
		if err != nil {
			t.Fatalf("solve via %q: %v", alias, err)
		}
		byConst, err := s.Solve(g, qclique.WithStrategy(want))
		if err != nil {
			t.Fatalf("solve via %q: %v", want, err)
		}
		if byAlias.Strategy != want || byConst.Strategy != want {
			t.Errorf("%q: echoed %q and %q, want %q", alias, byAlias.Strategy, byConst.Strategy, want)
		}
		if !byConst.Cached {
			t.Errorf("%q: the canonical solve missed the alias's cache entry", alias)
		}
		if st := s.Stats().Strategies; len(st) != 1 || st[string(want)].Requests != 2 {
			t.Errorf("%q: stats = %+v, want both requests under %q", alias, st, want)
		}
	}
	if _, err := qclique.ParseStrategy("warp-drive"); err == nil {
		t.Error("unknown strategy accepted")
	}
}

package serve

// The degradation-ladder suite. The ladder's one trigger is a rung that
// overruns its share of the request deadline (rungContext). The tests hold
// the rungs they mean to fail in solveTestHook until that share expires, so
// which rung answers is decided by the test, not by a race against the
// host's speed.

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"qclique/internal/core"
	"qclique/internal/graph"
	"qclique/internal/matrix"
)

// ladderTimeout is the request deadline of the ladder tests. A held rung
// spends its whole share of it; the rung that answers gets at least the
// last 16% (two held rungs before it), far more than a rung needs at n = 8.
const ladderTimeout = time.Second

// symDigraph builds a weight-symmetric nonnegative graph (a weighted ring
// with chords) — the input class every ladder rung accepts.
func symDigraph(t *testing.T, n int) *graph.Digraph {
	t.Helper()
	g := graph.NewDigraph(n)
	set := func(u, v int, w int64) {
		if err := g.SetArc(u, v, w); err != nil {
			t.Fatal(err)
		}
		if err := g.SetArc(v, u, w); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		set(i, (i+1)%n, int64(1+i%3))
	}
	for i := 0; i+3 < n; i += 3 {
		set(i, i+3, 7)
	}
	return g
}

// holdRungs makes every solve that hold selects block in solveTestHook
// until its context is done: the rung overruns its budget. tried returns
// the strategies the solves ran, in order.
func holdRungs(t *testing.T, hold func(SolveSpec) bool) (tried func() []string) {
	var mu sync.Mutex
	var seen []string
	setSolveHook(t, func(ctx context.Context, spec SolveSpec) {
		mu.Lock()
		seen = append(seen, spec.Strategy)
		mu.Unlock()
		if hold(spec) {
			<-ctx.Done()
		}
	})
	return func() []string {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(seen)
	}
}

// exactRung selects the rungs without a stretch budget: the requested
// exact strategy, never a fallback.
func exactRung(spec SolveSpec) bool { return spec.Epsilon == 0 }

// checkStretch fails unless every distance of got lies within stretch of
// the exact distances of g.
func checkStretch(t *testing.T, g *graph.Digraph, got *matrix.Matrix, stretch float64) {
	t.Helper()
	exact, err := core.Solve(g, core.Config{Strategy: core.StrategyGossip})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g.N(); i++ {
		for j := 0; j < g.N(); j++ {
			d, e := got.At(i, j), exact.Dist.At(i, j)
			if d < e || float64(d) > stretch*float64(e) {
				t.Fatalf("dist[%d][%d] = %d violates stretch %v over exact %d", i, j, d, stretch, e)
			}
		}
	}
}

// solveWithin runs a ladder solve of g under the ladder deadline.
func solveWithin(s *Service, g *graph.Digraph, timeout time.Duration) (*SolveResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return s.SolveGraphContext(ctx, g, SolveSpec{Strategy: core.StrategyQuantum, Degrade: true})
}

// TestForcedFallbackLadder: the quantum rung overruns its budget, and the
// approx-quantum rung answers within its stretch contract, marked degraded
// with reason "deadline".
func TestForcedFallbackLadder(t *testing.T) {
	s := New(Config{})
	g := asymDigraph(t, 8)
	tried := holdRungs(t, exactRung)
	res, err := solveWithin(s, g, ladderTimeout)
	if err != nil {
		t.Fatalf("ladder did not absorb the overrun: %v", err)
	}
	if !res.Degraded || res.DegradedFrom != core.StrategyQuantum || res.DegradeReason != "deadline" {
		t.Fatalf("degradation not reported: %+v", res)
	}
	if res.Res.Strategy != core.StrategyApproxQuantum {
		t.Fatalf("fallback rung = %v, want approx-quantum", res.Res.Strategy)
	}
	if res.Res.GuaranteedStretch != 1+plannerDefaultEpsilon {
		t.Errorf("guaranteed stretch = %v, want %v", res.Res.GuaranteedStretch, 1+plannerDefaultEpsilon)
	}
	checkStretch(t, g, res.Res.Dist, res.Res.GuaranteedStretch)
	if got := tried(); !slices.Equal(got, []string{core.StrategyQuantum, core.StrategyApproxQuantum}) {
		t.Errorf("rungs tried = %v, want [quantum approx-quantum]", got)
	}
	st := s.Stats().Strategies
	if st["quantum"].Cancelled != 1 || st["quantum"].Degraded != 1 || st["quantum"].Solves != 0 {
		t.Errorf("quantum stats: %+v", st["quantum"])
	}
	if st["approx-quantum"].Solves != 1 {
		t.Errorf("approx-quantum stats: %+v", st["approx-quantum"])
	}
}

// TestLadderRespectsGraphConstraints: the ladder offers only the rungs the
// input admits. A negative-arc graph has no fallback, so the deadline error
// surfaces unchanged; an asymmetric graph stops after approx-quantum; a
// symmetric one reaches the skeleton.
func TestLadderRespectsGraphConstraints(t *testing.T) {
	all := func(SolveSpec) bool { return true }

	s := New(Config{})
	tried := holdRungs(t, all)
	_, err := solveWithin(s, negDigraph(t, 8), 100*time.Millisecond)
	var ce *CancelledError
	if !errors.As(err, &ce) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("negative-arc graph: want the deadline CancelledError, got %v", err)
	}
	if got := tried(); !slices.Equal(got, []string{core.StrategyQuantum}) {
		t.Errorf("negative-arc graph: rungs tried = %v, want [quantum]", got)
	}

	s = New(Config{})
	tried = holdRungs(t, all)
	if _, err := solveWithin(s, asymDigraph(t, 8), ladderTimeout); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("asymmetric graph: want the deadline error, got %v", err)
	}
	if got := tried(); !slices.Equal(got, []string{core.StrategyQuantum, core.StrategyApproxQuantum}) {
		t.Errorf("asymmetric graph: rungs tried = %v, want [quantum approx-quantum]", got)
	}

	s = New(Config{})
	tried = holdRungs(t, func(spec SolveSpec) bool { return spec.Strategy != core.StrategyApproxSkeleton })
	g := symDigraph(t, 8)
	res, err := solveWithin(s, g, ladderTimeout)
	if err != nil {
		t.Fatalf("symmetric graph: %v", err)
	}
	if res.Res.Strategy != core.StrategyApproxSkeleton || res.Res.GuaranteedStretch != 2+plannerDefaultEpsilon {
		t.Fatalf("bottom rung = %v (stretch %v), want approx-skeleton at %v",
			res.Res.Strategy, res.Res.GuaranteedStretch, 2+plannerDefaultEpsilon)
	}
	if !res.Degraded || res.DegradedFrom != core.StrategyQuantum || res.DegradeReason != "deadline" {
		t.Fatalf("degradation not reported: %+v", res)
	}
	checkStretch(t, g, res.Res.Dist, res.Res.GuaranteedStretch)
	want := []string{core.StrategyQuantum, core.StrategyApproxQuantum, core.StrategyApproxSkeleton}
	if got := tried(); !slices.Equal(got, want) {
		t.Errorf("symmetric graph: rungs tried = %v, want %v", got, want)
	}
}

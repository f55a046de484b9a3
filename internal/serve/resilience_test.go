package serve

// The resilience suite: fault plans in the cache identity, and the
// graceful-degradation ladder (forced fallback via a spent transient-outage
// budget, constraint-aware rung selection).

import (
	"errors"
	"testing"

	"qclique/internal/congest"
	"qclique/internal/core"
	"qclique/internal/graph"
)

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

// outagePlan deterministically fails every phase attempt until budget
// unrecovered faults have been injected, then goes quiet — the transient
// outage the ladder tests ride on.
func outagePlan(budget int) congest.FaultPlan {
	return congest.FaultPlan{Seed: 7, CorruptRate: 1, MaxFaults: budget}
}

func TestForcedFallbackLadder(t *testing.T) {
	s := New(Config{})
	g := symDigraph(t, 8)
	// The quantum rung retries 4 times (5 attempts), each attempt absorbing
	// one corruption: a 5-fault outage exhausts exactly the primary rung,
	// and the threaded budget leaves the fallback rung fault-free.
	res, err := s.SolveGraph(g, SolveSpec{Strategy: core.StrategyQuantum, Degrade: true, Faults: outagePlan(5)})
	if err != nil {
		t.Fatalf("ladder did not absorb the outage: %v", err)
	}
	if !res.Degraded || res.DegradedFrom != core.StrategyQuantum || res.DegradeReason != "retries-exhausted" {
		t.Fatalf("degradation not reported: %+v", res)
	}
	if res.Res.Strategy != core.StrategyApproxQuantum {
		t.Fatalf("fallback rung = %v, want approx-quantum", res.Res.Strategy)
	}
	if res.Res.GuaranteedStretch != 1+plannerDefaultEpsilon {
		t.Errorf("guaranteed stretch = %v, want %v", res.Res.GuaranteedStretch, 1+plannerDefaultEpsilon)
	}
	if res.Res.Dist == nil {
		t.Fatal("degraded result has no distances")
	}
	// The degraded distances respect the rung's stretch contract.
	exact, err := core.Solve(symDigraph(t, 8), core.Config{Strategy: core.StrategyGossip})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			d, e := res.Res.Dist.At(i, j), exact.Dist.At(i, j)
			if d < e || float64(d) > res.Res.GuaranteedStretch*float64(e) {
				t.Fatalf("dist[%d][%d] = %d violates stretch vs exact %d", i, j, d, e)
			}
		}
	}
	st := s.Stats().Strategies
	if st["quantum"].FaultFailures != 1 || st["quantum"].Degraded != 1 {
		t.Errorf("quantum stats: %+v", st["quantum"])
	}
	if st["approx-quantum"].Solves != 1 {
		t.Errorf("approx-quantum stats: %+v", st["approx-quantum"])
	}
	if st["quantum"].Faults.Corrupted != 5 {
		t.Errorf("quantum fault counters: %+v", st["quantum"].Faults)
	}
}

func TestLadderRespectsGraphConstraints(t *testing.T) {
	s := New(Config{})
	// A graph with a negative arc has no approximate rung: the ladder is
	// just the primary, and exhaustion surfaces as the typed error.
	g := graph.NewDigraph(4)
	for i := 0; i < 4; i++ {
		if err := g.SetArc(i, (i+1)%4, 2); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.SetArc(0, 2, -1); err != nil {
		t.Fatal(err)
	}
	_, err := s.SolveGraph(g, SolveSpec{Strategy: core.StrategyQuantum, Degrade: true, Faults: outagePlan(0)})
	var fx *FaultExhaustedError
	if !errors.As(err, &fx) {
		t.Fatalf("want FaultExhaustedError, got %v", err)
	}
	var fe *congest.FaultError
	if !errors.As(err, &fe) {
		t.Error("FaultError chain broken by the wrapper")
	}
	if fx.Faults.Corrupted == 0 || len(fx.Stages) == 0 {
		t.Errorf("partial telemetry missing: %+v", fx)
	}

	// Asymmetric nonnegative weights reach approx-quantum but never the
	// skeleton rung: a 10-fault outage exhausts quantum (5) and
	// approx-quantum (5), and no third rung exists.
	asym := graph.NewDigraph(6)
	for i := 0; i < 6; i++ {
		if err := asym.SetArc(i, (i+1)%6, int64(1+i)); err != nil {
			t.Fatal(err)
		}
	}
	_, err = s.SolveGraph(asym, SolveSpec{Strategy: core.StrategyQuantum, Degrade: true, Faults: outagePlan(10)})
	if !errors.As(err, &fx) {
		t.Fatalf("asymmetric ladder: want FaultExhaustedError, got %v", err)
	}
	// ...while a symmetric graph survives the same outage via the skeleton.
	res, err := s.SolveGraph(symDigraph(t, 8), SolveSpec{Strategy: core.StrategyQuantum, Degrade: true, Faults: outagePlan(10)})
	if err != nil {
		t.Fatalf("symmetric ladder under 10-fault outage: %v", err)
	}
	if res.Res.Strategy != core.StrategyApproxSkeleton || res.Res.GuaranteedStretch != 2+plannerDefaultEpsilon {
		t.Fatalf("bottom rung = %v (stretch %v), want approx-skeleton at %v",
			res.Res.Strategy, res.Res.GuaranteedStretch, 2+plannerDefaultEpsilon)
	}
}

func TestFaultPlanJoinsCacheIdentity(t *testing.T) {
	s := New(Config{})
	g := symDigraph(t, 8)
	clean, err := s.SolveGraph(g, SolveSpec{Strategy: core.StrategyQuantum})
	if err != nil {
		t.Fatal(err)
	}
	// A recovered-faults-only plan converges to the same distances but a
	// different round trajectory — it must not share the clean cache entry.
	plan := congest.FaultPlan{Seed: 11, DropRate: 0.5, DupRate: 0.25, DelayRate: 0.25, MaxDelayRounds: 2}
	faulty, err := s.SolveGraph(g, SolveSpec{Strategy: core.StrategyQuantum, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	if faulty.Cached {
		t.Fatal("armed solve aliased the clean cache entry")
	}
	if !clean.Res.Dist.Equal(faulty.Res.Dist) {
		t.Error("recovered faults changed distances")
	}
	if faulty.Res.Rounds <= clean.Res.Rounds {
		t.Errorf("fault surcharge missing: %d vs clean %d", faulty.Res.Rounds, clean.Res.Rounds)
	}
	if faulty.Res.Metrics.Faults.Injected() == 0 {
		t.Error("no faults recorded under an armed plan")
	}
	// Same plan again: cached, telemetry preserved.
	again, err := s.SolveGraph(g, SolveSpec{Strategy: core.StrategyQuantum, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || again.Res.Rounds != faulty.Res.Rounds {
		t.Errorf("armed re-solve: cached=%v rounds=%d want cached with %d", again.Cached, again.Res.Rounds, faulty.Res.Rounds)
	}
	// And the clean spec still hits its own entry.
	cleanAgain, err := s.SolveGraph(g, SolveSpec{Strategy: core.StrategyQuantum})
	if err != nil {
		t.Fatal(err)
	}
	if !cleanAgain.Cached || cleanAgain.Res.Rounds != clean.Res.Rounds {
		t.Errorf("clean re-solve: cached=%v rounds=%d want cached with %d", cleanAgain.Cached, cleanAgain.Res.Rounds, clean.Res.Rounds)
	}
}

func TestInvalidFaultPlanRejected(t *testing.T) {
	s := New(Config{})
	g := symDigraph(t, 4)
	_, err := s.SolveGraph(g, SolveSpec{Faults: congest.FaultPlan{DropRate: 2}})
	if !errors.Is(err, ErrInvalidSpec) {
		t.Fatalf("malformed plan: err = %v, want ErrInvalidSpec", err)
	}
}

func TestRetryRecoversWithinBudget(t *testing.T) {
	// A 1-fault outage is absorbed by stage retry alone: no degradation
	// needed, distances identical to fault-free, one retry recorded.
	s := New(Config{})
	g := symDigraph(t, 8)
	clean, err := s.SolveGraph(g, SolveSpec{Strategy: core.StrategyQuantum})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.SolveGraph(g, SolveSpec{Strategy: core.StrategyQuantum, Faults: outagePlan(1)})
	if err != nil {
		t.Fatalf("1-fault outage not absorbed: %v", err)
	}
	if res.Degraded {
		t.Error("retry success reported as degraded")
	}
	if !clean.Res.Dist.Equal(res.Res.Dist) {
		t.Error("retried solve diverged from fault-free distances")
	}
	var retries int
	for _, sg := range res.Res.Stages {
		retries += sg.Retries
	}
	if retries != 1 {
		t.Errorf("retries = %d, want 1", retries)
	}
	if got := s.Stats().Strategies["quantum"]; got.Retries != 1 || got.Faults.Corrupted != 1 {
		t.Errorf("retry accounting: %+v", got)
	}
}

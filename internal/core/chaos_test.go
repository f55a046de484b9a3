package core

// The chaos suite: fault-injection determinism (same plan → identical
// distances, rounds and counters, run after run), zero-plan bit-identity
// (an armed-but-empty plan changes nothing), and convergence of every
// registered strategy under a mixed fault plan at n ∈ {8, 16, 32}.

import (
	"testing"

	"qclique/internal/congest"
	"qclique/internal/graph"
	"qclique/internal/triangles"
	"qclique/internal/xrand"
)

// chaosInput builds the densest input class a strategy accepts: negative
// weights for the exact pipelines, nonnegative for the (1+ε) chain,
// symmetric nonnegative for the skeleton.
func chaosInput(t *testing.T, s string, n int, seed uint64) *graph.Digraph {
	t.Helper()
	rng := xrand.New(seed)
	var (
		g   *graph.Digraph
		err error
	)
	switch {
	case s == StrategyApproxSkeleton:
		g, err = graph.RandomSymmetricDigraph(n, graph.DigraphOpts{
			ArcProb: 0.3, MinWeight: 1, MaxWeight: 20,
		}, rng)
	case s == StrategyApproxQuantum:
		g, err = graph.RandomDigraph(n, graph.DigraphOpts{
			ArcProb: 0.4, MinWeight: 0, MaxWeight: 14,
		}, rng)
	default:
		g, err = graph.RandomDigraph(n, graph.DigraphOpts{
			ArcProb: 0.4, MinWeight: -6, MaxWeight: 14, NoNegativeCycles: true,
		}, rng)
	}
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func chaosConfig(s string) Config {
	p := triangles.BenchParams()
	cfg := Config{Strategy: s, Params: &p, Seed: 5}
	if s == StrategyApproxQuantum || s == StrategyApproxSkeleton {
		cfg.Epsilon = 0.5
	}
	return cfg
}

// TestChaosDeterminism: the fault schedule is a pure function of the plan
// — three runs under the same plan produce identical distances, rounds and
// fault counters for exact and approximate pipelines alike.
func TestChaosDeterminism(t *testing.T) {
	plan := congest.FaultPlan{
		Seed: 42, DropRate: 0.2, DupRate: 0.1, DelayRate: 0.1, MaxDelayRounds: 2,
		CorruptRate: 0.05, CrashRate: 0.02, CrashDownPhases: 1, MaxFaults: 1,
	}
	for _, s := range []string{StrategyQuantum, StrategyApproxQuantum, StrategyApproxSkeleton} {
		for _, n := range []int{8, 16} {
			g := chaosInput(t, s, n, uint64(n))
			cfg := chaosConfig(s)
			cfg.Faults = plan
			first, err := Solve(g, cfg)
			if err != nil {
				t.Fatalf("%v/n=%d: %v", s, n, err)
			}
			for run := 1; run < 3; run++ {
				again, err := Solve(g, cfg)
				if err != nil {
					t.Fatalf("%v/n=%d run %d: %v", s, n, run, err)
				}
				if !again.Dist.Equal(first.Dist) {
					t.Fatalf("%v/n=%d run %d: distances diverged", s, n, run)
				}
				if again.Rounds != first.Rounds {
					t.Fatalf("%v/n=%d run %d: rounds %d != %d", s, n, run, again.Rounds, first.Rounds)
				}
				if again.Metrics != first.Metrics {
					t.Fatalf("%v/n=%d run %d: metrics diverged: %+v vs %+v",
						s, n, run, again.Metrics, first.Metrics)
				}
			}
		}
	}
}

// TestZeroPlanKeepsSolvesBitIdentical: arming the pipeline with an empty
// plan is free — rounds, words and distances match the unarmed solve for
// every registered strategy.
func TestZeroPlanKeepsSolvesBitIdentical(t *testing.T) {
	for _, s := range []string{
		StrategyGossip, StrategyDolev, StrategyClassicalSearch, StrategyQuantum,
		StrategyApproxQuantum, StrategyApproxSkeleton,
	} {
		g := chaosInput(t, s, 12, 3)
		plain, err := Solve(g, chaosConfig(s))
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		cfg := chaosConfig(s)
		cfg.Faults = congest.FaultPlan{} // armed, injects nothing
		armed, err := Solve(g, cfg)
		if err != nil {
			t.Fatalf("%v armed: %v", s, err)
		}
		if !armed.Dist.Equal(plain.Dist) {
			t.Errorf("%v: zero plan changed distances", s)
		}
		if armed.Rounds != plain.Rounds || armed.Metrics != plain.Metrics {
			t.Errorf("%v: zero plan changed accounting: rounds %d/%d metrics %+v/%+v",
				s, armed.Rounds, plain.Rounds, armed.Metrics, plain.Metrics)
		}
		if armed.Metrics.Faults.Injected() != 0 {
			t.Errorf("%v: zero plan injected faults: %+v", s, armed.Metrics.Faults)
		}
	}
}

// TestChaosConvergenceAllStrategies: under a mixed plan of recovered link
// faults plus one budgeted unrecovered fault, every strategy's retry
// machinery converges to the fault-free distances at n ∈ {8, 16, 32}.
func TestChaosConvergenceAllStrategies(t *testing.T) {
	plan := congest.FaultPlan{
		Seed: 20190729, DropRate: 0.1, DupRate: 0.05, DelayRate: 0.05, MaxDelayRounds: 2,
		CorruptRate: 0.05, CrashRate: 0.02, CrashDownPhases: 1, MaxFaults: 1,
	}
	sizes := []int{8, 16, 32}
	if testing.Short() {
		sizes = []int{8, 16}
	}
	for _, s := range []string{
		StrategyGossip, StrategyDolev, StrategyClassicalSearch, StrategyQuantum,
		StrategyApproxQuantum, StrategyApproxSkeleton,
	} {
		for _, n := range sizes {
			g := chaosInput(t, s, n, 7*uint64(n))
			clean, err := Solve(g, chaosConfig(s))
			if err != nil {
				t.Fatalf("%v/n=%d clean: %v", s, n, err)
			}
			cfg := chaosConfig(s)
			cfg.Faults = plan
			armed, err := Solve(g, cfg)
			if err != nil {
				t.Fatalf("%v/n=%d: armed solve did not converge: %v", s, n, err)
			}
			if !armed.Dist.Equal(clean.Dist) {
				t.Fatalf("%v/n=%d: armed distances diverged from fault-free", s, n)
			}
			if armed.Rounds < clean.Rounds {
				t.Errorf("%v/n=%d: armed rounds %d below fault-free %d", s, n, armed.Rounds, clean.Rounds)
			}
		}
	}
}

package core

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"testing"
	"time"

	"qclique/internal/engine"
	"qclique/internal/graph"
	"qclique/internal/triangles"
	"qclique/internal/xrand"
)

// engineTestStrategies is every registered pipeline with a config that
// satisfies its input contract on the given graph class.
func engineTestStrategies() []Config {
	params := triangles.BenchParams()
	return []Config{
		{Strategy: StrategyQuantum, Params: &params},
		{Strategy: StrategyClassicalSearch, Params: &params},
		{Strategy: StrategyDolev, Params: &params},
		{Strategy: StrategyGossip},
		{Strategy: StrategyApproxQuantum, Params: &params, Epsilon: 0.5},
		{Strategy: StrategyApproxSkeleton, Epsilon: 0.5},
	}
}

// testGraphFor returns a graph in the strategy's input class.
func testGraphFor(t *testing.T, s string, n int) *graph.Digraph {
	t.Helper()
	rng := xrand.New(uint64(n) * 7)
	var g *graph.Digraph
	var err error
	switch s {
	case StrategyApproxSkeleton:
		g, err = graph.RandomSymmetricDigraph(n, graph.DigraphOpts{
			ArcProb: 0.3, MinWeight: 1, MaxWeight: 9,
		}, rng)
	case StrategyApproxQuantum:
		g, err = graph.RandomDigraph(n, graph.DigraphOpts{
			ArcProb: 0.4, MinWeight: 0, MaxWeight: 8,
		}, rng)
	default:
		g, err = graph.RandomDigraph(n, graph.DigraphOpts{
			ArcProb: 0.4, MinWeight: -4, MaxWeight: 8, NoNegativeCycles: true,
		}, rng)
	}
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestStageRoundsSumToTotal is the acceptance invariant of the engine
// refactor: for every strategy and n ∈ {8, 16, 32}, the per-stage rounds
// in Result sum exactly to Result.Rounds.
func TestStageRoundsSumToTotal(t *testing.T) {
	for _, cfg := range engineTestStrategies() {
		for _, n := range []int{8, 16, 32} {
			g := testGraphFor(t, cfg.Strategy, n)
			res, err := Solve(g, cfg)
			if err != nil {
				t.Fatalf("%v n=%d: %v", cfg.Strategy, n, err)
			}
			if len(res.Stages) == 0 {
				t.Fatalf("%v n=%d: no stage telemetry", cfg.Strategy, n)
			}
			if sum := engine.SumRounds(res.Stages); sum != res.Rounds {
				t.Errorf("%v n=%d: stage rounds sum %d != total %d (stages %+v)",
					cfg.Strategy, n, sum, res.Rounds, res.Stages)
			}
		}
	}
}

// TestSolveContextAlreadyCancelledReturnsPromptly pins the public
// cancellation contract at the core layer: an already-cancelled context
// must return context.Canceled well under 100ms at n=64, without running
// the pipeline.
func TestSolveContextAlreadyCancelledReturnsPromptly(t *testing.T) {
	g := testGraphFor(t, StrategyQuantum, 64)
	params := triangles.BenchParams()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	res, err := SolveContext(ctx, g, Config{Strategy: StrategyQuantum, Params: &params})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 100*time.Millisecond {
		t.Fatalf("cancelled solve took %v, want < 100ms", elapsed)
	}
	if res == nil {
		t.Fatal("cancelled solve should carry (empty) partial telemetry")
	}
	if res.Dist != nil {
		t.Fatal("cancelled solve must not produce distances")
	}
	if res.Rounds != 0 {
		t.Fatalf("already-cancelled solve charged %d rounds", res.Rounds)
	}
}

// TestCancelAtEveryStageBoundaryLeavesWorkspaceReusable cancels a solve at
// each stage boundary in turn, then re-solves and demands results
// bit-identical to an uninterrupted solve: a cancelled run leaves nothing
// behind that a later solve reads.
func TestCancelAtEveryStageBoundaryLeavesWorkspaceReusable(t *testing.T) {
	for _, cfg := range engineTestStrategies() {
		n := 16
		g := testGraphFor(t, cfg.Strategy, n)

		want, err := Solve(g, cfg)
		if err != nil {
			t.Fatalf("%v: reference solve: %v", cfg.Strategy, err)
		}
		stageCount := len(want.Stages)
		if stageCount == 0 {
			t.Fatalf("%v: no stages to cancel at", cfg.Strategy)
		}

		for k := 0; k < stageCount; k++ {
			ctx, cancel := context.WithCancel(context.Background())
			cancelCfg := cfg
			cancelCfg.StageHook = func(i int, name string) {
				if i == k {
					cancel()
				}
			}
			res, err := SolveContext(ctx, g, cancelCfg)
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%v: cancel at stage %d: err = %v, want context.Canceled", cfg.Strategy, k, err)
			}
			if len(res.Stages) != k {
				t.Fatalf("%v: cancel at stage boundary %d recorded %d stages", cfg.Strategy, k, len(res.Stages))
			}

			// Re-solve: rounds and distances must match the uninterrupted
			// solve exactly.
			got, err := Solve(g, cfg)
			if err != nil {
				t.Fatalf("%v: re-solve after cancel at %d: %v", cfg.Strategy, k, err)
			}
			if got.Rounds != want.Rounds {
				t.Errorf("%v: re-solve after cancel at %d: rounds %d != %d", cfg.Strategy, k, got.Rounds, want.Rounds)
			}
			if !got.Dist.Equal(want.Dist) {
				t.Errorf("%v: re-solve after cancel at %d: distances differ from a fresh solve", cfg.Strategy, k)
			}
		}
	}
}

// TestSolveContextDeadlineInsideStage exercises the in-stage checkpoints
// (binary-search steps, triangle enumeration): a deadline that expires
// mid-pipeline must stop the solve with DeadlineExceeded and partial
// telemetry, and a later solve must then reproduce the one before it.
func TestSolveContextDeadlineInsideStage(t *testing.T) {
	params := triangles.BenchParams()
	g := testGraphFor(t, StrategyQuantum, 32)
	want, err := Solve(g, Config{Strategy: StrategyQuantum, Params: &params})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	res, err := SolveContext(ctx, g, Config{Strategy: StrategyQuantum, Params: &params})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded (n=32 cannot finish in 5ms)", err)
	}
	if res == nil {
		t.Fatal("deadline-expired solve should carry partial telemetry")
	}

	got, err := Solve(g, Config{Strategy: StrategyQuantum, Params: &params})
	if err != nil {
		t.Fatal(err)
	}
	if got.Rounds != want.Rounds || !got.Dist.Equal(want.Dist) {
		t.Fatal("a solve after a mid-stage deadline produced a different result")
	}
}

// TestStrategyRegistryCoversEveryEnum pins the name constants to the
// registry: every strategy constant resolves to a registered pipeline of
// the right accuracy class, the registry holds exactly those six, and
// StrategyAuto is no pipeline.
func TestStrategyRegistryCoversEveryEnum(t *testing.T) {
	names := []string{
		StrategyApproxQuantum, StrategyApproxSkeleton, StrategyClassicalSearch,
		StrategyDolev, StrategyGossip, StrategyQuantum,
	}
	for _, name := range names {
		st, ok := engine.Lookup(name)
		if !ok {
			t.Errorf("strategy %q has no registered pipeline", name)
			continue
		}
		if st.Capabilities().Approximate != (name == StrategyApproxQuantum || name == StrategyApproxSkeleton) {
			t.Errorf("strategy %q approximate flag mismatch", name)
		}
	}
	if got := engine.Names(); !reflect.DeepEqual(got, names) {
		t.Errorf("registry names = %v, want %v", got, names)
	}
	if _, ok := engine.Lookup(StrategyAuto); ok {
		t.Errorf("%q must not be a registered pipeline", StrategyAuto)
	}
}

// TestGuaranteeComesFromRegistry pins the stretch contract surfaced per
// strategy.
func TestGuaranteeComesFromRegistry(t *testing.T) {
	cases := []struct {
		s    string
		eps  float64
		want float64
	}{
		{StrategyQuantum, 0, 1},
		{StrategyGossip, 0, 1},
		{StrategyApproxQuantum, 0.5, 1.5},
		{StrategyApproxSkeleton, 0.25, 2.25},
	}
	for _, c := range cases {
		st, ok := engine.Lookup(c.s)
		if !ok {
			t.Fatalf("%v unregistered", c.s)
		}
		if got := st.Guarantee(c.eps); got != c.want {
			t.Errorf("%v.Guarantee(%v) = %v, want %v", c.s, c.eps, got, c.want)
		}
	}
}

// TestCostAnchorsMatchBenchEntries reads the committed baseline and holds
// every registered strategy's round prior, evaluated at its anchor, to the
// rounds of the BENCH_1.json entry its comment cites, so a re-baseline
// that moves an entry fails here until the anchor moves with it. Anchors
// sit at n = 64, ε = 0.5 and max |w| = 8, gossip's at n = 256.
// Classical-search's and dolev's priors are scaled guesses that cite no
// entry.
func TestCostAnchorsMatchBenchEntries(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_1.json")
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Benchmarks []struct {
			Name   string  `json:"name"`
			Rounds float64 `json:"rounds_per_op"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	rounds := make(map[string]int64, len(rep.Benchmarks))
	for _, b := range rep.Benchmarks {
		rounds[b.Name] = int64(b.Rounds)
	}
	anchors := map[string]struct {
		entry string
		n     int
		eps   float64
	}{
		StrategyQuantum:        {"E1APSPQuantum/n=64", 64, 0},
		StrategyApproxQuantum:  {"E4APSPApproxQuantum/n=64/eps=0.5", 64, 0.5},
		StrategyApproxSkeleton: {"E4APSPApproxSkeleton/n=64/eps=0.5", 64, 0.5},
		StrategyGossip:         {"GossipAPSP/n=256", 256, 0},
	}
	guesses := map[string]bool{StrategyClassicalSearch: true, StrategyDolev: true}
	for _, st := range engine.Strategies() {
		a, ok := anchors[st.Name()]
		if !ok {
			if !guesses[st.Name()] {
				t.Errorf("%s: no cost anchor cites a BENCH_1.json entry", st.Name())
			}
			continue
		}
		want, ok := rounds[a.entry]
		if !ok {
			t.Errorf("%s: BENCH_1.json has no entry %s", st.Name(), a.entry)
			continue
		}
		if got := st.PredictCost(graph.Features{N: a.n, MaxAbsWeight: 8}, a.eps).Rounds; got != want {
			t.Errorf("%s: prior rounds %d at its anchor, %s has %d", st.Name(), got, a.entry, want)
		}
	}
}

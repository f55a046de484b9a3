package serve

// The strategy-planner suite: the decision table (features × budget ×
// deadline → chosen strategy), planned-vs-explicit bit-identity and cache
// sharing, prediction-error accounting, cold-start admission estimates,
// and the regression that capability-infeasible rungs never appear on the
// degradation ladder.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"qclique/internal/core"
	"qclique/internal/engine"
	"qclique/internal/graph"
)

// negDigraph builds a graph with a negative arc (and no negative cycle):
// the input class no approximate strategy accepts.
func negDigraph(t *testing.T, n int) *graph.Digraph {
	t.Helper()
	g := graph.NewDigraph(n)
	for i := 0; i < n; i++ {
		if err := g.SetArc(i, (i+1)%n, int64(2+i%3)); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.SetArc(0, n/2, -1); err != nil {
		t.Fatal(err)
	}
	return g
}

// asymDigraph builds a nonnegative but weight-asymmetric graph: viable for
// approx-quantum, not for approx-skeleton.
func asymDigraph(t *testing.T, n int) *graph.Digraph {
	t.Helper()
	g := graph.NewDigraph(n)
	for i := 0; i < n; i++ {
		if err := g.SetArc(i, (i+1)%n, int64(1+i%4)); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// seedLive injects fake live telemetry so the planner's wall predictions
// rank name at nsPerRound — the white-box lever the steering tests use.
func seedLive(s *Service, name string, nsPerRound int64) {
	s.stats.mu.Lock()
	defer s.stats.mu.Unlock()
	st := s.stats.forStrategy(name)
	st.Solves = 1
	st.RoundsCharged = 1
	st.SolveWallNs = nsPerRound
}

// steerTo makes name the cheapest predicted strategy on a fresh service by
// pricing every other registered strategy astronomically.
func steerTo(s *Service, name string) {
	for _, ce := range CatalogEntries() {
		if ce.Name == name {
			seedLive(s, ce.Name, 1)
		} else {
			seedLive(s, ce.Name, int64(time.Hour))
		}
	}
}

func TestPlannerDecisionTable(t *testing.T) {
	shortCtx, cancel := context.WithTimeout(context.Background(), 50*time.Microsecond)
	defer cancel()
	cases := []struct {
		name     string
		g        func(*testing.T, int) *graph.Digraph
		spec     SolveSpec
		ctx      context.Context
		want     string
		wantEps  float64
		excluded []string
	}{
		{
			// No stretch budget: the cheapest exact strategy wins (gossip's
			// O(n) rounds are unbeatable at bench sizes).
			name: "exact-by-default",
			g:    symDigraph,
			spec: SolveSpec{Strategy: core.StrategyAuto},
			want: core.StrategyGossip,
		},
		{
			// A budget without deadline pressure buys nothing: fidelity-first
			// ranking still puts every exact strategy ahead of the
			// approximate ones.
			name: "epsilon-alone-stays-exact",
			g:    symDigraph,
			spec: SolveSpec{Strategy: core.StrategyAuto, Epsilon: 0.5},
			want: core.StrategyGossip,
		},
		{
			// Negative arcs exclude both approximate strategies outright,
			// budget or not.
			name:     "negative-arcs-exclude-approx",
			g:        negDigraph,
			spec:     SolveSpec{Strategy: core.StrategyAuto, Epsilon: 0.5},
			want:     core.StrategyGossip,
			excluded: []string{"approx-quantum", "approx-skeleton"},
		},
		{
			// Asymmetric weights exclude the skeleton strategy only.
			name:     "asymmetry-excludes-skeleton",
			g:        asymDigraph,
			spec:     SolveSpec{Strategy: core.StrategyAuto, Epsilon: 0.5},
			want:     core.StrategyGossip,
			excluded: []string{"approx-skeleton"},
		},
		{
			// exactPlanning (the batch-paths flag) confines the plan to exact
			// candidates even with a stretch budget.
			name: "exact-planning-flag",
			g:    symDigraph,
			spec: SolveSpec{Strategy: core.StrategyAuto, Epsilon: 0.5}.ExactPlanning(),
			want: core.StrategyGossip,
			excluded: []string{
				"approx-quantum", "approx-skeleton",
			},
		},
		{
			// A deadline nothing fits falls to the cheapest predicted
			// candidate rather than refusing.
			name: "hopeless-deadline-picks-cheapest",
			g:    symDigraph,
			spec: SolveSpec{Strategy: core.StrategyAuto},
			ctx:  shortCtx,
			want: core.StrategyGossip,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Config{})
			g := tc.g(t, 16)
			ctx := tc.ctx
			if ctx == nil {
				ctx = context.Background()
			}
			resolved, plan, err := s.planSolve(ctx, g.Features(), tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			if resolved.Strategy != tc.want {
				t.Fatalf("planned %v (reason %q), want %v", resolved.Strategy, plan.Reason, tc.want)
			}
			if resolved.Epsilon != tc.wantEps {
				t.Fatalf("resolved epsilon %v, want %v", resolved.Epsilon, tc.wantEps)
			}
			if plan.Strategy != tc.want || plan.Reason == "" {
				t.Fatalf("decision %+v does not describe the resolution", plan)
			}
			if plan.PredictedRounds <= 0 || plan.PredictedWallNs <= 0 {
				t.Fatalf("decision carries no cost prediction: %+v", plan)
			}
			for _, name := range tc.excluded {
				for _, c := range plan.Candidates {
					if c == name {
						t.Fatalf("infeasible strategy %q competed: %v", name, plan.Candidates)
					}
				}
			}
		})
	}
}

// TestPlannerDeadlinePromotesApprox is the forcing-function case: with every
// exact strategy priced over the request deadline and the (1+ε) chain under
// it, the budgeted request must spend its epsilon.
func TestPlannerDeadlinePromotesApprox(t *testing.T) {
	s := New(Config{})
	g := symDigraph(t, 16)
	for _, ce := range CatalogEntries() {
		if ce.Name == "approx-quantum" {
			seedLive(s, ce.Name, 1)
		} else {
			seedLive(s, ce.Name, int64(time.Hour))
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	resolved, plan, err := s.planSolve(ctx, g.Features(), SolveSpec{Strategy: core.StrategyAuto, Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if resolved.Strategy != core.StrategyApproxQuantum || resolved.Epsilon != 0.5 {
		t.Fatalf("planned %v eps=%v (reason %q), want approx-quantum at 0.5", resolved.Strategy, resolved.Epsilon, plan.Reason)
	}
	if !plan.Live {
		t.Fatalf("decision %+v not marked live despite injected telemetry", plan)
	}
	// The same deadline without a budget must stay exact: epsilon is consent.
	resolved, plan, err = s.planSolve(ctx, g.Features(), SolveSpec{Strategy: core.StrategyAuto})
	if err != nil {
		t.Fatal(err)
	}
	if st, ok := engine.Lookup(resolved.Strategy); !ok || st.Capabilities().Approximate {
		t.Fatalf("budget-less plan spent stretch anyway: %v (reason %q)", resolved.Strategy, plan.Reason)
	}
}

// TestAutoExplicitBitIdentity steers the planner to each registered
// strategy in turn and checks the contract at several sizes: the planned
// solve returns results bit-identical to an explicit request on a fresh
// service, and the explicit re-request on the same service hits the cache
// entry the planned solve populated.
func TestAutoExplicitBitIdentity(t *testing.T) {
	deadline := 30 * time.Second
	for _, name := range []string{"quantum", "classical-search", "dolev", "gossip", "approx-quantum", "approx-skeleton"} {
		approximate := name == "approx-quantum" || name == "approx-skeleton"
		for _, n := range []int{8, 16, 32} {
			t.Run(fmt.Sprintf("%s/n=%d", name, n), func(t *testing.T) {
				if testing.Short() && n > 16 {
					t.Skip("short mode")
				}
				g := symDigraph(t, n)
				auto := SolveSpec{Strategy: core.StrategyAuto, Preset: PresetScaled, Seed: 3}
				ctx := context.Background()
				if approximate {
					// Approximate strategies are only planned under deadline
					// pressure; price everything else out and supply a budget.
					auto.Epsilon = 0.5
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(ctx, deadline)
					defer cancel()
				}
				planned := New(Config{})
				steerTo(planned, name)
				pres, err := planned.SolveGraphContext(ctx, g, auto)
				if err != nil {
					t.Fatal(err)
				}
				if pres.Plan == nil || pres.Plan.Strategy != name {
					t.Fatalf("planner chose %+v, want %s", pres.Plan, name)
				}
				if pres.Res.Strategy != name {
					t.Fatalf("planned solve ran %v, want %s", pres.Res.Strategy, name)
				}

				// Bit-identity: a fresh service given the explicit spec must
				// reproduce the exact same answer and accounting.
				explicit := SolveSpec{Strategy: pres.Res.Strategy, Preset: PresetScaled, Seed: 3}
				if approximate {
					explicit.Epsilon = 0.5
				}
				eres, err := New(Config{}).SolveGraph(g, explicit)
				if err != nil {
					t.Fatal(err)
				}
				if eres.Res.Rounds != pres.Res.Rounds || eres.Res.Products != pres.Res.Products {
					t.Fatalf("accounting diverged: planned rounds=%d products=%d, explicit rounds=%d products=%d",
						pres.Res.Rounds, pres.Res.Products, eres.Res.Rounds, eres.Res.Products)
				}
				for i := 0; i < n; i++ {
					pr, er := pres.Res.Dist.Row(i), eres.Res.Dist.Row(i)
					for j := range pr {
						if pr[j] != er[j] {
							t.Fatalf("d(%d,%d): planned %d != explicit %d", i, j, pr[j], er[j])
						}
					}
				}

				// Cache sharing: on the planning service, the explicit spec
				// must hit the entry the planned solve populated.
				cres, err := planned.SolveGraph(g, explicit)
				if err != nil {
					t.Fatal(err)
				}
				if !cres.Cached {
					t.Fatalf("explicit %s re-solve missed the planned solve's cache entry", name)
				}
			})
		}
	}
}

func TestPlannerPredictionErrorAccounting(t *testing.T) {
	s := New(Config{})
	g := symDigraph(t, 12)
	spec := SolveSpec{Strategy: core.StrategyAuto, Preset: PresetScaled, Seed: 1}
	first, err := s.SolveGraph(g, spec)
	if err != nil {
		t.Fatal(err)
	}
	if first.Plan == nil {
		t.Fatal("planned solve returned no decision")
	}
	// A cache hit is a decision without an observation.
	again, err := s.SolveGraph(g, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Fatal("identical planned solve did not hit the cache")
	}
	st := s.Stats()
	p := st.Planner
	if p == nil {
		t.Fatal("no planner accounting after planned solves")
	}
	if p.Decisions != 2 || p.ObservedSolves != 1 {
		t.Fatalf("decisions=%d observed=%d, want 2 decisions with 1 observed execution", p.Decisions, p.ObservedSolves)
	}
	if p.Chosen[first.Plan.Strategy] != 2 {
		t.Fatalf("chosen map %v, want %q picked twice", p.Chosen, first.Plan.Strategy)
	}
	if p.PredictedRounds != first.Plan.PredictedRounds || p.ObservedRounds != first.Res.Rounds {
		t.Fatalf("rounds accounting %+v disagrees with the solve (predicted %d, observed %d)",
			p, first.Plan.PredictedRounds, first.Res.Rounds)
	}
	wantErr := abs64(first.Plan.PredictedRounds - first.Res.Rounds)
	if p.RoundsErrorAbs != wantErr {
		t.Fatalf("rounds error %d, want |%d-%d| = %d", p.RoundsErrorAbs, first.Plan.PredictedRounds, first.Res.Rounds, wantErr)
	}
	if p.ObservedWallNs <= 0 || p.PredictedWallNs <= 0 {
		t.Fatalf("wall accounting missing: %+v", p)
	}
	// The snapshot must not alias collector state.
	p.Chosen["tampered"] = 99
	if got := s.Stats().Planner.Chosen["tampered"]; got != 0 {
		t.Fatalf("snapshot aliases the collector: tampered=%d", got)
	}
}

// TestLadderSkipsInfeasibleRungs is the regression the capability catalog
// exists for: the degradation ladder must never route a negative-arc graph
// to an approximate rung, nor an asymmetric graph to the skeleton rung.
func TestLadderSkipsInfeasibleRungs(t *testing.T) {
	s := New(Config{})
	spec := SolveSpec{Strategy: core.StrategyQuantum, Degrade: true}

	neg := negDigraph(t, 8).Features()
	if rungs := s.plannerFallbacks(spec, neg); len(rungs) != 0 {
		names := make([]string, len(rungs))
		for i, r := range rungs {
			names[i] = r.Strategy
		}
		t.Fatalf("negative-arc graph was handed fallback rungs %v; no approximate strategy accepts it", names)
	}

	asym := asymDigraph(t, 8).Features()
	rungs := s.plannerFallbacks(spec, asym)
	if len(rungs) == 0 {
		t.Fatal("asymmetric nonnegative graph should still have the approx-quantum rung")
	}
	for _, r := range rungs {
		if r.Strategy == core.StrategyApproxSkeleton {
			t.Fatal("asymmetric graph was routed to the skeleton rung")
		}
		if r.Epsilon != plannerDefaultEpsilon {
			t.Fatalf("budget-less rung runs at epsilon %v, want the default %v", r.Epsilon, plannerDefaultEpsilon)
		}
	}

	sym := symDigraph(t, 8).Features()
	rungs = s.plannerFallbacks(spec, sym)
	if len(rungs) != 2 ||
		rungs[0].Strategy != core.StrategyApproxQuantum ||
		rungs[1].Strategy != core.StrategyApproxSkeleton {
		names := make([]string, len(rungs))
		for i, r := range rungs {
			names[i] = r.Strategy
		}
		t.Fatalf("symmetric nonnegative ladder = %v, want [approx-quantum approx-skeleton]", names)
	}
}

// TestColdStartAdmissionEstimate covers the admission fix: before any
// execution, the service-time estimate must come from the cost prior
// instead of answering 0 (the cold-start blind spot); after an execution,
// live telemetry takes over.
func TestColdStartAdmissionEstimate(t *testing.T) {
	s := New(Config{})
	feats := symDigraph(t, 16).Features()
	cold := s.estimateFor("quantum", feats, 0)
	if cold <= 0 {
		t.Fatalf("cold estimate = %v, want the catalog prior", cold)
	}
	seedLive(s, "quantum", 1) // one observed solve: 1 round, 1 ns
	if warm := s.estimateFor("quantum", feats, 0); warm != time.Nanosecond {
		t.Fatalf("warm estimate = %v, want the live mean (1ns)", warm)
	}
}

// TestCatalogSurfaces pins the catalog the HTTP endpoint and the library
// listing both render: every registered strategy, with capabilities that
// match the registry.
func TestCatalogSurfaces(t *testing.T) {
	entries := CatalogEntries()
	byName := make(map[string]CatalogEntry, len(entries))
	for _, ce := range entries {
		byName[ce.Name] = ce
	}
	for _, want := range []struct {
		name        string
		guarantee   string
		rejectsNeg  bool
		needsSym    bool
		approximate bool
	}{
		{"quantum", "exact", false, false, false},
		{"classical-search", "exact", false, false, false},
		{"dolev", "exact", false, false, false},
		{"gossip", "exact", false, false, false},
		{"approx-quantum", "1+ε", true, false, true},
		{"approx-skeleton", "2+ε", true, true, true},
	} {
		ce, ok := byName[want.name]
		if !ok {
			t.Fatalf("catalog is missing %q: %v", want.name, byName)
		}
		if ce.Guarantee != want.guarantee || ce.RejectsNegative != want.rejectsNeg ||
			ce.NeedsSymmetric != want.needsSym || ce.Approximate != want.approximate {
			t.Fatalf("catalog entry %+v, want %+v", ce, want)
		}
		if want.approximate && (ce.MinEpsilon <= 0 || ce.MaxEpsilon <= ce.MinEpsilon) {
			t.Fatalf("approximate entry %q without an epsilon domain: %+v", want.name, ce)
		}
	}

	// The live view folds telemetry in after an execution.
	s := New(Config{})
	if _, err := s.SolveGraph(symDigraph(t, 8), SolveSpec{Strategy: core.StrategyGossip, Preset: PresetScaled}); err != nil {
		t.Fatal(err)
	}
	for _, ce := range s.Catalog() {
		if ce.Name == "gossip" {
			if ce.Solves != 1 || ce.MeanWallNs <= 0 || ce.MeanRounds <= 0 {
				t.Fatalf("live catalog entry %+v, want one observed solve with means", ce)
			}
			return
		}
	}
	t.Fatal("gossip missing from the live catalog")
}

package serve

// The strategy planner: given a graph's feature profile, a request's
// stretch budget and deadline, rank the registered strategies that can
// answer and pick one. The caller stops naming a pipeline ("quantum") and
// states constraints (strategy=auto, optionally epsilon and timeout_ms);
// the service chooses from the engine's capability/cost catalog, corrected
// by live telemetry. The planner only ever *selects* — a planned solve is
// bit-identical to requesting the chosen strategy explicitly, shares its
// cache entries, and the decision (with its predicted cost) is echoed so
// the prediction error can be accounted on /v1/metrics.
//
// The same candidate machinery feeds the degradation ladder: fallback
// rungs are "every viable strategy with a strictly weaker stretch
// guarantee", ranked by guarantee — the rule the old hard-coded exact →
// approx-quantum → approx-skeleton rung list was a special case of.

import (
	"context"
	"fmt"
	"sort"
	"time"

	"qclique/internal/approx"
	"qclique/internal/engine"
	"qclique/internal/graph"
)

// plannerDefaultEpsilon is the stretch budget the planner assumes for a
// degradation rung when the original request carried none (an exact
// request has no ε of its own to hand to an approximate fallback).
const plannerDefaultEpsilon = 0.5

// PlanDecision records one planner choice for a strategy=auto request: the
// strategy it resolved to, why, and the cost it predicted — the prediction
// the error accounting on /v1/metrics is measured against.
type PlanDecision struct {
	// Strategy is the concrete strategy the request resolved to.
	Strategy string `json:"strategy"`
	// Reason is the human-readable decision rule that picked it.
	Reason string `json:"reason"`
	// Epsilon is the stretch budget the resolved solve runs under (0 when
	// an exact strategy was chosen).
	Epsilon float64 `json:"epsilon,omitempty"`
	// PredictedRounds/PredictedWallNs are the planner's cost prediction for
	// the chosen strategy on this graph.
	PredictedRounds int64 `json:"predicted_rounds"`
	PredictedWallNs int64 `json:"predicted_wall_ns"`
	// Live marks a prediction corrected by live telemetry (observed
	// ns-per-round) rather than taken from the static prior alone.
	Live bool `json:"live,omitempty"`
	// Candidates lists every viable strategy that competed, in ranked
	// order (the chosen one first).
	Candidates []string `json:"candidates,omitempty"`
}

// candidate is one viable strategy with its guarantee and predicted cost.
type candidate struct {
	name      string
	epsilon   float64
	guarantee float64
	predicted engine.CostPrior
	live      bool
}

// predict estimates one solve's cost: the catalog prior's round count
// (size-aware by construction), with the wall time corrected by the
// strategy's observed ns-per-round once live telemetry exists — rounds are
// deterministic per (strategy, input), so observed wall-per-round is the
// host-speed fact the static prior can only guess at.
func (s *Service) predict(strat engine.Strategy, f graph.Features, eps float64) (engine.CostPrior, bool) {
	prior := strat.PredictCost(f, eps)
	if npr, ok := s.stats.liveNsPerRound(strat.Name()); ok && prior.Rounds > 0 {
		wall := int64(float64(prior.Rounds) * npr)
		if wall < 1 {
			wall = 1
		}
		return engine.CostPrior{Rounds: prior.Rounds, WallNs: wall}, true
	}
	return prior, false
}

// rankCandidates returns every strategy viable for (f, eps), ranked best
// guarantee first (guarantee ascending, predicted wall ascending, name
// ascending). Approximate strategies compete only when the request carried
// a valid stretch budget and exactOnly is unset.
func (s *Service) rankCandidates(f graph.Features, eps float64, exactOnly bool) []candidate {
	var out []candidate
	for _, st := range engine.Strategies() {
		caps := st.Capabilities()
		if !caps.Viable(f) {
			continue
		}
		ceps := 0.0
		if caps.Approximate {
			if exactOnly || !approx.ValidEpsilon(eps) {
				continue
			}
			ceps = eps
		}
		pred, live := s.predict(st, f, ceps)
		out = append(out, candidate{
			name:      st.Name(),
			epsilon:   ceps,
			guarantee: st.Guarantee(ceps),
			predicted: pred,
			live:      live,
		})
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.guarantee != b.guarantee {
			return a.guarantee < b.guarantee
		}
		if a.predicted.WallNs != b.predicted.WallNs {
			return a.predicted.WallNs < b.predicted.WallNs
		}
		return a.name < b.name
	})
	return out
}

// planSolve resolves a strategy=auto spec against the catalog: the
// best-guarantee viable candidate wins, except that a request deadline
// promotes the best-guarantee candidate predicted to finish inside it —
// the caller's epsilon states how much stretch they tolerate, the deadline
// decides whether spending it is necessary. The resolved spec is a spec
// any caller could have written by hand (same strategy, same epsilon),
// which is what keeps planned solves bit-identical and cache-shared with
// explicit ones.
func (s *Service) planSolve(ctx context.Context, feats graph.Features, spec SolveSpec) (SolveSpec, *PlanDecision, error) {
	exactOnly := spec.exactPlanning || spec.Epsilon == 0
	cands := s.rankCandidates(feats, spec.Epsilon, exactOnly)
	if len(cands) == 0 {
		return spec, nil, fmt.Errorf("%w: no registered strategy is viable for this graph", ErrInvalidSpec)
	}
	chosen := cands[0]
	reason := "best guarantee among viable strategies, cheapest predicted wall"
	if exactOnly {
		reason = "cheapest viable exact strategy (no stretch budget)"
		if spec.exactPlanning {
			reason = "cheapest viable exact strategy (path reconstruction requires exact distances)"
		}
	}
	if dl, ok := ctx.Deadline(); ok {
		remaining := time.Until(dl)
		fit := -1
		for i, c := range cands {
			if time.Duration(c.predicted.WallNs) <= remaining {
				fit = i
				break
			}
		}
		switch {
		case fit > 0:
			chosen = cands[fit]
			reason = fmt.Sprintf("best guarantee predicted to fit the %v deadline", remaining.Round(time.Millisecond))
		case fit < 0:
			// Nothing is predicted to finish in time; take the cheapest and
			// let the deadline/ladder machinery do its job.
			min := 0
			for i, c := range cands {
				if c.predicted.WallNs < cands[min].predicted.WallNs {
					min = i
				}
			}
			chosen = cands[min]
			reason = "no candidate predicted to fit the deadline: cheapest predicted wall"
		}
	}
	resolved := spec
	resolved.Strategy = chosen.name
	resolved.Epsilon = chosen.epsilon
	names := make([]string, 0, len(cands))
	names = append(names, chosen.name)
	for _, c := range cands {
		if c.name != chosen.name {
			names = append(names, c.name)
		}
	}
	return resolved, &PlanDecision{
		Strategy:        chosen.name,
		Reason:          reason,
		Epsilon:         chosen.epsilon,
		PredictedRounds: chosen.predicted.Rounds,
		PredictedWallNs: chosen.predicted.WallNs,
		Live:            chosen.live,
		Candidates:      names,
	}, nil
}

// plannerFallbacks returns the degradation rungs below spec: the planner's
// ranked candidates with a strictly weaker stretch guarantee than the one
// requested, best fidelity first. For an exact request over a nonnegative
// symmetric graph this reproduces the classic approx-quantum →
// approx-skeleton ladder; the rule generalizes to any future catalog entry
// with no rung list to maintain. Rungs inherit the request's epsilon when
// it carried a valid one, plannerDefaultEpsilon otherwise.
func (s *Service) plannerFallbacks(spec SolveSpec, feats graph.Features) []SolveSpec {
	eps := spec.Epsilon
	if !approx.ValidEpsilon(eps) {
		eps = plannerDefaultEpsilon
	}
	cur := 1.0
	if st, ok := engine.Lookup(spec.Strategy); ok {
		cur = st.Guarantee(spec.Epsilon)
	}
	var rungs []SolveSpec
	for _, c := range s.rankCandidates(feats, eps, false) {
		if c.guarantee <= cur {
			continue
		}
		rs := spec
		rs.Strategy = c.name
		rs.Epsilon = c.epsilon
		rungs = append(rungs, rs)
	}
	return rungs
}

// estimateFor is the admission controller's service-time estimate for one
// executed solve of the named strategy: the live mean wall of its past
// executions, seeded from the catalog's cost prior before any observation
// exists — without the seed, deadline-aware shedding is blind exactly when
// the first expensive solve arrives (the cold-start blind spot).
func (s *Service) estimateFor(name string, feats graph.Features, eps float64) time.Duration {
	if d := s.stats.estimate(name); d > 0 {
		return d
	}
	if st, ok := engine.Lookup(name); ok {
		return time.Duration(st.PredictCost(feats, eps).WallNs)
	}
	return 0
}

// CatalogEntry is one strategy's row in the strategy catalog (GET
// /v1/strategies and qclique.FormatStrategyList): the registry's static
// capability declaration, plus — on Service.Catalog — the live telemetry
// the planner corrects its priors with.
type CatalogEntry struct {
	// Name is the canonical registry name.
	Name string `json:"name"`
	// Guarantee renders the stretch contract: "exact", "1+ε", "2+ε".
	Guarantee string `json:"guarantee"`
	// Capabilities is the strategy's declaration; its fields encode inline,
	// between guarantee and the live telemetry.
	engine.Capabilities
	// Solves/MeanWallNs/MeanRounds are the live per-strategy telemetry of
	// this service instance (zero before the first executed solve; absent
	// in the static CatalogEntries view).
	Solves     int64 `json:"solves,omitempty"`
	MeanWallNs int64 `json:"mean_wall_ns,omitempty"`
	MeanRounds int64 `json:"mean_rounds,omitempty"`
}

// guaranteeLabel renders a strategy's stretch contract independent of any
// particular budget.
func guaranteeLabel(st engine.Strategy) string {
	if !st.Capabilities().Approximate {
		return "exact"
	}
	// Guarantee(1) − 1 recovers the additive base of a "base+ε" contract.
	return fmt.Sprintf("%g+ε", st.Guarantee(1)-1)
}

// CatalogEntries returns the static strategy catalog — every registered
// strategy with its guarantee and capabilities, sorted by name. It is the
// shared source behind GET /v1/strategies and qclique.FormatStrategyList.
func CatalogEntries() []CatalogEntry {
	ss := engine.Strategies()
	out := make([]CatalogEntry, len(ss))
	for i, st := range ss {
		out[i] = CatalogEntry{Name: st.Name(), Guarantee: guaranteeLabel(st), Capabilities: st.Capabilities()}
	}
	return out
}

// Catalog returns the strategy catalog with this service's live telemetry
// folded in: executed solves and mean wall/rounds per strategy.
func (s *Service) Catalog() []CatalogEntry {
	out := CatalogEntries()
	for i := range out {
		solves, meanWall, meanRounds := s.stats.meanCost(out[i].Name)
		out[i].Solves = solves
		out[i].MeanWallNs = meanWall
		out[i].MeanRounds = meanRounds
	}
	return out
}

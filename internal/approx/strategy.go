package approx

// The approximate pipelines as engine strategies. Both register themselves
// with the engine's strategy registry at init (this package is imported by
// core, so registration precedes any registry consumer). Each is driven
// only through its stages: approx-quantum's square stages run a
// distprod.Chain, and the skeleton's stages are the phases of its run
// struct.

import (
	"context"
	"fmt"
	"math"

	"qclique/internal/congest"
	"qclique/internal/distprod"
	"qclique/internal/engine"
	"qclique/internal/graph"
	"qclique/internal/matrix"
)

func init() {
	engine.Register(chainStrategy{})
	engine.Register(skeletonStrategy{}, "skeleton")
}

// chainStrategy is the (1+ε)-approximate quantum squaring chain.
type chainStrategy struct{}

func (chainStrategy) Name() string                  { return "approx-quantum" }
func (chainStrategy) Guarantee(eps float64) float64 { return 1 + eps }

// Cost anchors: measured at n=64, ε=0.5 under the scaled preset
// (BENCH_1.json E4APSPApproxQuantum / E4APSPApproxSkeleton) — coarse
// power-law priors the serving layer's planner corrects with live
// telemetry.
var (
	chainAnchor    = engine.CostPrior{Rounds: 291_589, WallNs: 2_520_000_000}
	skeletonAnchor = engine.CostPrior{Rounds: 521, WallNs: 12_600_000}
)

// ladderScale stretches an anchor measured at ε=0.5 to the requested
// budget: the geometric value ladder's length (and with it every
// per-product search depth) grows with log(1+1/ε). Invalid budgets leave
// the anchor untouched — the planner only asks about epsilons it would
// actually run.
func ladderScale(p engine.CostPrior, eps float64) engine.CostPrior {
	if !ValidEpsilon(eps) || eps == 0.5 {
		return p
	}
	factor := math.Log1p(1/eps) / math.Log1p(2)
	p.Rounds = int64(float64(p.Rounds) * factor)
	p.WallNs = int64(float64(p.WallNs) * factor)
	if p.Rounds < 1 {
		p.Rounds = 1
	}
	if p.WallNs < 1 {
		p.WallNs = 1
	}
	return p
}

func (chainStrategy) Capabilities() engine.Capabilities {
	return engine.Capabilities{
		Approximate:     true,
		RejectsNegative: true,
		MinEpsilon:      MinEpsilon,
		MaxEpsilon:      MaxEpsilon,
	}
}

func (chainStrategy) PredictCost(f graph.Features, eps float64) engine.CostPrior {
	return ladderScale(chainAnchor.ScaleFrom(64, f.N, 1.0, 2.6), eps)
}

func (chainStrategy) Stages(req *engine.Request, out *engine.Outcome) (*engine.Plan, error) {
	if req.G.HasNegativeArc() {
		return nil, ErrNegativeWeight
	}
	n := req.G.N()
	// Same 3n-clique reduction substrate as the exact quantum pipeline;
	// only the per-product search is ladder-indexed.
	net, err := congest.NewNetwork(3 * n)
	if err != nil {
		return nil, err
	}
	var (
		chain  *distprod.Chain
		ladder []int64
		done   bool
	)
	stages := []engine.Stage{
		{Name: "encode", Run: func(context.Context) error {
			chain = distprod.NewChain(req.G, distprod.Options{
				Solver:  distprod.SolverQuantum,
				Params:  req.Params,
				Seed:    req.Seed,
				Net:     net,
				Workers: req.Workers,
			})
			return nil
		}},
		{Name: "ladder", Run: func(context.Context) (err error) {
			ladder, err = chainLadder(n, chain.Dist().MaxAbsFinite(), req.Epsilon)
			return err
		}},
	}
	for i := 0; i < matrix.SquaringBudget(n); i++ {
		stages = append(stages, engine.Stage{
			Name: fmt.Sprintf("square-%d", i+1),
			// One ladder-snapped product plus the convergence vote: a
			// product that returns its input unchanged proves the rest of
			// the chain is the identity. Every node checks its own row and
			// a one-round all-to-all AND aggregates the verdict, which
			// skips the remaining products of the budget. Dense inputs hit
			// the fixpoint after ~log₂(diameter) products.
			Run: func(ctx context.Context) error {
				unchanged, err := chain.Square(ctx, ladder)
				if err != nil {
					return fmt.Errorf("approx: squaring %d: %w", chain.Products(), err)
				}
				done = unchanged
				return net.BroadcastAll("approx/fixpoint-vote", 1)
			},
			Skip: func() bool { return done },
		})
	}
	stages = append(stages, engine.Stage{Name: "stretch-audit", Run: func(context.Context) error {
		out.Dist = chain.Dist()
		out.Products = chain.Products()
		out.FindEdgesCalls = chain.FindEdgesCalls()
		stretch, err := MeasureStretch(req.G, out.Dist)
		if err != nil {
			return err
		}
		out.ObservedStretch = stretch
		return nil
	}})
	return &engine.Plan{Net: net, Stages: stages}, nil
}

// skeletonStrategy is the (2+ε) skeleton pipeline for weight-symmetric
// nonnegative graphs.
type skeletonStrategy struct{}

func (skeletonStrategy) Name() string                  { return "approx-skeleton" }
func (skeletonStrategy) Guarantee(eps float64) float64 { return 2 + eps }

func (skeletonStrategy) Capabilities() engine.Capabilities {
	return engine.Capabilities{
		Approximate:     true,
		RejectsNegative: true,
		NeedsSymmetric:  true,
		MinEpsilon:      MinEpsilon,
		MaxEpsilon:      MaxEpsilon,
	}
}

func (skeletonStrategy) PredictCost(f graph.Features, eps float64) engine.CostPrior {
	return ladderScale(skeletonAnchor.ScaleFrom(64, f.N, 0.6, 2.6), eps)
}

func (skeletonStrategy) Stages(req *engine.Request, out *engine.Outcome) (*engine.Plan, error) {
	net, err := congest.NewNetwork(req.G.N())
	if err != nil {
		return nil, err
	}
	run, err := newSkeletonRun(req, net)
	if err != nil {
		return nil, err
	}
	skipPhases := func() bool { return run.trivial() }
	return &engine.Plan{Net: net, Stages: []engine.Stage{
		{Name: "knn-balls", Run: run.knnBalls, Skip: skipPhases},
		{Name: "skeleton-sample", Run: run.sampleSkeleton, Skip: skipPhases},
		{Name: "mssp-ladder", Run: run.mssp, Skip: skipPhases},
		{Name: "combine", Run: run.combine, Skip: skipPhases},
		{Name: "stretch-audit", Run: func(context.Context) error {
			out.Dist = run.dist
			stretch, err := MeasureStretch(req.G, run.dist)
			if err != nil {
				return err
			}
			out.ObservedStretch = stretch
			return nil
		}},
	}}, nil
}

// Package core assembles the paper's headline result (Theorem 1): exact
// All-Pairs Shortest Paths over directed graphs with integer weights in
// {−W..W} in the CONGEST-CLIQUE model, computed as ⌈log₂ n⌉ distance
// products (Proposition 3), each via O(log M) FindEdges calls
// (Proposition 2), each via O(log n) FindEdgesWithPromise instances
// (Proposition 1), each solved by Algorithm ComputePairs with distributed
// quantum search (Theorem 2). Alternative strategies swap the
// FindEdges solver (classical scan, Dolev listing) or bypass the chain
// entirely (full gossip), giving the baselines the experiments compare.
package core

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"qclique/internal/approx"
	"qclique/internal/engine"
	"qclique/internal/graph"
	"qclique/internal/matrix"
	"qclique/internal/triangles"
)

// Canonical registry names of the built-in pipelines. A strategy's only
// identity is its engine registry name: Config.Strategy, Result.Strategy,
// the serving layer's specs and the public qclique.Strategy all carry it.
const (
	// StrategyQuantum is the paper's Õ(n^{1/4}·log W) pipeline (Theorem 1).
	StrategyQuantum = "quantum"
	// StrategyClassicalSearch is the same pipeline with the classical
	// O(√n) Step 3 scan: Õ(√n·log W) rounds.
	StrategyClassicalSearch = "classical-search"
	// StrategyDolev drives the reductions with Dolev–Lenzen–Peled triangle
	// listing: Õ(n^{1/3}·log W) rounds, the Censor-Hillel et al.
	// complexity (the classical state of the art the paper cites).
	StrategyDolev = "dolev"
	// StrategyGossip is the naive baseline: every node broadcasts its row
	// (O(n) rounds) and solves locally.
	StrategyGossip = "gossip"
	// StrategyApproxQuantum is the (1+ε)-approximate squaring chain: the
	// quantum pipeline with every distance product snapped onto a geometric
	// value ladder, cutting the per-product binary-search depth from
	// ⌈log₂(4M+2)⌉ to ⌈log₂(ladder length)⌉ FindEdges calls. Requires
	// nonnegative weights and Config.Epsilon > 0. Registered by package
	// approx.
	StrategyApproxQuantum = "approx-quantum"
	// StrategyApproxSkeleton is the (2+ε) skeleton strategy in the spirit
	// of Censor-Hillel et al. (arXiv:1903.05956): exact k-nearest balls, a
	// sampled-and-patched skeleton solved on the (1+ε/2) ladder, estimates
	// combined through skeleton hubs. Requires a weight-symmetric
	// nonnegative graph and Config.Epsilon > 0. Registered by package
	// approx.
	StrategyApproxSkeleton = "approx-skeleton"
	// StrategyAuto defers the pipeline choice to the serving layer's
	// planner, which resolves it to a concrete registered strategy before
	// any pipeline runs. It is a request-level sentinel, not a pipeline:
	// it has no registry entry, and Solve rejects it unresolved.
	StrategyAuto = "auto"
)

// ErrNegativeCycle mirrors graph.ErrNegativeCycle at the solver level.
var ErrNegativeCycle = graph.ErrNegativeCycle

// ErrSaturatedDistance mirrors graph.ErrSaturatedDistance at the solver
// level.
var ErrSaturatedDistance = graph.ErrSaturatedDistance

// Config configures an APSP solve.
type Config struct {
	// Strategy names the pipeline by registry name or alias; empty selects
	// StrategyQuantum.
	Strategy string
	// Params forwards protocol constants (nil = paper constants).
	Params *triangles.Params
	// Seed drives all protocol randomness.
	Seed uint64
	// Workers bounds the host-side parallelism of node-local phases
	// (oracle evaluation, Grover state-vector updates, local min-plus
	// work); <= 0 selects GOMAXPROCS. Dist and Rounds are identical for
	// every setting — parallelism only changes wall-clock time.
	Workers int
	// Epsilon is the multiplicative stretch budget of the approximate
	// strategies: StrategyApproxQuantum guarantees 1+ε, StrategyApproxSkeleton
	// 2+ε. It must be > 0 for those strategies and 0 (unset) for the exact
	// ones — epsilon is part of a result's identity, so silently ignoring
	// it would alias distinct solves.
	Epsilon float64
	// StageHook, when non-nil, is invoked at every engine stage boundary
	// (before that stage's cancellation checkpoint) with the stage index
	// and name. It is an observability and test seam — the
	// cancel-at-every-boundary regression drives it; it must not mutate
	// solve state and must not be relied on for protocol logic.
	StageHook func(i int, name string)
}

func (c Config) strategy() string {
	if c.Strategy == "" {
		return StrategyQuantum
	}
	return c.Strategy
}

// Result is the outcome of an APSP solve: the engine's Outcome (distances,
// with graph.Inf for unreachable pairs; rounds; products; per-stage
// telemetry) plus the solve's identity and stretch contract.
type Result struct {
	engine.Outcome
	// Strategy is the canonical registry name of the pipeline that ran.
	Strategy string
	// W is the input weight bound observed.
	W int64
	// Epsilon echoes Config.Epsilon (0 for exact strategies).
	Epsilon float64
	// GuaranteedStretch is the multiplicative stretch bound the strategy
	// guarantees: 1 for the exact pipelines, 1+ε for StrategyApproxQuantum,
	// 2+ε for StrategyApproxSkeleton.
	GuaranteedStretch float64
}

// Solve computes exact APSP distances for g. Graphs containing a negative
// cycle yield ErrNegativeCycle (distances are undefined), detected from a
// negative diagonal after the squaring chain, exactly as the matrix
// formulation prescribes. A −∞ entry without a negative diagonal yields
// ErrSaturatedDistance: a sum of in-range weights saturated.
func Solve(g *graph.Digraph, cfg Config) (*Result, error) {
	return SolveContext(context.Background(), g, cfg)
}

// SolveContext is Solve under a context: the engine checkpoints between
// pipeline stages, and the distprod/triangles layers checkpoint inside the
// squaring-chain and triangle-enumeration loops, so a cancelled or
// deadline-expired context stops the solve at the next boundary. On
// cancellation the returned error wraps the context error, and the
// returned Result — nil Dist — carries the partial per-stage telemetry
// (stages completed, rounds charged) of the work done before the stop.
func SolveContext(ctx context.Context, g *graph.Digraph, cfg Config) (*Result, error) {
	if g == nil {
		return nil, errors.New("core: nil graph")
	}
	strat, registered := engine.Lookup(cfg.strategy())
	if !registered {
		return nil, fmt.Errorf("core: unknown strategy %q (registered: %s)", cfg.Strategy, strings.Join(engine.Names(), ", "))
	}
	if strat.Capabilities().Approximate {
		if !approx.ValidEpsilon(cfg.Epsilon) {
			return nil, fmt.Errorf("core: strategy %s: %w (got %v)", strat.Name(), approx.ErrBadEpsilon, cfg.Epsilon)
		}
	} else if cfg.Epsilon != 0 {
		return nil, fmt.Errorf("core: Epsilon is only valid for approximate strategies (got %v with %s)", cfg.Epsilon, strat.Name())
	}
	res := &Result{
		Strategy:          strat.Name(),
		W:                 g.MaxAbsWeight(),
		Epsilon:           cfg.Epsilon,
		GuaranteedStretch: strat.Guarantee(cfg.Epsilon),
	}
	if g.N() == 0 {
		res.Dist = matrix.New(0)
		res.ObservedStretch = 1
		return res, nil
	}
	out, err := engine.Run(ctx, strat, &engine.Request{
		G:         g,
		Params:    cfg.Params,
		Seed:      cfg.Seed,
		Workers:   cfg.Workers,
		Epsilon:   cfg.Epsilon,
		StageHook: cfg.StageHook,
	})
	if out == nil {
		return nil, err
	}
	res.Outcome = *out
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// Cancelled mid-pipeline: surface the partial stage telemetry
			// (no distances) so the serving layer can report what ran.
			return res, err
		}
		return nil, err
	}
	if res.Dist.HasNegativeDiagonal() {
		return res, ErrNegativeCycle
	}
	if res.Dist.HasNegInf() {
		return res, ErrSaturatedDistance
	}
	return res, nil
}

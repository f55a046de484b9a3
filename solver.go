package qclique

// Solver: the reusable handle that makes repeated and concurrent workloads
// first-class. SolveAPSP charges the full Õ(n^{1/4}·log W) pipeline on
// every call; a Solver owns an LRU cache keyed by graph content hash (plus
// strategy, preset and seed), deduplicates concurrent identical solves
// onto one simulator run, and answers batched path/SSSP queries against
// one shared APSP result. cmd/apspd exposes the same layer over HTTP.

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"qclique/internal/serve"
)

// Solver is a reusable APSP solve handle with a result cache and a worker
// pool. Safe for concurrent use; the zero value is not usable — construct
// with NewSolver.
type Solver struct {
	defaults Options
	svc      *serve.Service
}

// NewSolver returns a Solver whose defaults are the given options; each
// query method accepts further options that override the defaults for that
// call. WithCacheSize bounds the retained results, WithWorkers bounds the
// host-side parallelism shared by solves and batch queries.
func NewSolver(opts ...Option) *Solver {
	o := buildOptions(opts)
	return &Solver{
		defaults: o,
		svc:      serve.New(serve.Config{CacheSize: o.CacheSize, Workers: o.Workers}),
	}
}

// merged applies per-call options over the solver defaults.
func (s *Solver) merged(opts []Option) Options {
	o := s.defaults
	for _, fn := range opts {
		fn(&o)
	}
	o.normalize()
	return o
}

// spec translates the public configuration into the serving layer's solve
// identity — the one place the two vocabularies meet, which is also what
// lets Options.Validate reuse serve's SolveSpec.Validate verbatim.
func (o Options) spec() serve.SolveSpec {
	o.normalize()
	return serve.SolveSpec{
		Strategy: string(o.Strategy),
		Preset:   o.Preset,
		Seed:     o.Seed,
		Epsilon:  o.Epsilon,
		Workers:  o.Workers,
		Faults:   o.Faults,
		Degrade:  o.Degrade,
	}
}

// resultFromServe exports a cache-owned result (see exportResult) with the
// serving layer's annotations. Strategy is the pipeline that ran: the
// requested one, the degradation rung that answered, or the planner's
// choice.
func resultFromServe(sr *serve.SolveResult) *APSPResult {
	res := exportResult(sr.Res)
	res.Cached = sr.Cached
	if sr.Degraded {
		// The ladder answered with a fallback rung; DegradedFrom names the
		// requested (or, under the planner, the planned) strategy.
		res.Degraded = true
		res.DegradedFrom = Strategy(sr.DegradedFrom)
		res.DegradeReason = sr.DegradeReason
	}
	if sr.Plan != nil {
		// The planner resolved StrategyAuto: report the decision's
		// prediction.
		res.Planned = true
		res.PlannerReason = sr.Plan.Reason
		res.PredictedRounds = sr.Plan.PredictedRounds
		res.PredictedWallNs = sr.Plan.PredictedWallNs
	}
	return res
}

// Solve computes (or serves from cache) exact APSP distances for g. A
// cached or deduplicated call performs zero simulator rounds; the returned
// result still reports the rounds the original solve charged.
func (s *Solver) Solve(g *Digraph, opts ...Option) (*APSPResult, error) {
	return s.SolveContext(context.Background(), g, opts...)
}

// SolveContext is Solve honoring a context (optionally tightened by
// WithTimeout): a cancelled or deadline-expired solve stops at the
// pipeline's next checkpoint with an error wrapping the context error,
// nothing is cached, and the solver remains fully usable — re-solving the
// same graph afterwards runs fresh and returns results bit-identical to
// an uncancelled solve.
func (s *Solver) SolveContext(ctx context.Context, g *Digraph, opts ...Option) (*APSPResult, error) {
	if s == nil || s.svc == nil {
		return nil, errors.New("qclique: use NewSolver")
	}
	if g == nil {
		return nil, errors.New("qclique: nil graph")
	}
	o := s.merged(opts)
	ctx, cancel := o.solveCtx(ctx)
	defer cancel()
	sr, err := s.svc.SolveGraphContext(ctx, g.g, o.spec())
	if err != nil {
		return nil, err
	}
	return resultFromServe(sr), nil
}

// SSSP computes single-source shortest distances from src through Solve,
// sharing the solver cache (and WithTimeout's deadline): any number of
// sources against one graph charge the pipeline once.
func (s *Solver) SSSP(g *Digraph, src int, opts ...Option) ([]int64, *APSPResult, error) {
	if g != nil && (src < 0 || src >= g.N()) {
		return nil, nil, fmt.Errorf("qclique: source %d out of range", src)
	}
	res, err := s.Solve(g, opts...)
	if err != nil {
		return nil, nil, err
	}
	return slices.Clone(res.Dist[src]), res, nil
}

// ShortestPath returns one shortest path src→dst and its length, solving
// (or reusing the cached solve of) g first, under WithTimeout's deadline.
// Unreachable pairs yield ErrNoPath. Approximate strategies yield
// ErrApproxPaths — snapped distances carry no tight-successor structure to
// walk.
func (s *Solver) ShortestPath(g *Digraph, src, dst int, opts ...Option) ([]int, int64, error) {
	if s == nil || s.svc == nil {
		return nil, 0, errors.New("qclique: use NewSolver")
	}
	if g == nil {
		return nil, 0, errors.New("qclique: nil graph")
	}
	if n := g.N(); src < 0 || src >= n || dst < 0 || dst >= n {
		return nil, 0, fmt.Errorf("qclique: endpoints (%d,%d) out of range", src, dst)
	}
	o := s.merged(opts)
	ctx, cancel := o.solveCtx(context.Background())
	defer cancel()
	// Path reconstruction needs exact tight-successor structure: the serving
	// layer refuses an approximate strategy and confines a planned
	// (StrategyAuto) solve to the exact catalog.
	sr, err := s.svc.SolveGraphContext(ctx, g.g, o.spec().ExactPlanning())
	if err != nil {
		return nil, 0, err
	}
	path, err := sr.Oracle.Path(src, dst)
	if err != nil {
		return nil, 0, err
	}
	d, err := sr.Oracle.Dist(src, dst)
	if err != nil {
		return nil, 0, err
	}
	return path, d, nil
}

// PathQuery is one (src, dst) request in a PathsBatch call.
type PathQuery = serve.PathQuery

// PathAnswer is the response to one PathQuery: Dist is the shortest
// distance (Inf when unreachable) and Path the vertex sequence src..dst.
// Err carries per-query failures (ErrNoPath for unreachable pairs, with a
// nil Path) without failing the batch.
type PathAnswer = serve.PathAnswer

// PathsBatch answers all queries against one (cached) APSP solve of g,
// fanning the per-query reconstruction across the worker pool and reusing
// per-destination successor structure across queries. WithTimeout bounds
// the solve. The returned result describes the shared solve.
func (s *Solver) PathsBatch(g *Digraph, queries []PathQuery, opts ...Option) ([]PathAnswer, *APSPResult, error) {
	if s == nil || s.svc == nil {
		return nil, nil, errors.New("qclique: use NewSolver")
	}
	if g == nil {
		return nil, nil, errors.New("qclique: nil graph")
	}
	o := s.merged(opts)
	ctx, cancel := o.solveCtx(context.Background())
	defer cancel()
	answers, sr, err := s.svc.PathsBatchGraphContext(ctx, g.g, o.spec(), queries)
	if err != nil {
		return nil, nil, err
	}
	return answers, resultFromServe(sr), nil
}

// StrategyStats is the per-strategy accounting of a Solver: requests,
// cache hits, deduplicated requests, executions and how they ended, the
// injected-fault and retry rollup, and the rounds and wall time of
// completed executions. Stages rolls those executions up per stage name
// (runs, rounds, words, wall); its rounds sum to RoundsCharged. It is the
// same record the daemon serves on /v1/metrics.
type StrategyStats = serve.StrategyStats

// PlannerStats is the Solver's strategy-planner accounting: how many
// StrategyAuto requests were planned, which strategies the planner chose
// (Chosen, keyed by strategy name), and the cumulative prediction error of
// its cost model against the observed executions (cached and degraded
// planned solves never run the predicted pipeline, so they count decisions
// but not observations).
type PlannerStats = serve.PlannerStats

// SolverStats is a point-in-time snapshot of a Solver's accounting.
type SolverStats struct {
	// CachedResults is the number of solve results currently retained.
	CachedResults int
	// PathQueries counts individual path queries answered.
	PathQueries int64
	// Planner is the strategy-planner accounting; nil until the first
	// StrategyAuto decision.
	Planner *PlannerStats
	// Strategies maps strategy name (e.g. "quantum") to its accounting.
	Strategies map[string]StrategyStats
}

// Stats returns the solver's accounting snapshot.
func (s *Solver) Stats() SolverStats {
	if s == nil || s.svc == nil {
		return SolverStats{}
	}
	// The snapshot is already a deep copy, so the aliased planner and
	// strategy sections pass through as they are.
	st := s.svc.Stats()
	return SolverStats{
		CachedResults: st.CachedResults,
		PathQueries:   st.PathQueries,
		Planner:       st.Planner,
		Strategies:    st.Strategies,
	}
}

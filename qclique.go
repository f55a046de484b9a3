// Package qclique is a simulation-backed implementation of "Quantum
// Distributed Algorithm for the All-Pairs Shortest Path Problem in the
// CONGEST-CLIQUE Model" (Izumi & Le Gall, PODC 2019, arXiv:1906.02456).
//
// It provides exact APSP over directed graphs with integer weights
// (positive and negative, no negative cycles) computed by the paper's
// Õ(n^{1/4}·log W)-round quantum pipeline inside a CONGEST-CLIQUE
// simulator, alongside the classical baselines the paper compares against
// (Dolev–Lenzen–Peled Õ(n^{1/3}) listing, classical Õ(√n) search, O(n)
// gossip). The quantum parts run on an exact Grover state-vector
// simulator; network costs are charged per the paper's round accounting
// and reported with every result.
//
// # Quick start
//
//	g := qclique.NewDigraph(16)
//	g.SetArc(0, 1, 3)
//	g.SetArc(1, 2, -1)
//	res, err := qclique.SolveAPSP(g, qclique.WithSeed(42))
//	// res.Dist[0][2] == 2, res.Rounds == CONGEST-CLIQUE cost
//
// The lower-level building blocks — FindNegativeTriangleEdges (the
// FindEdges problem of Section 3) and DistanceProduct (Proposition 2) —
// are exposed with the same options.
package qclique

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"qclique/internal/congest"
	"qclique/internal/core"
	"qclique/internal/distprod"
	"qclique/internal/engine"
	"qclique/internal/graph"
	"qclique/internal/matrix"
	"qclique/internal/serve"
	"qclique/internal/triangles"
)

// Inf is the distance reported for unreachable pairs.
const Inf = graph.Inf

// ErrNegativeCycle is returned by SolveAPSP when the input contains a
// negative-weight directed cycle, for which shortest distances are
// undefined.
var ErrNegativeCycle = graph.ErrNegativeCycle

// Strategy names an APSP pipeline. Its value is the pipeline's canonical
// engine registry name, so a Strategy prints, parses, caches and reports
// under the same string everywhere — the library, the Solver's stats, the
// HTTP API and the CLI tools. Any registered name or alias converts
// directly (Strategy("classical")); solves canonicalize aliases, and a
// name that is not registered is rejected with the list of registered
// names.
type Strategy string

// Available strategies. The zero value selects Quantum.
const (
	// Quantum is the paper's Õ(n^{1/4}·log W) pipeline (Theorem 1).
	Quantum Strategy = core.StrategyQuantum
	// ClassicalSearch replaces the Grover search with the classical O(√n)
	// scan in Step 3 of ComputePairs.
	ClassicalSearch Strategy = core.StrategyClassicalSearch
	// DolevListing drives the reductions with the classical Õ(n^{1/3})
	// triangle-listing of Dolev, Lenzen and Peled.
	DolevListing Strategy = core.StrategyDolev
	// Gossip is the naive O(n)-round baseline: full adjacency gossip plus
	// local computation.
	Gossip Strategy = core.StrategyGossip
	// ApproxQuantum is the (1+ε)-approximate quantum chain: every distance
	// product is snapped onto a geometric value ladder, cutting the
	// binary-search depth (and hence rounds) of every product. Requires
	// nonnegative weights and WithEpsilon(ε > 0); distances satisfy
	// d ≤ d̂ ≤ (1+ε)·d with reachability preserved exactly.
	ApproxQuantum Strategy = core.StrategyApproxQuantum
	// ApproxSkeleton is the (2+ε) skeleton strategy (after Censor-Hillel
	// et al., arXiv:1903.05956): exact k-nearest balls, a sampled skeleton
	// solved on the (1+ε/2) ladder, estimates combined through skeleton
	// hubs. Requires a weight-symmetric nonnegative graph and
	// WithEpsilon(ε > 0).
	ApproxSkeleton Strategy = core.StrategyApproxSkeleton
	// StrategyAuto asks the serving layer's planner to choose: the solve is
	// routed to the best registered strategy viable for the graph's
	// structural profile (negative arcs, asymmetry) and the request's
	// stretch budget and deadline. Requires a Solver (or the daemon) — the
	// planner consumes serving-layer telemetry, so the plain SolveAPSP
	// entry points reject it. See WithPlanner.
	StrategyAuto Strategy = core.StrategyAuto
)

// StrategyInfo describes one registered pipeline, as enumerated from the
// engine's strategy registry. The Strategy value is the canonical registry
// name.
type StrategyInfo struct {
	// Strategy is the selector to pass to WithStrategy.
	Strategy Strategy
	// Approximate reports whether the pipeline requires WithEpsilon.
	Approximate bool
	// FindEdges reports whether the strategy names a FindEdges solver of
	// its own, i.e. is meaningful to FindNegativeTriangleEdges (see
	// findEdgesRole, which lives next to that dispatch).
	FindEdges bool
}

// Guarantee returns the multiplicative stretch bound the pipeline
// guarantees for stretch budget eps: 1 for exact pipelines, 1+ε or 2+ε
// for the approximate ones.
func (si StrategyInfo) Guarantee(eps float64) float64 {
	if st, ok := engine.Lookup(string(si.Strategy)); ok {
		return st.Guarantee(eps)
	}
	return 1
}

// Strategies enumerates every registered pipeline, sorted by name. New
// pipelines appear here (and everywhere the registry is consumed — the
// serving layer, the cmd tools) by registering with the engine, with no
// hand-maintained list to grow.
func Strategies() []StrategyInfo {
	var out []StrategyInfo
	for _, st := range engine.Strategies() {
		out = append(out, infoFor(st))
	}
	return out
}

// StrategyInfoFor returns the registry entry describing s, a registered
// name or alias (false when s has no registered pipeline).
func StrategyInfoFor(s Strategy) (StrategyInfo, bool) {
	st, ok := engine.Lookup(string(s))
	if !ok {
		return StrategyInfo{}, false
	}
	return infoFor(st), true
}

func infoFor(st engine.Strategy) StrategyInfo {
	s := Strategy(st.Name())
	return StrategyInfo{Strategy: s, Approximate: st.Capabilities().Approximate, FindEdges: findEdgesRole(s)}
}

// ParseStrategy resolves a registry name or alias ("quantum", "classical"
// for classical-search, "dolev-listing" for dolev, "skeleton" for
// approx-skeleton, "auto" for the planner, …) to its canonical Strategy;
// the empty string selects Quantum. An unknown name fails with the list of
// registered names.
func ParseStrategy(name string) (Strategy, error) {
	s, err := serve.ParseStrategy(name)
	if err != nil {
		return "", fmt.Errorf("qclique: %w", err)
	}
	return Strategy(s), nil
}

// FormatStrategyList renders the strategy catalog as the human-readable
// listing the CLI tools print for "-strategy list": one line per
// registered pipeline with its stretch guarantee and input requirements.
// It renders the same serve.CatalogEntries data GET /v1/strategies serves,
// so every surface shows one list with no hand-maintained copies.
func FormatStrategyList() string {
	var b strings.Builder
	b.WriteString("registered strategies:\n")
	for _, ce := range serve.CatalogEntries() {
		desc := "stretch exact"
		if ce.Approximate {
			var needs []string
			if ce.RejectsNegative {
				needs = append(needs, "nonnegative weights")
			}
			if ce.NeedsSymmetric {
				needs = append(needs, "symmetric weights")
			}
			needs = append(needs, fmt.Sprintf("epsilon in [%g, %g]", ce.MinEpsilon, ce.MaxEpsilon))
			desc = fmt.Sprintf("stretch %s (requires %s)", ce.Guarantee, strings.Join(needs, ", "))
		}
		fmt.Fprintf(&b, "  %-18s %s\n", ce.Name, desc)
	}
	b.WriteString("  auto               planner picks the best viable strategy per request\n")
	return b.String()
}

// ParamPreset selects the protocol-constant preset; the zero value is
// PaperConstants. It prints as "paper" or "scaled", the names the HTTP API
// and the daemon accept.
type ParamPreset = serve.Preset

// Parameter presets.
const (
	// PaperConstants uses the constants exactly as printed in the paper
	// (10·log n sampling, 90·log n promise, 800·√n·log n slot caps, …).
	PaperConstants = serve.PresetPaper
	// ScaledConstants uses ~3× smaller constants with the same asymptotic
	// shape, keeping message volumes simulable at larger n.
	ScaledConstants = serve.PresetScaled
)

// Options is the full configuration of the public entry points, with every
// knob the functional With* options set, as one validatable value. The
// With* options mutate an Options; callers holding a complete configuration
// (a config file, a request body) can instead build an Options directly,
// check it once with Validate, and pass it through WithOptions.
type Options struct {
	// Strategy names the pipeline: a registered name or alias (the zero
	// value selects Quantum). Solves canonicalize aliases, and Validate
	// rejects a name that is not registered.
	Strategy Strategy
	// Preset selects the protocol-constant preset (the zero value is
	// PaperConstants).
	Preset ParamPreset
	// Seed fixes the protocol randomness; equal seeds reproduce.
	Seed uint64
	// Epsilon is the stretch budget of the approximate strategies; it must
	// be > 0 with an approximate strategy and 0 with an exact one.
	Epsilon float64
	// Workers bounds the host-side parallelism of node-local phases
	// (<= 0 selects GOMAXPROCS). Results are worker-invariant.
	Workers int
	// CacheSize bounds the results a Solver retains (NewSolver only;
	// <= 0 selects a small built-in capacity).
	CacheSize int
	// Timeout bounds the wall-clock time of a solve (0 = no deadline).
	Timeout time.Duration
	// Faults arms the solve with a deterministic fault-injection plan
	// (zero disables injection).
	Faults FaultPlan
	// Degrade opts Solver solves into the graceful-degradation ladder
	// (see WithDegradation).
	Degrade bool
}

// Validate rejects configurations no solve can run: an unregistered
// strategy (the error lists the registered names), an epsilon that
// disagrees with the strategy class (or falls outside the supported
// domain), a malformed fault plan, or a negative timeout. It shares the
// serving layer's validation, so the library, the Solver, and the HTTP
// daemon accept and refuse exactly the same configurations.
func (o Options) Validate() error {
	if o.Timeout < 0 {
		return fmt.Errorf("qclique: negative timeout %v", o.Timeout)
	}
	if err := o.spec().Validate(); err != nil {
		return fmt.Errorf("qclique: %w", err)
	}
	return nil
}

// Option configures SolveAPSP, FindNegativeTriangleEdges and
// DistanceProduct.
type Option func(*Options)

// WithOptions overlays a complete Options value, replacing every knob at
// once (a zero Strategy still selects the Quantum default). Later options
// in the same call keep overriding individual fields.
func WithOptions(o Options) Option {
	return func(dst *Options) {
		*dst = o
		dst.normalize()
	}
}

// WithStrategy selects the pipeline strategy.
func WithStrategy(s Strategy) Option {
	return func(o *Options) { o.Strategy = s }
}

// WithPlanner delegates strategy choice to the serving layer's planner
// (equivalent to WithStrategy(StrategyAuto)): each solve is routed to the
// best registered strategy viable for the graph's structural profile and
// the request's stretch budget and deadline, and the result reports which
// strategy ran. Requires a Solver — the planner blends static cost priors
// with the Solver's live telemetry, so the plain SolveAPSP entry points
// reject it. A planned solve is bit-identical to explicitly requesting
// the chosen strategy (it shares the same cache entries).
func WithPlanner() Option {
	return func(o *Options) { o.Strategy = StrategyAuto }
}

// WithSeed fixes the protocol randomness; runs with equal seeds are
// reproducible.
func WithSeed(seed uint64) Option {
	return func(o *Options) { o.Seed = seed }
}

// WithParams selects the protocol-constant preset.
func WithParams(p ParamPreset) Option {
	return func(o *Options) { o.Preset = p }
}

// WithEpsilon sets the multiplicative stretch budget of the approximate
// strategies (ApproxQuantum guarantees 1+ε, ApproxSkeleton 2+ε). It must
// be > 0 with an approximate strategy and left unset with an exact one —
// epsilon is part of a result's identity (it changes both distances and
// rounds), so it is rejected rather than silently ignored.
func WithEpsilon(eps float64) Option {
	return func(o *Options) { o.Epsilon = eps }
}

// WithWorkers bounds the host-side parallelism used for node-local phases
// of the simulation (oracle evaluation, Grover state-vector updates, local
// min-plus work). The default (0) uses GOMAXPROCS. Results — distances and
// simulated round counts — are identical for every worker count; only
// wall-clock time changes.
func WithWorkers(n int) Option {
	return func(o *Options) { o.Workers = n }
}

// WithCacheSize bounds the number of solved results a Solver retains
// (least-recently-used eviction). It is read by NewSolver only; the
// default (0) selects a small built-in capacity.
func WithCacheSize(n int) Option {
	return func(o *Options) { o.CacheSize = n }
}

// WithTimeout bounds the wall-clock time of a solve: the pipeline
// checkpoints between its stages and inside the squaring-chain and
// triangle-enumeration loops, and a deadline that expires stops the solve
// at the next checkpoint with an error wrapping
// context.DeadlineExceeded. The default (0) imposes no deadline. It
// composes with SolveAPSPContext / Solver.SolveContext: the effective
// deadline is the earlier of the two.
func WithTimeout(d time.Duration) Option {
	return func(o *Options) { o.Timeout = d }
}

// solveCtx applies the timeout option onto the caller's context.
func (o Options) solveCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if o.Timeout > 0 {
		return context.WithTimeout(ctx, o.Timeout)
	}
	return ctx, func() {}
}

// normalize resolves the strategy to its canonical registry name (the zero
// value to Quantum, an alias to the name it stands for). An unregistered
// name is left as given, for Validate to reject.
func (o *Options) normalize() {
	if s, err := ParseStrategy(string(o.Strategy)); err == nil {
		o.Strategy = s
	}
}

func buildOptions(opts []Option) Options {
	var o Options
	for _, fn := range opts {
		fn(&o)
	}
	o.normalize()
	return o
}

// Digraph is a weighted directed graph on vertices 0..n-1, the input to
// SolveAPSP.
type Digraph struct {
	g *graph.Digraph
}

// NewDigraph returns an empty directed graph on n vertices.
func NewDigraph(n int) *Digraph {
	return &Digraph{g: graph.NewDigraph(n)}
}

// N returns the vertex count.
func (d *Digraph) N() int { return d.g.N() }

// SetArc sets the weight of arc u→v. Self-loops are rejected, and so is a
// weight outside the open interval (−Inf, Inf).
func (d *Digraph) SetArc(u, v int, weight int64) error { return d.g.SetArc(u, v, weight) }

// Weight returns the weight of arc u→v and whether it exists.
func (d *Digraph) Weight(u, v int) (int64, bool) { return d.g.Weight(u, v) }

// Graph is a weighted undirected graph on vertices 0..n-1, the input to
// FindNegativeTriangleEdges.
type Graph struct {
	g *graph.Undirected
}

// NewGraph returns an empty undirected graph on n vertices.
func NewGraph(n int) *Graph {
	return &Graph{g: graph.NewUndirected(n)}
}

// N returns the vertex count.
func (g *Graph) N() int { return g.g.N() }

// SetEdge sets the weight of edge {u,v}. Self-loops are rejected, and so is
// a weight outside the open interval (−Inf, Inf).
func (g *Graph) SetEdge(u, v int, weight int64) error { return g.g.SetEdge(u, v, weight) }

// Weight returns the weight of edge {u,v} and whether it exists.
func (g *Graph) Weight(u, v int) (int64, bool) { return g.g.Weight(u, v) }

// APSPResult reports an APSP solve.
type APSPResult struct {
	// Dist[i][j] is the shortest distance from i to j; Inf if unreachable.
	// The rows are the caller's to keep (solver-produced results copy them
	// out of the cache), but they are an export, not the source of truth:
	// ShortestPath reconstructs against the solver's retained matrix.
	Dist [][]int64
	// Rounds is the simulated CONGEST-CLIQUE round count of the whole
	// pipeline.
	Rounds int64
	// Products is the number of distance products of the squaring chain:
	// at most ⌈log₂ n⌉. The quantum, classical-search and dolev pipelines
	// run all ⌈log₂ n⌉; gossip and approx-quantum stop once a squaring
	// returns its input unchanged (the chain's fixed point). Gossip's count
	// is the chain's length, computed rather than run: one local
	// Floyd–Warshall pass yields the fixed point and the squaring that
	// reaches it, and the chain runs only on inputs with a negative cycle,
	// −∞ distances or weights whose sums may saturate.
	Products int
	// FindEdgesCalls counts the negative-triangle subproblems solved.
	FindEdgesCalls int
	// Strategy records which pipeline ran.
	Strategy Strategy
	// Cached reports whether this result was served from a Solver cache
	// (or deduplicated onto a concurrent identical solve) instead of
	// running the simulator; cached results charge zero new rounds.
	Cached bool
	// Epsilon echoes the stretch budget of an approximate solve (0 for
	// exact strategies).
	Epsilon float64
	// GuaranteedStretch is the multiplicative bound the strategy
	// guarantees: 1 (exact), 1+ε (ApproxQuantum), or 2+ε (ApproxSkeleton).
	GuaranteedStretch float64
	// ObservedStretch is the measured maximum ratio of the returned
	// distances over the exact reference for this input (1 for exact
	// strategies).
	ObservedStretch float64
	// Degraded marks a result the graceful-degradation ladder answered
	// with a fallback strategy (see WithDegradation): Strategy and
	// GuaranteedStretch describe the rung that actually ran, DegradedFrom
	// the strategy that was asked for, DegradeReason why it stepped down
	// ("retries-exhausted" or "deadline").
	Degraded      bool
	DegradedFrom  Strategy
	DegradeReason string
	// Planned marks a result whose strategy the planner chose
	// (StrategyAuto / WithPlanner): Strategy reports the pipeline that
	// actually ran, PlannerReason why the planner picked it, and
	// PredictedRounds/PredictedWallNs its cost prediction at decision time
	// (compare with Rounds and the measured wall to judge the planner).
	Planned         bool
	PlannerReason   string
	PredictedRounds int64
	PredictedWallNs int64
	// Faults is the injected-fault accounting of the solve (all zeros
	// without WithFaultPlan).
	Faults FaultCounters
	// Stages is the engine's per-stage breakdown of the pipeline that
	// produced this result, in execution order: for cached results, the
	// telemetry of the original run. Stage rounds sum exactly to Rounds.
	Stages []StageStat

	// dist retains the solver's distance matrix so path reconstruction
	// (ShortestPath, Solver batch queries) skips the O(n²) rebuild from
	// the exported rows. Nil for hand-assembled results.
	dist *matrix.Matrix
}

// StageStat is one pipeline stage's telemetry: the rounds, words and
// phases are exact simulator accounting (deterministic seed-for-seed);
// Wall, Allocs and Backoff are host-side measurements.
type StageStat = engine.StageStat

// exportResult builds the public result of a solve, for SolveAPSP and the
// Solver alike. Rows and stages are copied: they are the caller's to
// mutate, while a Solver's result is shared by every caller its cache
// serves, and handing out views would let one caller corrupt the others'.
// At serviceable n the O(n²) row copy costs microseconds against a
// pipeline run measured in seconds.
func exportResult(res *core.Result) *APSPResult {
	dist := make([][]int64, res.Dist.N())
	for i := range dist {
		dist[i] = res.Dist.Row(i)
	}
	return &APSPResult{
		Dist:              dist,
		Rounds:            res.Rounds,
		Products:          res.Products,
		FindEdgesCalls:    res.FindEdgesCalls,
		Strategy:          Strategy(res.Strategy),
		Epsilon:           res.Epsilon,
		GuaranteedStretch: res.GuaranteedStretch,
		ObservedStretch:   res.ObservedStretch,
		Faults:            res.Metrics.Faults,
		Stages:            slices.Clone(res.Stages),
		dist:              res.Dist,
	}
}

// SolveAPSP computes exact all-pairs shortest distances for g.
func SolveAPSP(g *Digraph, opts ...Option) (*APSPResult, error) {
	return SolveAPSPContext(context.Background(), g, opts...)
}

// SolveAPSPContext is SolveAPSP honoring a context: the pipeline
// checkpoints between stages and inside the squaring-chain and
// triangle-enumeration loops, so cancellation (or a WithTimeout deadline)
// stops the solve at the next checkpoint with an error wrapping the
// context's error. An already-cancelled context returns promptly without
// simulating.
func SolveAPSPContext(ctx context.Context, g *Digraph, opts ...Option) (*APSPResult, error) {
	if g == nil {
		return nil, errors.New("qclique: nil graph")
	}
	o := buildOptions(opts)
	if o.Degrade {
		// The degradation ladder lives in the serving layer; rejecting here
		// beats silently ignoring a resilience request.
		return nil, errors.New("qclique: WithDegradation requires a Solver")
	}
	if o.Strategy == StrategyAuto {
		// So does the strategy planner (it blends live Solver telemetry into
		// its cost model); rejecting beats silently running quantum.
		return nil, errors.New("qclique: WithPlanner/StrategyAuto requires a Solver")
	}
	if err := o.Validate(); err != nil {
		return nil, err
	}
	ctx, cancel := o.solveCtx(ctx)
	defer cancel()
	res, err := core.SolveContext(ctx, g.g, core.Config{
		Strategy: string(o.Strategy),
		Params:   o.Preset.Params(),
		Seed:     o.Seed,
		Epsilon:  o.Epsilon,
		Workers:  o.Workers,
		Faults:   o.Faults,
	})
	if err != nil {
		var fe *congest.FaultError
		if res != nil && errors.As(err, &fe) {
			return nil, &FaultExhaustedError{Stages: res.Stages, Rounds: res.Rounds, Faults: res.Metrics.Faults, Err: err}
		}
		return nil, err
	}
	return exportResult(res), nil
}

// Edge is an unordered vertex pair in a triangle report.
type Edge struct {
	U, V int
}

// TriangleReport reports a FindNegativeTriangleEdges run.
type TriangleReport struct {
	// Edges lists every edge involved in at least one negative triangle,
	// each with U < V, in unspecified order.
	Edges []Edge
	// Rounds is the simulated CONGEST-CLIQUE round count.
	Rounds int64
}

// findEdgesRole reports whether s names a FindEdges solver of its own —
// the capability StrategyInfo.FindEdges surfaces. The registered search
// pipelines define it (core.FindEdgesSolver): quantum and classical-search
// drive ComputePairs, dolev drives its own listing; gossip has no triangle
// machinery and the approximate strategies are APSP-only. DistanceProduct
// accepts exactly these strategies plus Gossip.
func findEdgesRole(s Strategy) bool {
	_, ok := core.FindEdgesSolver(string(s))
	return ok
}

// FindNegativeTriangleEdges solves the FindEdges problem of Section 3:
// report every edge of g that is part of a triangle whose three edge
// weights sum to a negative value. Only strategies with a FindEdges role
// (StrategyInfo.FindEdges: Quantum, ClassicalSearch, DolevListing) are
// accepted — gossip and the approximate strategies are APSP-only and are
// rejected rather than silently substituted, as is an epsilon (this
// problem has no stretch knob) and an unregistered strategy.
func FindNegativeTriangleEdges(g *Graph, opts ...Option) (*TriangleReport, error) {
	if g == nil {
		return nil, errors.New("qclique: nil graph")
	}
	o := buildOptions(opts)
	if err := o.Validate(); err != nil {
		return nil, err
	}
	solver, ok := core.FindEdgesSolver(string(o.Strategy))
	if !ok {
		return nil, fmt.Errorf("qclique: strategy %s has no FindEdges role (see StrategyInfo.FindEdges)", o.Strategy)
	}
	net, err := congest.NewNetwork(g.N())
	if err != nil {
		return nil, err
	}
	edges, err := distprod.FindEdges(triangles.Instance{G: g.g}, distprod.Options{
		Solver:  solver,
		Params:  o.Preset.Params(),
		Net:     net,
		Workers: o.Workers,
	}, o.Seed)
	if err != nil {
		return nil, err
	}
	out := &TriangleReport{Rounds: net.Rounds()}
	for p := range edges {
		out.Edges = append(out.Edges, Edge{U: p.U, V: p.V})
	}
	return out, nil
}

// ProductResult reports a DistanceProduct run.
type ProductResult struct {
	// C[i][j] = min_k (A[i][k] + B[k][j]); Inf marks "no path".
	C [][]int64
	// Rounds is the simulated CONGEST-CLIQUE round count: that of the
	// Proposition 2 reduction, or n for Gossip's one full broadcast.
	Rounds int64
}

// DistanceProduct computes the min-plus product of two n×n matrices given
// as row-major slices; use Inf for "no entry". The strategy option selects
// the FindEdges solver of the Proposition 2 reduction (Gossip selects the
// naive broadcast product). The product is exact, so strategies without a
// FindEdges role other than Gossip, any epsilon, and unregistered
// strategies are rejected rather than silently substituted.
func DistanceProduct(a, b [][]int64, opts ...Option) (*ProductResult, error) {
	o := buildOptions(opts)
	if err := o.Validate(); err != nil {
		return nil, err
	}
	if o.Strategy != Gossip && !findEdgesRole(o.Strategy) {
		return nil, fmt.Errorf("qclique: strategy %s has no distance-product solver (see StrategyInfo.FindEdges)", o.Strategy)
	}
	ma, err := matrix.FromRows(a)
	if err != nil {
		return nil, fmt.Errorf("qclique: matrix A: %w", err)
	}
	mb, err := matrix.FromRows(b)
	if err != nil {
		return nil, fmt.Errorf("qclique: matrix B: %w", err)
	}
	c, rounds, err := productFor(ma, mb, o)
	if err != nil {
		return nil, err
	}
	n := c.N()
	rows := make([][]int64, n)
	for i := range rows {
		// c is local to this call, so handing out aliasing views transfers
		// ownership of its backing storage to the result.
		rows[i] = c.RowView(i)
	}
	return &ProductResult{C: rows, Rounds: rounds}, nil
}

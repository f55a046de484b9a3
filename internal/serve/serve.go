// Package serve is the APSP-as-a-service layer: a graph store with
// content-hash identity, an LRU solve cache with singleflight deduplication
// (concurrent identical solves run the simulator once), batched
// SSSP/shortest-path query execution over one shared APSP result, and
// per-strategy request/round accounting. cmd/apspd exposes it over
// HTTP/JSON; the public qclique.Solver wraps it for library callers. The
// point is amortization: every caller of a repeated or concurrent workload
// pays the Õ(n^{1/4}·log W) pipeline at most once per distinct
// (graph, strategy, preset, seed).
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"time"

	"qclique/internal/approx"
	"qclique/internal/core"
	"qclique/internal/engine"
	"qclique/internal/graph"
	"qclique/internal/par"
	"qclique/internal/triangles"
)

const (
	defaultCacheSize = 64
	defaultMaxGraphs = 1024
)

// Preset selects the protocol-constant preset by name; the zero value is
// the paper's verbatim constants.
type Preset int

// Presets.
const (
	PresetPaper Preset = iota
	PresetScaled
)

func (p Preset) String() string {
	if p == PresetScaled {
		return "scaled"
	}
	return "paper"
}

// ParsePreset parses "paper" and "scaled" (empty selects paper).
func ParsePreset(s string) (Preset, error) {
	switch s {
	case "", "paper":
		return PresetPaper, nil
	case "scaled":
		return PresetScaled, nil
	default:
		return 0, fmt.Errorf("serve: unknown preset %q (want paper or scaled)", s)
	}
}

// Params returns the protocol constants the preset selects; this is the
// single place the preset→constants mapping lives.
func (p Preset) Params() *triangles.Params {
	var t triangles.Params
	if p == PresetScaled {
		t = triangles.BenchParams()
	} else {
		t = triangles.PaperParams()
	}
	return &t
}

// ParseStrategy resolves a strategy name or alias against the engine's
// strategy registry to its canonical name (empty selects quantum) — new
// pipelines become servable by registering, with no switch to grow here.
// "auto" passes through as the planner sentinel core.StrategyAuto: the
// service resolves it to a concrete registered strategy per request. An
// unknown name fails with ErrInvalidSpec and the list of registered names.
func ParseStrategy(s string) (string, error) {
	switch s {
	case "":
		return core.StrategyQuantum, nil
	case core.StrategyAuto:
		return s, nil
	}
	st, ok := engine.Lookup(s)
	if !ok {
		return "", fmt.Errorf("%w: unknown strategy %q (registered: %s)", ErrInvalidSpec, s, strings.Join(engine.Names(), ", "))
	}
	return st.Name(), nil
}

// ErrInvalidSpec marks solve specs that are malformed independent of any
// graph (e.g. an epsilon on an exact strategy); the HTTP layer maps it to
// 400 rather than 500.
var ErrInvalidSpec = errors.New("serve: invalid solve spec")

// CancelledError reports a solve stopped by its context (request deadline
// or client disconnect) before the pipeline completed. It carries the
// partial per-stage telemetry — the stages that ran and the rounds they
// charged — so a timed-out request can still report what the deadline
// bought; the HTTP layer maps it to 503 with that breakdown in the body.
// It wraps the context error, so errors.Is(err, context.DeadlineExceeded)
// and context.Canceled work through it. A caller only ever sees its own
// cancellation: a deduplicated follower whose leader was cancelled retries
// under its own (still-live) context instead of inheriting the error.
type CancelledError struct {
	// Stages is the partial per-stage breakdown before the stop.
	Stages []engine.StageStat
	// Rounds is the simulator rounds charged before the stop.
	Rounds int64
	// Err is the underlying context error.
	Err error
}

func (e *CancelledError) Error() string {
	return fmt.Sprintf("serve: solve cancelled after %d stage(s), %d rounds: %v", len(e.Stages), e.Rounds, e.Err)
}

func (e *CancelledError) Unwrap() error { return e.Err }

// ErrApproxPaths rejects path reconstruction against approximate solves:
// the successor walk relies on exact tightness (w(u,k) + d(k,dst) ==
// d(u,dst)), which ladder-snapped distances do not satisfy — once the
// snap actually distorts a distance, no tight successor exists and the
// only honest answers are "use an exact strategy" or a wrong path.
// Distance queries against approximate solves remain fully supported. It
// wraps ErrInvalidSpec, so the HTTP layer answers 400.
var ErrApproxPaths = fmt.Errorf("%w: path reconstruction requires an exact strategy (approximate distances carry no tight-successor structure)", ErrInvalidSpec)

// SolveSpec identifies one solve: everything that affects the simulator's
// output — including Epsilon, which changes both the distances and the
// round trajectory of the approximate strategies and therefore must
// participate in the cache identity. Workers is execution detail only
// (results are worker-invariant) and is excluded.
type SolveSpec struct {
	// Strategy is a registered strategy name or alias, or "auto"; empty
	// selects quantum. The service canonicalizes it before the cache key
	// and the stats are keyed, so an alias shares its strategy's entries.
	Strategy string
	Preset   Preset
	Seed     uint64
	// Epsilon is the stretch budget of the approximate strategies; it must
	// be > 0 for those and 0 for the exact ones (Validate enforces this —
	// silently ignoring it would alias distinct cache entries).
	Epsilon float64
	Workers int
	// Degrade enables the graceful-degradation ladder: a solve that runs
	// out of deadline headroom falls back along the planner's viable
	// fallback rungs (every strategy with a strictly weaker stretch
	// guarantee, best fidelity first — classically exact → approx-quantum
	// → approx-skeleton) and returns a degraded result instead of an
	// error. Not part of the cache identity — each rung solves, and
	// caches, under its own spec.
	Degrade bool
	// exactPlanning marks a solve for path reconstruction, which requires
	// exact tight-successor structure: a strategy=auto resolution is
	// confined to exact candidates, and a concrete approximate strategy is
	// rejected with ErrApproxPaths. Excluded from the cache identity (the
	// resolved spec determines the key).
	exactPlanning bool
}

// ExactPlanning returns a copy of the spec marked for path reconstruction
// (see the exactPlanning field). The library's path-reconstruction entry
// points use it.
func (s SolveSpec) ExactPlanning() SolveSpec {
	s.exactPlanning = true
	return s
}

// Validate rejects specs naming an unregistered strategy, and specs whose
// epsilon disagrees with the strategy class or falls outside the
// supported [approx.MinEpsilon, approx.MaxEpsilon] domain — before any
// pipeline (or unbounded ladder construction) runs. For strategy=auto the
// epsilon is a budget, not a parameter: absent (0) restricts planning to
// exact candidates, present it must be in the valid domain.
func (s SolveSpec) Validate() error {
	_, err := s.canonical()
	return err
}

// canonical validates the spec and returns it with its strategy resolved
// to the canonical registry name — the one identity the cache key, the
// stats and the planner see.
func (s SolveSpec) canonical() (SolveSpec, error) {
	name, err := ParseStrategy(s.Strategy)
	if err != nil {
		return s, err
	}
	s.Strategy = name
	st, concrete := engine.Lookup(name)
	switch {
	case !concrete: // auto
		if s.Epsilon != 0 && !approx.ValidEpsilon(s.Epsilon) {
			return s, fmt.Errorf("%w: auto-strategy epsilon budget must be 0 or in [%v, %v] (got %v)",
				ErrInvalidSpec, approx.MinEpsilon, approx.MaxEpsilon, s.Epsilon)
		}
	case st.Capabilities().Approximate && s.exactPlanning:
		return s, ErrApproxPaths
	case st.Capabilities().Approximate:
		if !approx.ValidEpsilon(s.Epsilon) {
			return s, fmt.Errorf("%w: strategy %q requires epsilon in [%v, %v] (got %v)",
				ErrInvalidSpec, name, approx.MinEpsilon, approx.MaxEpsilon, s.Epsilon)
		}
	case s.Epsilon != 0:
		return s, fmt.Errorf("%w: epsilon %v is only valid for approximate strategies", ErrInvalidSpec, s.Epsilon)
	}
	return s, nil
}

func (s SolveSpec) key(hash string) cacheKey {
	return cacheKey{hash: hash, strategy: s.Strategy, preset: s.Preset, seed: s.Seed, epsilon: s.Epsilon}
}

// Config configures a Service.
type Config struct {
	// CacheSize bounds the retained solve results (LRU; <= 0 selects 64).
	CacheSize int
	// MaxGraphs bounds the graph store (LRU; <= 0 selects 1024). The store
	// also keeps at most 1 GiB of adjacency (n²·8 bytes per graph).
	MaxGraphs int
	// Workers is the default host-parallelism bound for solves and batch
	// queries (<= 0 selects GOMAXPROCS).
	Workers int
	// MaxInflight bounds concurrently executing solves (simulator runs;
	// cache hits and singleflight followers are not charged against it).
	// <= 0 leaves execution unbounded — the library default.
	MaxInflight int
	// QueueDepth bounds the FIFO admission wait queue behind a saturated
	// MaxInflight; requests beyond it are shed with an OverloadError.
	// <= 0 selects 64 (meaningful only with MaxInflight > 0).
	QueueDepth int
	// DefaultStrategy is the strategy (a registered name or alias, or
	// "auto") a request that names none runs under. The empty value
	// preserves the legacy default, quantum; core.StrategyAuto makes the
	// planner the default — cmd/apspd sets exactly that.
	DefaultStrategy string
}

// Service is the solve layer. Safe for concurrent use.
type Service struct {
	cfg    Config
	store  *graphStore
	cache  *lruMap[cacheKey, *entry]
	flight *flightGroup
	stats  *statsCollector
	admit  *admission
}

// New returns a Service with the given configuration.
func New(cfg Config) *Service {
	return &Service{
		cfg:    cfg,
		store:  newGraphStore(cfg.MaxGraphs, maxStoreBytes),
		cache:  newLRUCache(cfg.CacheSize),
		flight: newFlightGroup(),
		stats:  newStatsCollector(),
		admit:  newAdmission(cfg.MaxInflight, cfg.QueueDepth),
	}
}

// BeginDrain closes the admission gate for shutdown: queued solves are shed
// with an OverloadError (reason "draining"), new solves are refused the
// same way, and Readiness flips to not-ready so load balancers stop routing
// here. In-flight solves are unaffected — the daemon's SIGTERM path calls
// this first, then http.Server.Shutdown to let them finish within the drain
// deadline.
func (s *Service) BeginDrain() { s.admit.drain() }

// Readiness is the GET /v1/readyz contract: Ready=false (HTTP 503) while the
// service is draining for shutdown or its admission queue is saturated —
// the signal a load balancer uses to stop routing before requests start
// shedding. Liveness (GET /v1/healthz) is unconditional by contrast: a
// draining daemon is still alive.
type Readiness struct {
	Ready bool `json:"ready"`
	// Reason is "draining" or "queue-saturated" when not ready.
	Reason string `json:"reason,omitempty"`
	// Inflight/Queued are the admission controller's point-in-time gauges.
	Inflight int `json:"inflight"`
	Queued   int `json:"queued"`
}

// Readiness reports whether the service should receive new traffic.
func (s *Service) Readiness() Readiness {
	st := s.admit.snapshot()
	r := Readiness{Ready: true, Inflight: st.Inflight, Queued: st.QueuedNow}
	switch {
	case st.Draining:
		r.Ready, r.Reason = false, "draining"
	case st.QueueDepth > 0 && st.QueuedNow >= st.QueueDepth:
		r.Ready, r.Reason = false, "queue-saturated"
	}
	return r
}

// PanicError reports a solve pipeline that panicked mid-execution,
// converted into an error at the recovery boundary instead of tearing down
// the daemon. Every solve builds its own state, so nothing the panic left
// half-written outlives it; the HTTP layer maps it to 500 "internal".
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack, for operator logs.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("serve: solve panicked: %v", e.Value)
}

// SolveResult is the outcome of a service solve.
type SolveResult struct {
	// GraphID is the content hash of the solved graph.
	GraphID string
	// Res is the underlying solver result, shared across callers — treat
	// as read-only.
	Res *core.Result
	// Oracle answers path queries against Res with per-destination reuse;
	// shared and concurrency-safe.
	Oracle *core.PathOracle
	// Cached reports that this request ran zero simulator rounds: it was
	// served from the cache or deduplicated onto a concurrent identical
	// solve.
	Cached bool
	// Degraded reports the degradation ladder answered with a fallback
	// strategy; Res.Strategy and Res.GuaranteedStretch describe the rung
	// that actually ran.
	Degraded bool
	// DegradedFrom is the canonical name of the originally requested
	// strategy (set only when Degraded).
	DegradedFrom string
	// DegradeReason is why the ladder stepped down: "deadline", the one
	// trigger.
	DegradeReason string
	// Plan records the planner's decision for a strategy=auto request (nil
	// when the caller named a concrete strategy). A degraded auto solve
	// keeps the original decision: DegradedFrom is then the planned
	// strategy.
	Plan *PlanDecision
}

// PutGraph stores a private copy of g and returns its content id.
func (s *Service) PutGraph(g *graph.Digraph) (string, error) {
	if g == nil {
		return "", errors.New("serve: nil graph")
	}
	return s.store.put(g, false), nil
}

// Graph returns a private copy of the stored graph for id. The copy is
// deliberate: the store is content-addressed and the solve cache keys
// results by that content hash, so handing out the shared reference would
// let one caller's SetArc silently desynchronize every cached result from
// its id. The internal solve path keeps using the shared reference (it
// never mutates).
func (s *Service) Graph(id string) (*graph.Digraph, error) {
	sg, err := s.store.get(id)
	if err != nil {
		return nil, err
	}
	return sg.g.Clone(), nil
}

// GraphFeatures returns the stored graph's structural profile, computed
// once at upload (the store is content-addressed, so it cannot go stale).
func (s *Service) GraphFeatures(id string) (graph.Features, error) {
	sg, err := s.store.get(id)
	if err != nil {
		return graph.Features{}, err
	}
	return sg.feats, nil
}

// Solve solves the stored graph id under spec, consulting the cache first.
func (s *Service) Solve(id string, spec SolveSpec) (*SolveResult, error) {
	return s.SolveContext(context.Background(), id, spec)
}

// SolveContext is Solve honoring a context: the pipeline checkpoints
// between stages (and inside its inner loops), so a request deadline stops
// the simulator at the next boundary. A cancelled solve returns a
// *CancelledError carrying the partial per-stage telemetry; nothing is
// cached.
func (s *Service) SolveContext(ctx context.Context, id string, spec SolveSpec) (*SolveResult, error) {
	sg, err := s.store.get(id)
	if err != nil {
		return nil, err
	}
	return s.solve(ctx, id, sg.g, sg.feats, spec)
}

// SolveGraph solves g directly (library path, no store round-trip): the
// graph is hashed for cache identity and cloned only when the simulator
// actually runs.
func (s *Service) SolveGraph(g *graph.Digraph, spec SolveSpec) (*SolveResult, error) {
	return s.SolveGraphContext(context.Background(), g, spec)
}

// SolveGraphContext is SolveGraph honoring a context (see SolveContext).
func (s *Service) SolveGraphContext(ctx context.Context, g *graph.Digraph, spec SolveSpec) (*SolveResult, error) {
	if g == nil {
		return nil, errors.New("serve: nil graph")
	}
	return s.solve(ctx, HashDigraph(g), g, g.Features(), spec)
}

// solve validates the spec, resolves strategy=auto through the planner,
// and runs the resolved spec — directly, or through the degradation
// ladder when the spec opts in. A planned solve runs exactly the spec an
// explicit caller would have sent (the planner chooses, it never alters
// pipelines), so it shares cache entries and stays bit-identical; when it
// executes to completion at the planned rung, the observed rounds and wall
// are folded into the planner's prediction-error accounting.
func (s *Service) solve(ctx context.Context, id string, g *graph.Digraph, feats graph.Features, spec SolveSpec) (*SolveResult, error) {
	if spec.Strategy == "" {
		spec.Strategy = s.cfg.DefaultStrategy
	}
	spec, err := spec.canonical()
	if err != nil {
		return nil, err
	}
	var plan *PlanDecision
	if spec.Strategy == core.StrategyAuto {
		resolved, decision, err := s.planSolve(ctx, feats, spec)
		if err != nil {
			return nil, err
		}
		spec, plan = resolved, decision
		s.stats.plannerDecision(plan.Strategy)
	}
	start := time.Now()
	res, err := s.solveResolved(ctx, id, g, feats, spec)
	if err != nil {
		return nil, err
	}
	if plan != nil {
		res.Plan = plan
		if !res.Cached && !res.Degraded {
			s.stats.plannerObserved(plan.PredictedRounds, plan.PredictedWallNs, res.Res.Rounds, time.Since(start))
		}
	}
	return res, nil
}

// solveResolved runs a validated, concrete (never auto) spec.
func (s *Service) solveResolved(ctx context.Context, id string, g *graph.Digraph, feats graph.Features, spec SolveSpec) (*SolveResult, error) {
	if !spec.Degrade {
		return s.solveOne(ctx, id, g, feats, spec)
	}
	rungs := s.ladderRungs(spec, feats)
	for i, rs := range rungs {
		rctx, cancel := rungContext(ctx, i, len(rungs))
		res, err := s.solveOne(rctx, id, g, feats, rs)
		cancel()
		if err == nil {
			if i > 0 {
				res.Degraded = true
				res.DegradedFrom = spec.Strategy
				res.DegradeReason = "deadline"
				s.stats.degraded(spec.Strategy)
			}
			return res, nil
		}
		if !rungDeadline(err, ctx) || i == len(rungs)-1 {
			return nil, err
		}
	}
	// ladderRungs always returns at least the spec itself.
	return nil, fmt.Errorf("serve: empty degradation ladder for %s", spec.Strategy)
}

// ladderRungs returns the degradation ladder for spec over a graph with
// profile feats: the spec itself, then the planner's viable fallback rungs
// in order of decreasing fidelity — every registered strategy with a
// strictly weaker stretch guarantee whose capabilities accept the graph
// (see plannerFallbacks). No rung list is hard-coded: registering a new
// strategy with the right capabilities grows the ladder automatically.
func (s *Service) ladderRungs(spec SolveSpec, feats graph.Features) []SolveSpec {
	return append([]SolveSpec{spec}, s.plannerFallbacks(spec, feats)...)
}

// rungContext budgets a non-final ladder rung to ~60% of the remaining
// deadline, reserving headroom for the fallback; the final rung (and any
// rung without a deadline) runs under the caller's context unchanged.
func rungContext(ctx context.Context, i, total int) (context.Context, context.CancelFunc) {
	dl, ok := ctx.Deadline()
	if !ok || i == total-1 {
		return ctx, func() {}
	}
	remaining := time.Until(dl)
	if remaining <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, remaining*3/5)
}

// rungDeadline reports whether err is the ladder's one trigger: a
// rung-budget deadline whose parent request still has time. Everything
// else (bad specs, negative cycles, the caller's own cancellation)
// propagates unchanged.
func rungDeadline(err error, parent context.Context) bool {
	return errors.Is(err, context.DeadlineExceeded) && parent.Err() == nil
}

func (s *Service) solveOne(ctx context.Context, id string, g *graph.Digraph, feats graph.Features, spec SolveSpec) (*SolveResult, error) {
	name := spec.Strategy
	s.stats.request(name)
	key := spec.key(id)
	if e, ok := s.cache.get(key); ok {
		s.stats.hit(name)
		return &SolveResult{GraphID: id, Res: e.res, Oracle: e.oracle, Cached: true}, nil
	}
	workers := spec.Workers
	if workers <= 0 {
		workers = s.cfg.Workers
	}
	var (
		e         *entry
		shared    bool
		err       error
		fromCache bool
	)
	for {
		fromCache = false
		e, shared, err = s.flight.do(ctx, key, func() (*entry, error) {
			// Re-check under the flight: between this caller's cache miss and
			// becoming leader, a previous leader may have completed and
			// cached — re-running the full pipeline would duplicate the solve
			// and its accounting.
			if e, ok := s.cache.get(key); ok {
				fromCache = true
				return e, nil
			}
			// Admission sits here, inside the flight leader: only an actual
			// simulator execution consumes a slot, so cache hits and
			// singleflight followers never queue, and a burst of identical
			// requests costs one slot, not one per caller. A request whose
			// own context dies while queued is a cancellation, not a shed.
			release, aerr := s.admit.acquire(ctx, s.estimateFor(name, feats, spec.Epsilon))
			if aerr != nil {
				if ctx.Err() != nil && errors.Is(aerr, ctx.Err()) {
					s.stats.cancelled(name)
					return nil, &CancelledError{Err: aerr}
				}
				return nil, aerr
			}
			defer release()
			// The entry keeps its own clone so later mutation of a
			// caller-owned graph cannot desynchronize the cached result and
			// its oracle.
			gc := g.Clone()
			start := time.Now()
			res, err := s.runPipeline(ctx, gc, spec, workers)
			wall := time.Since(start)
			if err != nil {
				var pe *PanicError
				if errors.As(err, &pe) {
					s.stats.panicRecovered()
					s.stats.failed(name)
					return nil, err
				}
				if res != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
					s.stats.cancelled(name)
					return nil, &CancelledError{Stages: res.Stages, Rounds: res.Rounds, Err: err}
				}
				s.stats.failed(name)
				return nil, err
			}
			// Charge the rounds as soon as the simulator has run: even if the
			// oracle construction below failed, the cost was paid.
			s.stats.solved(name, res, wall)
			oracle, err := core.NewPathOracle(gc, res.Dist)
			if err != nil {
				return nil, err
			}
			ent := &entry{g: gc, res: res, oracle: oracle}
			s.cache.add(key, ent)
			return ent, nil
		})
		if err != nil {
			// A follower must not inherit the *leader's* cancellation: the
			// flight ran under the leader's request context, so its
			// deadline or disconnect aborting the shared solve says
			// nothing about this caller. While this caller's own context
			// is still live, go around again — the flight entry is gone
			// before followers wake, so the retry either becomes the new
			// leader (running under this caller's context) or joins a
			// genuinely newer flight. A caller whose own context expired
			// keeps its error; a follower whose wait was cut short by its
			// *own* context gets a CancelledError (no stages — the leader
			// may still be running) so every cancelled solve surfaces
			// uniformly.
			var ce *CancelledError
			isCancelled := errors.As(err, &ce)
			if shared && isCancelled && ctx.Err() == nil {
				continue
			}
			if shared && !isCancelled && ctx.Err() != nil && errors.Is(err, ctx.Err()) {
				// The follower's own deadline cut its wait short. Count it
				// like any other cancellation so Requests = outcomes in
				// /v1/metrics; there is no stage telemetry to attach — the
				// leader (whose run it was) may still be going.
				s.stats.cancelled(name)
				err = &CancelledError{Err: err}
			}
			return nil, err
		}
		break
	}
	switch {
	case shared:
		s.stats.deduped(name)
	case fromCache:
		s.stats.hit(name)
	}
	return &SolveResult{GraphID: id, Res: e.res, Oracle: e.oracle, Cached: shared || fromCache}, nil
}

// solveTestHook, when non-nil, runs inside the admission-gated,
// recovery-wrapped execution path just before the simulator, under the
// solve's own context (a ladder rung's budget included). Tests use it to
// hold execution slots deterministically (saturation/FIFO assertions), to
// inject panics at the exact point a misbehaving pipeline would throw, and
// to hold a rung until its budget expires.
var solveTestHook func(ctx context.Context, spec SolveSpec)

// runPipeline executes one simulator run inside the panic-recovery
// boundary: a recovered panic becomes a *PanicError instead of tearing down
// the daemon.
func (s *Service) runPipeline(ctx context.Context, gc *graph.Digraph, spec SolveSpec, workers int) (res *core.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	if solveTestHook != nil {
		solveTestHook(ctx, spec)
	}
	return core.SolveContext(ctx, gc, core.Config{
		Strategy: spec.Strategy,
		Params:   spec.Preset.Params(),
		Seed:     spec.Seed,
		Epsilon:  spec.Epsilon,
		Workers:  workers,
	})
}

// PathQuery is one (src, dst) shortest-path request.
type PathQuery struct {
	Src int `json:"src"`
	Dst int `json:"dst"`
}

// PathAnswer is the response to one PathQuery.
type PathAnswer struct {
	Src int `json:"src"`
	Dst int `json:"dst"`
	// Dist is the shortest distance (graph.Inf when unreachable).
	Dist int64 `json:"dist"`
	// Path is the vertex sequence src..dst; nil when Err is set.
	Path []int `json:"path,omitempty"`
	// Err reports a per-query failure (core.ErrNoPath for unreachable
	// pairs) without failing the rest of the batch.
	Err error `json:"-"`
}

// PathsBatch answers all queries against one solve of the stored graph id
// (cached or fresh), fanning the per-query reconstruction across the
// worker pool. Per-query failures land in the answer's Err; only
// solve-level failures error the call.
func (s *Service) PathsBatch(id string, spec SolveSpec, queries []PathQuery) ([]PathAnswer, *SolveResult, error) {
	return s.PathsBatchContext(context.Background(), id, spec, queries)
}

// PathsBatchContext is PathsBatch honoring a context for the underlying
// solve (see SolveContext).
func (s *Service) PathsBatchContext(ctx context.Context, id string, spec SolveSpec, queries []PathQuery) ([]PathAnswer, *SolveResult, error) {
	// Path reconstruction needs exact distances: confine a strategy=auto
	// plan to the exact catalog, and refuse an approximate strategy.
	spec.exactPlanning = true
	res, err := s.SolveContext(ctx, id, spec)
	if err != nil {
		return nil, nil, err
	}
	return s.answerBatch(res, spec, queries), res, nil
}

// PathsBatchGraphContext is PathsBatch for a directly-held graph, honoring
// a context for the underlying solve.
func (s *Service) PathsBatchGraphContext(ctx context.Context, g *graph.Digraph, spec SolveSpec, queries []PathQuery) ([]PathAnswer, *SolveResult, error) {
	spec.exactPlanning = true
	res, err := s.SolveGraphContext(ctx, g, spec)
	if err != nil {
		return nil, nil, err
	}
	return s.answerBatch(res, spec, queries), res, nil
}

func (s *Service) answerBatch(res *SolveResult, spec SolveSpec, queries []PathQuery) []PathAnswer {
	workers := spec.Workers
	if workers <= 0 {
		workers = s.cfg.Workers
	}
	answers := make([]PathAnswer, len(queries))
	par.For(par.Workers(workers), len(queries), func(i int) {
		q := queries[i]
		a := PathAnswer{Src: q.Src, Dst: q.Dst}
		if d, err := res.Oracle.Dist(q.Src, q.Dst); err != nil {
			a.Err = err
		} else {
			a.Dist = d
			a.Path, a.Err = res.Oracle.Path(q.Src, q.Dst)
		}
		answers[i] = a
	})
	s.stats.pathQueriesAdd(len(queries))
	return answers
}

// Stats returns a point-in-time accounting snapshot.
func (s *Service) Stats() Stats {
	st := s.stats.snapshot(s.store.len(), s.cache.len())
	st.Admission = s.admit.snapshot()
	st.Admission.PanicsRecovered = s.stats.panicsRecovered()
	return st
}

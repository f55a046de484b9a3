package serve

import (
	"sync"
	"time"

	"qclique/internal/congest"
	"qclique/internal/core"
)

// StageStats is the cumulative per-stage accounting of one strategy's
// executed solves: how often the stage ran, the rounds and words it
// charged, and the wall time it consumed. It is the serving-layer rollup
// of the engine's per-solve stage telemetry.
type StageStats struct {
	// Runs counts solves in which the stage actually ran (skipped stages
	// are excluded).
	Runs int64 `json:"runs"`
	// Rounds totals the simulated rounds the stage charged.
	Rounds int64 `json:"rounds"`
	// Words totals the words the stage moved.
	Words int64 `json:"words"`
	// WallNs totals the host wall-clock time spent in the stage.
	WallNs int64 `json:"wall_ns"`
}

// StrategyStats is the per-strategy request accounting of a Service.
type StrategyStats struct {
	// Requests counts solve requests (library Solve calls plus daemon
	// solve/dist/batch endpoints that needed a result).
	Requests int64 `json:"requests"`
	// CacheHits counts requests served from the LRU without running the
	// simulator.
	CacheHits int64 `json:"cache_hits"`
	// Deduped counts requests that piggybacked on a concurrent identical
	// solve (singleflight followers).
	Deduped int64 `json:"deduped"`
	// Solves counts actual simulator executions.
	Solves int64 `json:"solves"`
	// Errors counts failed executions (e.g. negative cycles).
	Errors int64 `json:"errors"`
	// Cancelled counts executions stopped by their context (request
	// deadline or client disconnect) before completing.
	Cancelled int64 `json:"cancelled,omitempty"`
	// FaultFailures counts executions that exhausted their stage-retry
	// budget on unrecovered injected faults.
	FaultFailures int64 `json:"fault_failures,omitempty"`
	// Retries totals the stage re-runs spent recovering from injected
	// faults, across successful and failed executions.
	Retries int64 `json:"retries,omitempty"`
	// Degraded counts requests to this strategy that the degradation ladder
	// answered with a fallback rung.
	Degraded int64 `json:"degraded,omitempty"`
	// Faults is the cumulative injected-fault accounting across this
	// strategy's executions (successful and fault-failed alike).
	Faults congest.FaultCounters `json:"faults"`
	// RoundsCharged totals the simulated CONGEST-CLIQUE rounds of completed
	// executions, the ones counted in Solves; cache hits, deduped requests,
	// and cancelled or fault-failed runs charge nothing here.
	RoundsCharged int64 `json:"rounds_charged"`
	// SolveWallNs totals the host wall-clock time of completed executions;
	// SolveWallNs/Solves is the service-time estimate the admission
	// controller's deadline-aware shedding uses.
	SolveWallNs int64 `json:"solve_wall_ns,omitempty"`
	// Stages is the cumulative per-stage breakdown across this strategy's
	// completed executions, keyed by stage name; its rounds sum to
	// RoundsCharged.
	Stages map[string]StageStats `json:"stages,omitempty"`
}

// AdmissionStats is the service-level overload accounting: the admission
// controller's configuration and gauges, plus the cumulative counters of
// the overload-resilience layer.
type AdmissionStats struct {
	// MaxInflight/QueueDepth echo the configured caps (0 = unbounded).
	MaxInflight int `json:"max_inflight,omitempty"`
	QueueDepth  int `json:"queue_depth,omitempty"`
	// Inflight/QueuedNow are point-in-time gauges of executing and queued
	// solves; Draining reports a closed admission gate (shutdown underway).
	Inflight  int  `json:"inflight"`
	QueuedNow int  `json:"queued_now"`
	Draining  bool `json:"draining,omitempty"`
	// Queued counts requests that had to wait for a slot; QueueWaitNs
	// totals the wall time admitted requests spent waiting.
	Queued      int64 `json:"queued"`
	QueueWaitNs int64 `json:"queue_wait_ns"`
	// Shed counts requests refused with an OverloadError (queue overflow,
	// hopeless deadline, or draining) — never counted in Cancelled.
	Shed int64 `json:"shed"`
	// PanicsRecovered counts panicking solves and handlers converted into
	// 500 "internal" envelopes instead of daemon crashes.
	PanicsRecovered int64 `json:"panics_recovered"`
}

// PlannerStats is the strategy planner's accounting: how often it decided,
// what it chose, and — for decisions whose planned solve actually executed
// — the cumulative prediction error, predicted vs observed, on both the
// rounds and wall axes. A planner whose error keeps growing relative to its
// observed totals is mispredicting ("Mind the Õ": the point of recording
// the error is to notice).
type PlannerStats struct {
	// Decisions counts strategy=auto requests the planner resolved.
	Decisions int64 `json:"decisions"`
	// Chosen maps strategy name to how often the planner picked it.
	Chosen map[string]int64 `json:"chosen,omitempty"`
	// ObservedSolves counts decisions whose planned solve ran to completion
	// (cache hits and degraded answers yield no observation).
	ObservedSolves int64 `json:"observed_solves"`
	// PredictedRounds/ObservedRounds/RoundsErrorAbs accumulate, over
	// observed solves, the predicted round counts, the observed ones, and
	// the absolute prediction error |predicted − observed|.
	PredictedRounds int64 `json:"predicted_rounds"`
	ObservedRounds  int64 `json:"observed_rounds"`
	RoundsErrorAbs  int64 `json:"rounds_error_abs"`
	// PredictedWallNs/ObservedWallNs/WallErrorNsAbs are the same accounting
	// on the wall-clock axis.
	PredictedWallNs int64 `json:"predicted_wall_ns"`
	ObservedWallNs  int64 `json:"observed_wall_ns"`
	WallErrorNsAbs  int64 `json:"wall_error_ns_abs"`
}

// Stats is a point-in-time snapshot of a Service's accounting.
type Stats struct {
	// Graphs is the number of graphs in the store.
	Graphs int `json:"graphs"`
	// CachedResults is the number of solve results currently retained.
	CachedResults int `json:"cached_results"`
	// PathQueries counts individual path queries answered (batch members
	// included).
	PathQueries int64 `json:"path_queries"`
	// Admission is the overload-resilience accounting.
	Admission AdmissionStats `json:"admission"`
	// Strategies maps strategy name to its accounting.
	Strategies map[string]StrategyStats `json:"strategies"`
	// Planner is the strategy planner's decision and prediction-error
	// accounting (nil until the first strategy=auto request).
	Planner *PlannerStats `json:"planner,omitempty"`
}

type statsCollector struct {
	mu          sync.Mutex
	pathQueries int64
	panics      int64
	planner     PlannerStats
	byStrategy  map[string]*StrategyStats
}

func newStatsCollector() *statsCollector {
	return &statsCollector{byStrategy: make(map[string]*StrategyStats)}
}

func (s *statsCollector) forStrategy(name string) *StrategyStats {
	st, ok := s.byStrategy[name]
	if !ok {
		st = &StrategyStats{}
		s.byStrategy[name] = st
	}
	return st
}

func (s *statsCollector) request(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.forStrategy(name).Requests++
}

func (s *statsCollector) hit(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.forStrategy(name).CacheHits++
}

func (s *statsCollector) deduped(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.forStrategy(name).Deduped++
}

func (s *statsCollector) solved(name string, res *core.Result, wall time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.forStrategy(name)
	st.Solves++
	st.RoundsCharged += res.Rounds
	st.SolveWallNs += wall.Nanoseconds()
	st.addFaults(res)
	st.addStages(res)
}

// estimate returns the likely service time of one executed solve of the
// strategy — the mean wall time of its past completed executions, 0 with no
// history (the admission controller then sheds only already-hopeless
// deadlines). Deliberately coarse: a daemon mostly serves similarly-sized
// graphs, and an estimate only gates what happens to an already-saturated
// queue.
func (s *statsCollector) estimate(name string) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.byStrategy[name]
	if !ok || st.Solves == 0 {
		return 0
	}
	return time.Duration(st.SolveWallNs / st.Solves)
}

// liveNsPerRound returns the strategy's observed wall-per-round ratio —
// the host-speed correction the planner applies to its size-aware round
// priors — or ok=false before the first completed execution.
func (s *statsCollector) liveNsPerRound(name string) (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.byStrategy[name]
	if !ok || st.Solves == 0 || st.RoundsCharged <= 0 {
		return 0, false
	}
	return float64(st.SolveWallNs) / float64(st.RoundsCharged), true
}

// meanCost returns the strategy's executed-solve count and mean
// wall/rounds per execution (all zero before the first one) — the live
// half of the strategy catalog.
func (s *statsCollector) meanCost(name string) (solves, meanWallNs, meanRounds int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.byStrategy[name]
	if !ok || st.Solves == 0 {
		return 0, 0, 0
	}
	return st.Solves, st.SolveWallNs / st.Solves, st.RoundsCharged / st.Solves
}

// plannerDecision records one resolved strategy=auto request.
func (s *statsCollector) plannerDecision(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.planner.Decisions++
	if s.planner.Chosen == nil {
		s.planner.Chosen = make(map[string]int64)
	}
	s.planner.Chosen[name]++
}

// plannerObserved folds one completed planned solve into the prediction-
// error accounting: predicted vs observed rounds and wall.
func (s *statsCollector) plannerObserved(predictedRounds, predictedWallNs, rounds int64, wall time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := &s.planner
	p.ObservedSolves++
	p.PredictedRounds += predictedRounds
	p.ObservedRounds += rounds
	p.RoundsErrorAbs += abs64(predictedRounds - rounds)
	p.PredictedWallNs += predictedWallNs
	p.ObservedWallNs += wall.Nanoseconds()
	p.WallErrorNsAbs += abs64(predictedWallNs - wall.Nanoseconds())
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// addFaults rolls a solve's injected-fault and retry telemetry into the
// strategy's cumulative accounting (also called for fault-failed solves,
// whose partial result still carries the counters).
func (st *StrategyStats) addFaults(res *core.Result) {
	st.Faults.Add(res.Metrics.Faults)
	for _, sg := range res.Stages {
		st.Retries += int64(sg.Retries)
	}
}

// addStages rolls a solve's per-stage telemetry into the strategy's
// cumulative stage accounting.
func (st *StrategyStats) addStages(res *core.Result) {
	if len(res.Stages) == 0 {
		return
	}
	if st.Stages == nil {
		st.Stages = make(map[string]StageStats, len(res.Stages))
	}
	for _, sg := range res.Stages {
		if sg.Skipped {
			continue
		}
		agg := st.Stages[sg.Name]
		agg.Runs++
		agg.Rounds += sg.Rounds
		agg.Words += sg.Words
		agg.WallNs += sg.Wall.Nanoseconds()
		st.Stages[sg.Name] = agg
	}
}

func (s *statsCollector) failed(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.forStrategy(name).Errors++
}

func (s *statsCollector) cancelled(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.forStrategy(name).Cancelled++
}

// faultFailure records a retry-budget exhaustion, folding in the partial
// run's fault and retry counters. Its rounds, wall time and stages stay out
// of the cost totals, as a cancelled run's do: those describe completed
// executions only, and the failed run's rounds are reported in its
// FaultExhaustedError.
func (s *statsCollector) faultFailure(name string, res *core.Result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.forStrategy(name)
	st.FaultFailures++
	st.addFaults(res)
}

func (s *statsCollector) degraded(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.forStrategy(name).Degraded++
}

// panicRecovered records one panicking solve or handler converted into an
// error instead of a daemon crash.
func (s *statsCollector) panicRecovered() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.panics++
}

// panicsRecovered returns the collector-owned counter of AdmissionStats.
func (s *statsCollector) panicsRecovered() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.panics
}

func (s *statsCollector) pathQueriesAdd(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pathQueries += int64(n)
}

func (s *statsCollector) snapshot(graphs, cached int) Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := Stats{
		Graphs:        graphs,
		CachedResults: cached,
		PathQueries:   s.pathQueries,
		Strategies:    make(map[string]StrategyStats, len(s.byStrategy)),
	}
	for name, st := range s.byStrategy {
		cp := *st
		if st.Stages != nil {
			// Deep-copy the stage map: the snapshot must not alias the
			// collector's mutable state.
			cp.Stages = make(map[string]StageStats, len(st.Stages))
			for k, v := range st.Stages {
				cp.Stages[k] = v
			}
		}
		out.Strategies[name] = cp
	}
	if s.planner.Decisions > 0 {
		p := s.planner
		// Deep-copy the chosen map: the snapshot must not alias the
		// collector's mutable state.
		p.Chosen = make(map[string]int64, len(s.planner.Chosen))
		for k, v := range s.planner.Chosen {
			p.Chosen[k] = v
		}
		out.Planner = &p
	}
	return out
}

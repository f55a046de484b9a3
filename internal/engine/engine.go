// Package engine is the staged-execution layer of the solver: every APSP
// pipeline is expressed as an ordered list of named stages over one shared
// CONGEST-CLIQUE network, and the engine runs them in sequence with
//
//   - a per-stage telemetry record (rounds charged, words moved, wall time,
//     allocations) measured as congest.Metrics deltas at the stage
//     boundaries, so the per-stage rounds sum exactly to the pipeline's
//     total — the phase-level accounting that lets pipelines be compared
//     stage by stage ("Mind the Õ");
//   - a context checkpoint between stages (and, through the Ctx options of
//     the distprod/triangles layers, inside the squaring-chain and
//     triangle-enumeration loops), so a solve under a request deadline
//     stops at the next boundary instead of running to completion.
//
// Strategies register themselves (see registry.go); the serving layer, the
// public qclique API and the cmd/ tools enumerate the registry instead of
// switching on enum values.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime/metrics"
	"time"

	"qclique/internal/congest"
	"qclique/internal/graph"
	"qclique/internal/matrix"
	"qclique/internal/triangles"
)

// Request is one solve as the engine sees it: the input graph plus every
// knob that affects the pipeline, independent of which strategy runs.
type Request struct {
	// G is the input graph (never mutated by the pipeline).
	G *graph.Digraph
	// Params forwards protocol constants (nil = paper constants).
	Params *triangles.Params
	// Seed drives all protocol randomness.
	Seed uint64
	// Workers bounds host-side parallelism of node-local phases.
	Workers int
	// Epsilon is the stretch budget of the approximate strategies (0 for
	// exact ones; validated by the caller before the engine runs).
	Epsilon float64
	// Faults is the fault-injection plan the strategy arms its network(s)
	// with; the zero value keeps injection fully disabled (bit-identical
	// rounds).
	Faults congest.FaultPlan
	// StageHook, when non-nil, is invoked at every stage boundary — before
	// the stage's cancellation checkpoint — with the stage index and name.
	// It is an observability and test seam (the cancel-at-every-boundary
	// regression drives it); it must not mutate solve state.
	StageHook func(i int, name string)
}

// Outcome is what a pipeline run produced. On cancellation the telemetry
// fields (Stages, Rounds, Metrics) still describe the work done before the
// stop; Dist is nil.
type Outcome struct {
	// Dist is the distance matrix (nil when the run was interrupted).
	Dist *matrix.Matrix
	// Products is the number of distance products of the squaring chain,
	// at most ⌈log₂ n⌉; fewer when the chain stops at its fixed point
	// (gossip, approx-quantum). Gossip's count is the chain's length,
	// computed rather than run wherever its one-pass fixed point
	// (matrix.SquaringFixedPoint) answers the input.
	Products int
	// FindEdgesCalls is the total FindEdges invocations across products.
	FindEdgesCalls int
	// ObservedStretch is the measured maximum ratio of the distances over
	// the centralized exact reference; it stays 1 for pipelines without a
	// stretch-audit stage (the exact ones). Approximate solves always pay
	// the O(n³) reference run: it is the simulation's accuracy instrument,
	// not a serving-path cost.
	ObservedStretch float64
	// Rounds is the total rounds charged on the pipeline's network.
	Rounds int64
	// Metrics is the aggregate network accounting.
	Metrics congest.Metrics
	// Stages is the per-stage breakdown, in execution order.
	Stages []StageStat
}

// StageStat is one stage's telemetry. Rounds, Words and Phases are
// congest.Metrics deltas at the stage boundaries and are therefore exactly
// as deterministic as the protocol itself; Wall and Allocs are host-side
// measurements (Allocs counts process-global mallocs, so concurrent solves
// bleed into each other — it is a profile hint, not an accounting fact).
// The durations encode as integer nanoseconds (wall_ns, backoff_ns).
type StageStat struct {
	// Name labels the stage ("encode", "square-3", "stretch-audit", …).
	Name   string `json:"name"`
	Rounds int64  `json:"rounds"`
	Words  int64  `json:"words"`
	Phases int64  `json:"phases"`
	// Wall is the host wall-clock time spent in the stage.
	Wall   time.Duration `json:"wall_ns"`
	Allocs uint64        `json:"allocs"`
	// Skipped marks a stage the pipeline proved unnecessary (e.g. squaring
	// products after the approximate chain's fixpoint vote converged).
	Skipped bool `json:"skipped,omitempty"`
	// Retries counts re-runs of the stage after unrecovered injected
	// faults (congest.FaultError); the stage's other columns aggregate
	// across all attempts, so the stage-rounds-sum invariant holds under
	// retry.
	Retries int `json:"retries,omitempty"`
	// Backoff is the wall time spent waiting between retry attempts.
	Backoff time.Duration `json:"backoff_ns,omitempty"`
}

// SumRounds returns the total rounds across stages — by construction equal
// to the pipeline's Rounds when every stage ran through the engine.
func SumRounds(stages []StageStat) int64 {
	var total int64
	for _, s := range stages {
		total += s.Rounds
	}
	return total
}

// Stage is one named unit of a pipeline.
type Stage struct {
	// Name labels the stage in telemetry (stable across runs).
	Name string
	// Run executes the stage. The context is the solve's; long stage
	// internals (squaring chain, triangle enumeration) re-check it
	// themselves between iterations.
	Run func(ctx context.Context) error
	// Skip, when non-nil and true at the stage's turn, records the stage
	// as skipped (zero cost) without running it — how a pipeline with a
	// statically-declared stage list expresses early convergence.
	Skip func() bool
}

// RetryPolicy bounds the engine's stage-level fault recovery: a stage that
// fails with a congest.FaultError (an unrecovered injected fault) is re-run
// up to MaxRetries times, with exponential backoff between attempts. Every
// other error class fails fast — retry is reserved for the failure mode
// that is transient by construction.
type RetryPolicy struct {
	// MaxRetries is the per-stage retry budget (0 disables retry).
	MaxRetries int
	// Backoff is the base wait before the first retry, doubled per further
	// attempt; 0 retries immediately. The wait is context-aware: a solve
	// deadline expiring mid-backoff aborts with the context error.
	Backoff time.Duration
}

// Plan is a built pipeline: an ordered stage list over one network.
type Plan struct {
	// Net is the network every stage charges; per-stage round deltas are
	// measured against it. Nil only for pipelines that charge nothing.
	Net *congest.Network
	// Stages run in order.
	Stages []Stage
	// Retry is the strategy's stage-retry budget for unrecovered injected
	// faults. Stages must be re-runnable for this to be sound: each
	// strategy's stage closures re-derive their seeds and reset their
	// phase outputs on entry (the chaos suite pins this).
	Retry RetryPolicy
}

// Run executes the strategy's staged pipeline for req. On success the
// Outcome carries the result and the full per-stage breakdown, and the
// engine has verified that the stage rounds sum exactly to the network
// total. On a stage error or a cancellation checkpoint the partial Outcome
// (telemetry of the work done so far, nil Dist) is returned alongside the
// error.
func Run(ctx context.Context, s Strategy, req *Request) (*Outcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	out := &Outcome{ObservedStretch: 1}
	plan, err := s.Stages(req, out)
	if err != nil {
		return nil, err
	}
	for i, st := range plan.Stages {
		if req.StageHook != nil {
			req.StageHook(i, st.Name)
		}
		if err := ctx.Err(); err != nil {
			return abort(plan, out, err)
		}
		if st.Skip != nil && st.Skip() {
			out.Stages = append(out.Stages, StageStat{Name: st.Name, Skipped: true})
			continue
		}
		stat, err := runStageWithRetry(ctx, plan, st)
		out.Stages = append(out.Stages, stat)
		if err != nil {
			return abort(plan, out, err)
		}
	}
	finish(plan, out)
	if plan.Net != nil {
		if sum := SumRounds(out.Stages); sum != out.Rounds {
			// Treat the accounting violation like any other failed run:
			// drop the (untrustworthy) result.
			return abort(plan, out, fmt.Errorf("engine: %s: stage rounds %d do not sum to the pipeline total %d (network activity outside a stage)",
				s.Name(), sum, out.Rounds))
		}
	}
	return out, nil
}

// allocMetric is the runtime/metrics key for the cumulative heap
// allocation count — read without the stop-the-world pause of
// runtime.ReadMemStats, so per-stage sampling stays cheap enough for the
// serving hot path.
const allocMetric = "/gc/heap/allocs:objects"

// mallocCount samples the process-global heap allocation counter.
func mallocCount() uint64 {
	sample := [1]metrics.Sample{{Name: allocMetric}}
	metrics.Read(sample[:])
	if sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return sample[0].Value.Uint64()
}

// runStageWithRetry executes one stage under the plan's retry policy: an
// attempt that fails with a congest.FaultError (an unrecovered injected
// fault — crash or detected corruption) is re-run after a context-aware
// backoff, up to the policy's budget. The returned StageStat aggregates
// every attempt — its network deltas are measured back-to-back against the
// same network, so the per-stage rounds still sum exactly to the pipeline
// total. Any other error (including a context error during backoff) fails
// fast.
func runStageWithRetry(ctx context.Context, plan *Plan, st Stage) (StageStat, error) {
	stat, err := runStage(ctx, plan.Net, st)
	var fe *congest.FaultError
	for err != nil && errors.As(err, &fe) && stat.Retries < plan.Retry.MaxRetries {
		wait, werr := backoff(ctx, plan.Retry.Backoff, stat.Retries)
		stat.Backoff += wait
		if werr != nil {
			return stat, werr
		}
		again, rerr := runStage(ctx, plan.Net, st)
		stat.Rounds += again.Rounds
		stat.Words += again.Words
		stat.Phases += again.Phases
		stat.Wall += again.Wall
		stat.Allocs += again.Allocs
		stat.Retries++
		err = rerr
	}
	return stat, err
}

// backoff waits base<<attempt (exponential), honoring the context; it
// returns the time actually waited.
func backoff(ctx context.Context, base time.Duration, attempt int) (time.Duration, error) {
	if base <= 0 {
		return 0, ctx.Err()
	}
	const maxShift = 16
	if attempt > maxShift {
		attempt = maxShift
	}
	d := base << attempt
	start := time.Now()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return time.Since(start), nil
	case <-ctx.Done():
		return time.Since(start), ctx.Err()
	}
}

// runStage executes one stage and measures its cost: network deltas from
// the plan's network, wall clock, and process mallocs.
func runStage(ctx context.Context, net *congest.Network, st Stage) (StageStat, error) {
	var before congest.Metrics
	if net != nil {
		before = net.Metrics()
	}
	mallocs := mallocCount()
	start := time.Now()

	err := st.Run(ctx)

	stat := StageStat{Name: st.Name, Wall: time.Since(start)}
	stat.Allocs = mallocCount() - mallocs
	if net != nil {
		delta := net.DeltaSince(before)
		stat.Rounds = delta.Rounds
		stat.Words = delta.Words
		stat.Phases = delta.Phases
	}
	return stat, err
}

// abort finalizes an interrupted run: partial telemetry is kept (the
// serving layer returns it with the 503), the distances are dropped.
func abort(plan *Plan, out *Outcome, err error) (*Outcome, error) {
	finish(plan, out)
	out.Dist = nil
	return out, err
}

func finish(plan *Plan, out *Outcome) {
	if plan.Net != nil {
		out.Rounds = plan.Net.Rounds()
		out.Metrics = plan.Net.Metrics()
	}
}

package qclique

// Public fault-injection and resilience surface: the deterministic fault
// plan that arms a solve's simulated network, the injected-fault counters
// every armed result carries, and the typed error a solve surfaces when
// the stage-retry budget gives up.

import (
	"qclique/internal/congest"
	"qclique/internal/serve"
)

// FaultPlan is a deterministic, seed-driven fault-injection schedule for
// the CONGEST-CLIQUE transport. The zero value injects nothing and keeps
// results and round counts bit-identical to an unarmed solve; runs with
// equal plans (and otherwise equal inputs) inject identical fault
// schedules.
//
// Recovered faults — message drop, duplication, bounded delay — never
// change the delivered data or the resulting distances; they only
// surcharge the simulated round/word accounting with the retransmission
// traffic. Unrecovered faults — payload corruption and node crashes — fail
// the pipeline stage they land in, which the engine retries within the
// strategy's budget (see the Resilience section of the README). Enabled
// reports whether a plan injects anything; Validate rejects rates outside
// [0, 1] (NaN included) and negative bounds, as Options.Validate does. A
// plan encodes to JSON with the HTTP API's keys (seed, drop_rate, …).
type FaultPlan = congest.FaultPlan

// FaultCounters tallies the faults a solve's network injected and the
// extra rounds their recovery charged; Injected totals the fault events.
type FaultCounters = congest.FaultCounters

// WithFaultPlan arms the solve's simulated network with a deterministic
// fault schedule. The plan is part of a result's identity: a Solver caches
// armed and unarmed solves of the same graph separately.
func WithFaultPlan(p FaultPlan) Option {
	return func(o *Options) { o.Faults = p }
}

// WithDegradation opts a Solver solve into the graceful-degradation
// ladder: when the requested strategy exhausts its stage-retry budget or
// runs out of deadline, the solve falls back to a cheaper approximate
// strategy the input admits (exact → ApproxQuantum → ApproxSkeleton)
// instead of failing. A degraded result is marked with
// APSPResult.Degraded and reports the rung that answered in Strategy and
// its contract in GuaranteedStretch. Honored by Solver
// methods only — the ladder lives in the serving layer, and the one-shot
// SolveAPSP rejects the option rather than silently ignoring it.
func WithDegradation() Option {
	return func(o *Options) { o.Degrade = true }
}

// FaultExhaustedError reports a solve that ran out of stage-retry budget
// under an armed fault plan: the injected faults outlasted every retry
// (and, with WithDegradation, every ladder rung the input admitted). It
// carries the failed run's partial telemetry — Stages (retries included),
// the Rounds they charged and the Faults injected — and unwraps to the
// underlying *congest.FaultError chain.
type FaultExhaustedError = serve.FaultExhaustedError

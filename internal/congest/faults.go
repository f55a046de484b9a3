package congest

// Deterministic fault injection on the simulator's communication path.
//
// A FaultPlan arms the network with a seed-driven fault schedule consulted
// at every phase boundary (ExchangeBalanced, ChargeBalanced, Broadcast and
// BroadcastAll; ReplayCharge is exempt, because it replays a schedule that
// was measured under the injector). The injector distinguishes two fault
// classes:
//
//   - Recovered faults are absorbed by the link layer and never reach the
//     protocol: a dropped message is retransmitted (the phase pays a
//     detect-and-resend round surcharge), a duplicated message is
//     deduplicated at the receiver (the duplicate words are charged), and a
//     delayed message extends the synchronous phase by its lateness (the
//     round barrier absorbs stragglers). Delivered inboxes are bit-identical
//     to a fault-free run — only the round accounting grows.
//
//   - Unrecovered faults fail the phase with a *FaultError: payload
//     corruption (modeled as a link-CRC failure — corrupted payloads are
//     detected and never delivered, which is what makes retry convergence
//     provable) and node crash (the victim stays down for CrashDownPhases
//     further phase attempts, then restarts). The engine layer retries the
//     enclosing stage against the same network; the injector's monotone
//     consultation counter keeps advancing across retries, so a crashed
//     window deterministically clears.
//
// Determinism contract: all draws come from one xrand stream rooted at
// FaultPlan.Seed and consumed in phase order on the network's single
// accounting goroutine, so equal seeds over equal protocol runs produce
// identical fault schedules, identical counters and identical rounds. With
// a zero (disabled) plan the injector is entirely dormant: no draws, no
// counter writes, no allocation — fault-free runs stay bit-identical to a
// network constructed without WithFaults.

import (
	"fmt"

	"qclique/internal/xrand"
)

// FaultKind classifies an unrecovered fault.
type FaultKind int

// Unrecovered fault kinds.
const (
	// FaultCorrupt is a payload corruption detected by the link CRC: the
	// phase's traffic is charged but nothing is delivered.
	FaultCorrupt FaultKind = iota + 1
	// FaultCrash is a node crash at a round boundary: the phase fails
	// before any traffic flows, and the victim stays down for the plan's
	// CrashDownPhases further phase attempts.
	FaultCrash
)

func (k FaultKind) String() string {
	switch k {
	case FaultCorrupt:
		return "corrupt"
	case FaultCrash:
		return "crash"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// FaultError reports an unrecovered injected fault. It is the retryable
// failure class: the engine's stage retry loop matches it with errors.As
// and re-runs the failed stage, while every other error keeps failing fast.
type FaultError struct {
	// Kind is the fault class.
	Kind FaultKind
	// Node is the crashed node (-1 for corruption, which has no victim).
	Node NodeID
	// Label is the label of the phase that failed.
	Label string
}

func (e *FaultError) Error() string {
	if e.Kind == FaultCrash {
		return fmt.Sprintf("congest: injected fault: node %d crashed during phase %q", e.Node, e.Label)
	}
	return fmt.Sprintf("congest: injected fault: payload corruption detected in phase %q", e.Label)
}

// FaultPlan is a deterministic, seed-driven fault schedule. The zero value
// disables injection entirely. All fields are scalars, so a plan is
// comparable and can participate in cache identities; Validate rejects NaN
// rates, so every accepted plan also equals itself. The JSON keys are the
// HTTP API's "faults" object.
type FaultPlan struct {
	// Seed roots the fault schedule's random stream (independent of the
	// protocol seed: faults never perturb protocol randomness).
	Seed uint64 `json:"seed,omitempty"`
	// DropRate is the per-message probability of a drop, recovered by
	// retransmission (round surcharge, identical delivery).
	DropRate float64 `json:"drop_rate,omitempty"`
	// DupRate is the per-message probability of a duplication, recovered by
	// receiver-side deduplication (word surcharge, identical delivery).
	DupRate float64 `json:"dup_rate,omitempty"`
	// DelayRate is the per-message probability of a bounded delay: the
	// message is re-delivered up to MaxDelayRounds rounds late and the
	// synchronous phase stretches to cover the straggler.
	DelayRate float64 `json:"delay_rate,omitempty"`
	// MaxDelayRounds bounds the lateness of a delayed message, at most
	// 65,536; 0 with a positive DelayRate is treated as 1.
	MaxDelayRounds int `json:"max_delay_rounds,omitempty"`
	// CorruptRate is the per-phase probability of a payload corruption —
	// detected by the link CRC, failing the phase (unrecovered).
	CorruptRate float64 `json:"corrupt_rate,omitempty"`
	// CrashRate is the per-phase probability of a node crash at the round
	// boundary, failing the phase before traffic flows (unrecovered).
	CrashRate float64 `json:"crash_rate,omitempty"`
	// CrashDownPhases is the number of further phase attempts the crashed
	// node stays down before restarting; 0 means the immediate retry
	// already sees the node back up.
	CrashDownPhases int `json:"crash_down_phases,omitempty"`
	// MaxFaults, when positive, caps the total unrecovered faults
	// (corruptions plus crashes) the plan injects — a transient-outage
	// model; after the budget is spent only recovered faults keep firing.
	// 0 means unlimited.
	MaxFaults int `json:"max_faults,omitempty"`
}

// Enabled reports whether the plan injects anything.
func (p FaultPlan) Enabled() bool {
	return p.DropRate > 0 || p.DupRate > 0 || p.DelayRate > 0 || p.CorruptRate > 0 || p.CrashRate > 0
}

// maxDelayRoundsCap bounds FaultPlan.MaxDelayRounds. A delayed message
// stretches its phase by at most MaxDelayRounds rounds, so at this cap a
// solve would need 2^47 phases to overflow the int64 round counter, while
// an unbounded value wraps it negative within a few phases.
const maxDelayRoundsCap = 1 << 16

// Validate rejects malformed plans (rates outside [0,1] or NaN, negative
// bounds, a MaxDelayRounds above 65,536).
func (p FaultPlan) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"DropRate", p.DropRate}, {"DupRate", p.DupRate}, {"DelayRate", p.DelayRate},
		{"CorruptRate", p.CorruptRate}, {"CrashRate", p.CrashRate},
	} {
		// Written so that NaN fails too: a NaN plan never equals itself, so
		// it would miss every cache lookup and never be evicted.
		if !(r.v >= 0 && r.v <= 1) {
			return fmt.Errorf("congest: fault plan: %s %v outside [0, 1]", r.name, r.v)
		}
	}
	if p.DropRate+p.DupRate+p.DelayRate > 1 {
		return fmt.Errorf("congest: fault plan: DropRate+DupRate+DelayRate %v exceeds 1 (per-message faults are exclusive)",
			p.DropRate+p.DupRate+p.DelayRate)
	}
	if p.MaxDelayRounds < 0 || p.MaxDelayRounds > maxDelayRoundsCap {
		return fmt.Errorf("congest: fault plan: MaxDelayRounds %d outside [0, %d]", p.MaxDelayRounds, maxDelayRoundsCap)
	}
	if p.CrashDownPhases < 0 {
		return fmt.Errorf("congest: fault plan: negative CrashDownPhases %d", p.CrashDownPhases)
	}
	if p.MaxFaults < 0 {
		return fmt.Errorf("congest: fault plan: negative MaxFaults %d", p.MaxFaults)
	}
	return nil
}

// FaultCounters tallies injected faults and their recovery cost. It rides
// inside Metrics, so per-run (and per-stage delta) fault accounting flows
// through the same Metrics/DeltaSince arithmetic as rounds.
type FaultCounters struct {
	// Dropped counts messages dropped and recovered by retransmission.
	Dropped int64 `json:"dropped,omitempty"`
	// Duplicated counts messages duplicated and deduplicated at receivers.
	Duplicated int64 `json:"duplicated,omitempty"`
	// Delayed counts messages re-delivered late.
	Delayed int64 `json:"delayed,omitempty"`
	// Corrupted counts phases failed by a detected payload corruption.
	Corrupted int64 `json:"corrupted,omitempty"`
	// Crashes counts node crashes at round boundaries.
	Crashes int64 `json:"crashes,omitempty"`
	// Restarts counts crashed nodes coming back up.
	Restarts int64 `json:"restarts,omitempty"`
	// RetransmitRounds is the extra rounds charged to re-send dropped
	// messages.
	RetransmitRounds int64 `json:"retransmit_rounds,omitempty"`
	// DelayRounds is the extra rounds phases stretched to absorb delayed
	// stragglers.
	DelayRounds int64 `json:"delay_rounds,omitempty"`
	// FailedPhases counts phase attempts that failed with a FaultError
	// (corruptions, crashes, and down-window attempts).
	FailedPhases int64 `json:"failed_phases,omitempty"`
}

// Injected is the total number of injected fault events.
func (c FaultCounters) Injected() int64 {
	return c.Dropped + c.Duplicated + c.Delayed + c.Corrupted + c.Crashes
}

// Add merges other into c.
func (c *FaultCounters) Add(other FaultCounters) {
	c.Dropped += other.Dropped
	c.Duplicated += other.Duplicated
	c.Delayed += other.Delayed
	c.Corrupted += other.Corrupted
	c.Crashes += other.Crashes
	c.Restarts += other.Restarts
	c.RetransmitRounds += other.RetransmitRounds
	c.DelayRounds += other.DelayRounds
	c.FailedPhases += other.FailedPhases
}

// delta returns c - base, component-wise.
func (c FaultCounters) delta(base FaultCounters) FaultCounters {
	return FaultCounters{
		Dropped:          c.Dropped - base.Dropped,
		Duplicated:       c.Duplicated - base.Duplicated,
		Delayed:          c.Delayed - base.Delayed,
		Corrupted:        c.Corrupted - base.Corrupted,
		Crashes:          c.Crashes - base.Crashes,
		Restarts:         c.Restarts - base.Restarts,
		RetransmitRounds: c.RetransmitRounds - base.RetransmitRounds,
		DelayRounds:      c.DelayRounds - base.DelayRounds,
		FailedPhases:     c.FailedPhases - base.FailedPhases,
	}
}

// WithFaults arms the network with a fault plan. A disabled (zero) plan is
// a no-op: the network behaves bit-identically to one constructed without
// this option. NewNetwork validates the plan.
func WithFaults(plan FaultPlan) Option {
	return func(nw *Network) {
		if !plan.Enabled() {
			return
		}
		nw.faults = &faultState{plan: plan}
	}
}

// faultState is the injector: the armed plan, its dedicated random stream,
// the monotone consultation counter, crash bookkeeping, and the per-phase
// scratch reset by faultBegin. One instance per network; consulted only on
// the network's single accounting goroutine.
type faultState struct {
	plan FaultPlan
	rng  *xrand.Source
	// seq counts fault consultations (one per phase attempt, including
	// attempts that fail): the schedule position that keeps advancing
	// across stage retries, so a crash window deterministically clears.
	seq uint64
	// used counts unrecovered faults spent against MaxFaults.
	used int
	// down / downNode: the crashed node and its remaining down window.
	down     int
	downNode NodeID

	// precomputed per-message draw thresholds (cumulative).
	tDrop, tDup, tDelay float64
	maxDelay            int

	// per-phase scratch, reset by faultBegin.
	pendErr  *FaultError
	dropped  bool
	dropMax  int64
	dupWords int64
	maxLate  int64
}

// init finalizes the armed state (called by NewNetwork after validation).
func (f *faultState) init() {
	f.rng = xrand.New(f.plan.Seed)
	f.tDrop = f.plan.DropRate
	f.tDup = f.tDrop + f.plan.DupRate
	f.tDelay = f.tDup + f.plan.DelayRate
	f.maxDelay = f.plan.MaxDelayRounds
	if f.maxDelay <= 0 {
		f.maxDelay = 1
	}
}

// budgetLeft reports whether another unrecovered fault may fire.
func (f *faultState) budgetLeft() bool {
	return f.plan.MaxFaults <= 0 || f.used < f.plan.MaxFaults
}

// faultBegin consults the injector at a phase boundary. With faults
// disabled it returns (nil, nil) and the phase proceeds untouched. A crash
// (or a still-down node) fails the phase immediately — no traffic flows,
// nothing is recorded. Otherwise the returned state is armed for the
// phase's per-message draws; a corruption draw is latched into pendErr and
// surfaced by the caller after the phase cost is recorded (the traffic
// flowed, the CRC failed at delivery).
func (nw *Network) faultBegin(label string) (*faultState, *FaultError) {
	f := nw.faults
	if f == nil {
		return nil, nil
	}
	f.pendErr, f.dropped, f.dropMax, f.dupWords, f.maxLate = nil, false, 0, 0, 0
	f.seq++
	c := &nw.metrics.Faults
	if f.down > 0 {
		f.down--
		c.FailedPhases++
		if f.down == 0 {
			c.Restarts++
		}
		return nil, &FaultError{Kind: FaultCrash, Node: f.downNode, Label: label}
	}
	if f.plan.CrashRate > 0 && f.budgetLeft() && f.rng.Bool(f.plan.CrashRate) {
		f.used++
		f.downNode = NodeID(f.rng.IntN(nw.n))
		f.down = f.plan.CrashDownPhases
		c.Crashes++
		c.FailedPhases++
		if f.down == 0 {
			c.Restarts++
		}
		return nil, &FaultError{Kind: FaultCrash, Node: f.downNode, Label: label}
	}
	if f.plan.CorruptRate > 0 && f.budgetLeft() && f.rng.Bool(f.plan.CorruptRate) {
		f.used++
		c.Corrupted++
		f.pendErr = &FaultError{Kind: FaultCorrupt, Node: -1, Label: label}
	}
	return f, nil
}

// onWords draws the per-message fault for one w-word message (or one
// bulk-charged load, or one broadcast payload — the unit the phase moves).
func (f *faultState) onWords(w int64, c *FaultCounters) {
	if f.tDelay <= 0 {
		return
	}
	u := f.rng.Float64()
	switch {
	case u < f.tDrop:
		c.Dropped++
		f.dropped = true
		if w > f.dropMax {
			f.dropMax = w
		}
	case u < f.tDup:
		c.Duplicated++
		f.dupWords += w
	case u < f.tDelay:
		c.Delayed++
		late := int64(f.rng.IntRange(1, f.maxDelay))
		if late > f.maxLate {
			f.maxLate = late
		}
	}
}

// finish folds the phase's fault surcharges into its cost before it is
// recorded: retransmission of the largest dropped message (detect + resend),
// the synchronous stretch to the latest straggler, and the deduplicated
// duplicate words. A latched corruption counts its failed phase here — the
// cost was charged, the delivery failed.
func (f *faultState) finish(p *phase, c *FaultCounters) {
	if f.dropped {
		retrans := 2 + f.dropMax
		p.rounds += retrans
		c.RetransmitRounds += retrans
	}
	if f.maxLate > 0 {
		p.rounds += f.maxLate
		c.DelayRounds += f.maxLate
	}
	p.words += f.dupWords
	if f.pendErr != nil {
		c.FailedPhases++
	}
}

// Package congest simulates the CONGEST-CLIQUE model: n nodes on a fully
// connected network exchanging O(log n)-bit messages in synchronous rounds.
//
// # Cost model
//
// The unit of payload is the Word: one O(log n)-bit message. In one round,
// every ordered pair of nodes may exchange one word. A communication phase
// that places load(s,d) words on the directed link (s,d) would therefore
// cost max_{s,d} load(s,d) rounds sent directly; Metrics.MaxLinkLoad
// reports that maximum. The simulator charges a point-to-point phase
// through Lemma 1 of the paper (Dolev, Lenzen, Peled 2012) instead: a
// message set in which no node sources more than n words and no node sinks
// more than n words is delivered in two rounds (see router.go). A
// broadcast uses every outgoing link of its source in parallel.
//
// # Fidelity
//
// The simulator supports two interchangeable modes with identical round
// arithmetic and fault draws: payload-carrying exchanges (ExchangeBalanced:
// messages are materialized and delivered to per-node inboxes) and bulk
// load charging (ChargeBalanced: only the per-link word counts are
// accounted). Every protocol phase of a production solve is charged
// through ChargeBalanced, Broadcast, BroadcastAll or ReplayCharge; Step 1
// of ComputePairs included, which charges one load per payload message.
// ExchangeBalanced now serves only the tests that hold that charge to the
// payload-carrying Step 1 it replaced, the E8 routing experiment and
// benchmark/probe.
//
// # Memory model of the simulator
//
// The simulator owns three classes of reusable storage so that a
// steady-state protocol run charges phases without heap allocation.
// (1) Accounting: the per-phase link/node word counters live in flat
// epoch-stamped arrays (linkScratch) on the Network — beginning a phase
// bumps the epoch instead of clearing, so cost is proportional to the links
// actually touched. (2) Inboxes: the per-destination delivery slices
// returned by ExchangeBalanced are borrowed from the network's delivery
// buffer and recycled at the next Exchange call.
// (3) Payloads: Message.Data slices can be carved from the network's
// two-generation payload arena via AcquirePayload; each Exchange flips the
// generation, so payloads follow exactly the inbox borrow contract — valid
// until the next Exchange on this network — and the arena is recycled at
// its high-water mark instead of reallocated. Protocol layers add their own
// scratch on top (see internal/triangles.Scratch); together these make a
// steady-state Solve allocation-free.
//
// Delivery runs only after a phase has been charged and its fault draws
// made (see faults.go), so moving messages into inboxes never affects
// rounds, words or the fault schedule.
package congest

import (
	"fmt"
)

// NodeID identifies a network node, 0 <= id < N.
type NodeID int

// Word is one O(log n)-bit message payload unit.
type Word uint64

// Message is a point-to-point message of one or more words. A k-word
// message adds k words to the load of its link, its source and its
// destination.
type Message struct {
	Src, Dst NodeID
	Data     []Word
}

// Words returns the word count of the message (minimum 1: even an empty
// notification occupies a message slot).
func (m Message) Words() int64 {
	if len(m.Data) == 0 {
		return 1
	}
	return int64(len(m.Data))
}

// Load is an aggregate word count on one directed link, used by the
// charge-only mode.
type Load struct {
	Src, Dst NodeID
	Words    int64
}

// Metrics accumulates the cost of a protocol run. It holds only scalar
// counters, so two runs' metrics compare with ==.
type Metrics struct {
	Rounds      int64 // total rounds charged
	Phases      int64 // number of charged phases
	Words       int64 // total words moved
	MaxLinkLoad int64 // max words placed on one link within a single phase
	// Faults tallies injected faults and their recovery surcharges; all
	// zeros unless the network was armed with WithFaults.
	Faults FaultCounters
}

// phase is the cost of one charged phase before it is folded into Metrics.
type phase struct {
	rounds, words, maxLink int64
}

// Network is a CONGEST-CLIQUE instance with n nodes.
//
// A Network is not safe for concurrent use: protocols parallelize their
// node-local computation (see package par) but funnel all communication
// accounting through a single goroutine, which is also what keeps round
// charging deterministic.
type Network struct {
	n       int
	metrics Metrics

	// validateSchedules, when true, makes balanced exchanges construct an
	// explicit two-round relay schedule (König edge coloring) and verify
	// that no link carries more than one word per round. Expensive; meant
	// for tests and small runs.
	validateSchedules bool

	// sc holds the flat per-phase accounting buffers, reused across phases
	// so that recording a phase performs zero heap allocations.
	sc linkScratch

	// inboxes is the reusable per-destination delivery buffer handed out by
	// the exchanges; borrowed by the caller until the next exchange.
	inboxes [][]Message

	// payloads is the two-generation word arena behind AcquirePayload;
	// payGen indexes the generation currently being carved. Each delivery
	// flips the generation and recycles the other one, giving payloads the
	// same lifetime as the inboxes that reference them.
	payloads [2]payloadArena
	payGen   int

	// faults is the armed fault injector (see faults.go); nil — the
	// default — keeps every phase method on its fault-free fast path.
	faults *faultState
}

// payloadBlockWords is the minimum block size the payload arena grows by;
// large single acquisitions get a dedicated block.
const payloadBlockWords = 1 << 14

// payloadArena is one generation of pooled Message.Data storage: a list of
// retained backing blocks carved sequentially. Blocks are never moved or
// grown in place, so previously returned slices stay valid for the whole
// generation.
type payloadArena struct {
	blocks [][]Word
	bi     int // block currently being carved
	off    int // words used within blocks[bi]
}

func (a *payloadArena) reset() { a.bi, a.off = 0, 0 }

// alloc carves a zero-length slice with capacity n.
func (a *payloadArena) alloc(n int) []Word {
	for {
		if a.bi < len(a.blocks) {
			b := a.blocks[a.bi]
			if len(b)-a.off >= n {
				s := b[a.off : a.off : a.off+n]
				a.off += n
				return s
			}
			a.bi++
			a.off = 0
			continue
		}
		size := n
		if size < payloadBlockWords {
			size = payloadBlockWords
		}
		a.blocks = append(a.blocks, make([]Word, size))
	}
}

// AcquirePayload returns a zero-length word slice with capacity words,
// carved from the network's payload arena, for callers assembling
// Message.Data by append. The slice follows the inbox borrow contract: it
// is recycled by the second-next Exchange call on this network (the
// generation flip at each delivery keeps the payloads referenced by the
// current inboxes intact), so senders build payloads, exchange, and let
// receivers read them — but must copy anything they need to keep.
func (nw *Network) AcquirePayload(words int) []Word {
	if words < 0 {
		words = 0
	}
	return nw.payloads[nw.payGen].alloc(words)
}

// linkScratch is the reusable flat accounting state for one phase: per-link
// word counts over the n² directed links plus per-node source/destination
// totals. Entries are validity-stamped with a phase epoch instead of being
// cleared, so beginning a phase is O(1) and only touched slots are visited.
type linkScratch struct {
	epoch     uint64
	link      []int64  // n*n, row-major (src*n + dst)
	linkStamp []uint64 // epoch when link[i] was last written
	touched   []int32  // link indices written this phase
	perSrc    []int64  // n per-source word totals
	perDst    []int64  // n per-destination word totals
	nodeStamp []uint64 // epoch stamps shared by perSrc/perDst
}

func (sc *linkScratch) ensure(n int) {
	if len(sc.link) < n*n {
		sc.link = make([]int64, n*n)
		sc.linkStamp = make([]uint64, n*n)
		sc.perSrc = make([]int64, n)
		sc.perDst = make([]int64, n)
		sc.nodeStamp = make([]uint64, n)
	}
}

// begin opens a new accounting phase.
func (sc *linkScratch) begin(n int) {
	sc.ensure(n)
	sc.epoch++
	sc.touched = sc.touched[:0]
}

// addLink accumulates w words on link (s,d) and returns the link's running
// total within the phase.
func (sc *linkScratch) addLink(n int, s, d NodeID, w int64) int64 {
	idx := int(s)*n + int(d)
	if sc.linkStamp[idx] != sc.epoch {
		sc.linkStamp[idx] = sc.epoch
		sc.link[idx] = 0
		sc.touched = append(sc.touched, int32(idx))
	}
	sc.link[idx] += w
	return sc.link[idx]
}

// addNode accumulates w words on the per-source and per-destination totals.
func (sc *linkScratch) addNode(s, d NodeID, w int64) {
	for _, v := range [2]NodeID{s, d} {
		if sc.nodeStamp[v] != sc.epoch {
			sc.nodeStamp[v] = sc.epoch
			sc.perSrc[v] = 0
			sc.perDst[v] = 0
		}
	}
	sc.perSrc[s] += w
	sc.perDst[d] += w
}

// maxNode returns the largest per-source and per-destination totals of the
// phase (scanning only stamped nodes via the touched link endpoints would
// double-visit; the touched list is per-link, so recover node maxima from
// it instead).
func (sc *linkScratch) maxNode(n int) (srcLoad, dstLoad int64) {
	for _, idx := range sc.touched {
		s := NodeID(int(idx) / n)
		d := NodeID(int(idx) % n)
		if sc.nodeStamp[s] == sc.epoch && sc.perSrc[s] > srcLoad {
			srcLoad = sc.perSrc[s]
		}
		if sc.nodeStamp[d] == sc.epoch && sc.perDst[d] > dstLoad {
			dstLoad = sc.perDst[d]
		}
	}
	return srcLoad, dstLoad
}

// Option configures a Network.
type Option func(*Network)

// WithScheduleValidation turns on explicit schedule construction and
// verification for balanced exchanges.
func WithScheduleValidation() Option {
	return func(nw *Network) { nw.validateSchedules = true }
}

// NewNetwork creates a CONGEST-CLIQUE network with n nodes.
func NewNetwork(n int, opts ...Option) (*Network, error) {
	if n <= 0 {
		return nil, fmt.Errorf("congest: network needs at least 1 node, got %d", n)
	}
	nw := &Network{n: n}
	for _, o := range opts {
		o(nw)
	}
	if nw.faults != nil {
		if err := nw.faults.plan.Validate(); err != nil {
			return nil, err
		}
		nw.faults.init()
	}
	return nw, nil
}

// N returns the node count.
func (nw *Network) N() int { return nw.n }

// Metrics returns the accumulated metrics.
func (nw *Network) Metrics() Metrics { return nw.metrics }

// Rounds returns the total rounds charged so far.
func (nw *Network) Rounds() int64 { return nw.metrics.Rounds }

// record folds one phase into the accumulated metrics.
func (nw *Network) record(p phase) {
	nw.metrics.Rounds += p.rounds
	nw.metrics.Phases++
	nw.metrics.Words += p.words
	if p.maxLink > nw.metrics.MaxLinkLoad {
		nw.metrics.MaxLinkLoad = p.maxLink
	}
}

// commit folds the phase's fault surcharges into p, records it, and returns
// the corruption latched for this phase, if any: the traffic was charged,
// the delivery failed.
func (nw *Network) commit(fs *faultState, p phase) *FaultError {
	var fe *FaultError
	if fs != nil {
		fs.finish(&p, &nw.metrics.Faults)
		fe = fs.pendErr
	}
	nw.record(p)
	return fe
}

// checkEndpoints validates one message's endpoints.
func (nw *Network) checkEndpoints(src, dst NodeID) error {
	if src < 0 || int(src) >= nw.n {
		return fmt.Errorf("congest: source %d out of range (n=%d)", src, nw.n)
	}
	if dst < 0 || int(dst) >= nw.n {
		return fmt.Errorf("congest: destination %d out of range (n=%d)", dst, nw.n)
	}
	if src == dst {
		return fmt.Errorf("congest: self-message at node %d (local state needs no network)", src)
	}
	return nil
}

// ExchangeBalanced delivers msgs using Lemma 1 routing: the message set is
// split into sub-batches in which every node sources at most n words and
// sinks at most n words; each sub-batch costs two rounds. The total cost is
// 2 * ceil(max(maxSourceLoad, maxDestLoad) / n). When schedule validation
// is enabled, an explicit relay schedule is constructed per sub-batch and
// verified against the one-word-per-link-per-round constraint.
//
// It returns per-destination inboxes. Message order within an inbox is
// deterministic (stable in input order). The returned inboxes are borrowed
// from the network's delivery buffer and remain valid only until the next
// Exchange call on this network; callers that need them longer must copy.
func (nw *Network) ExchangeBalanced(label string, msgs []Message) ([][]Message, error) {
	fs, ferr := nw.faultBegin(label)
	if ferr != nil {
		return nil, fmt.Errorf("exchange %q: %w", label, ferr)
	}
	nw.sc.begin(nw.n)
	var total, maxLink int64
	for _, m := range msgs {
		if err := nw.checkEndpoints(m.Src, m.Dst); err != nil {
			return nil, fmt.Errorf("exchange %q: %w", label, err)
		}
		w := m.Words()
		nw.sc.addNode(m.Src, m.Dst, w)
		if l := nw.sc.addLink(nw.n, m.Src, m.Dst, w); l > maxLink {
			maxLink = l
		}
		total += w
		if fs != nil {
			fs.onWords(w, &nw.metrics.Faults)
		}
	}
	srcLoad, dstLoad := nw.sc.maxNode(nw.n)
	rounds := balancedRounds(srcLoad, dstLoad, int64(nw.n))
	if nw.validateSchedules && len(msgs) > 0 {
		if err := validateRelaySchedule(nw.n, msgs); err != nil {
			return nil, fmt.Errorf("exchange %q: schedule validation: %w", label, err)
		}
	}
	if fe := nw.commit(fs, phase{rounds: rounds, words: total, maxLink: maxLink}); fe != nil {
		return nil, fmt.Errorf("exchange %q: %w", label, fe)
	}
	return nw.deliver(msgs), nil
}

// balancedRounds is the Lemma 1 round formula: two rounds per sub-batch of
// at-most-n-per-source and at-most-n-per-destination words.
func balancedRounds(srcLoad, dstLoad, n int64) int64 {
	load := srcLoad
	if dstLoad > load {
		load = dstLoad
	}
	if load == 0 {
		return 0
	}
	batches := (load + n - 1) / n
	return 2 * batches
}

// deliver groups msgs by destination, preserving input order, into the
// pooled inbox buffer, which the next delivery recycles. Accounting and
// fault injection are already done by the time deliver runs, so it only
// moves data.
func (nw *Network) deliver(msgs []Message) [][]Message {
	// Flip the payload generations: slices acquired since the previous
	// Exchange are now referenced by the inboxes being built, so the
	// generation recycled here is the one the previous inboxes pointed at.
	nw.payGen ^= 1
	nw.payloads[nw.payGen].reset()
	if nw.inboxes == nil {
		nw.inboxes = make([][]Message, nw.n)
	}
	inboxes := nw.inboxes
	for i := range inboxes {
		// Clear before truncating: stale Message values past the new length
		// would otherwise pin the previous phase's payload arenas at the
		// largest exchange's high-water mark.
		clear(inboxes[i])
		inboxes[i] = inboxes[i][:0]
	}
	for _, m := range msgs {
		inboxes[m.Dst] = append(inboxes[m.Dst], m)
	}
	return inboxes
}

// ChargeBalanced accounts a bulk Lemma-1 phase without materializing
// payloads.
func (nw *Network) ChargeBalanced(label string, loads []Load) error {
	fs, ferr := nw.faultBegin(label)
	if ferr != nil {
		return fmt.Errorf("charge %q: %w", label, ferr)
	}
	nw.sc.begin(nw.n)
	var total, maxLink int64
	for _, l := range loads {
		if err := nw.checkEndpoints(l.Src, l.Dst); err != nil {
			return fmt.Errorf("charge %q: %w", label, err)
		}
		if l.Words < 0 {
			return fmt.Errorf("charge %q: negative load", label)
		}
		nw.sc.addNode(l.Src, l.Dst, l.Words)
		if w := nw.sc.addLink(nw.n, l.Src, l.Dst, l.Words); w > maxLink {
			maxLink = w
		}
		total += l.Words
		if fs != nil {
			fs.onWords(l.Words, &nw.metrics.Faults)
		}
	}
	srcLoad, dstLoad := nw.sc.maxNode(nw.n)
	rounds := balancedRounds(srcLoad, dstLoad, int64(nw.n))
	if fe := nw.commit(fs, phase{rounds: rounds, words: total, maxLink: maxLink}); fe != nil {
		return fmt.Errorf("charge %q: %w", label, fe)
	}
	return nil
}

// Broadcast accounts node src sending the same words-long payload to every
// other node. Every outgoing link of src carries the full payload in
// parallel, so the phase costs exactly words rounds.
func (nw *Network) Broadcast(label string, src NodeID, words int64) error {
	if src < 0 || int(src) >= nw.n {
		return fmt.Errorf("broadcast %q: source %d out of range", label, src)
	}
	if words < 0 {
		return fmt.Errorf("broadcast %q: negative word count", label)
	}
	return nw.recordBulk(label, words, words*int64(nw.n-1))
}

// recordBulk records a broadcast phase, in which every link in use carries
// the same words-long payload in parallel (words rounds, total words
// moved), through the fault injector: the phase consults the
// crash/corruption draws and its one payload takes the per-message draw.
func (nw *Network) recordBulk(label string, words, total int64) error {
	fs, ferr := nw.faultBegin(label)
	if ferr != nil {
		return fmt.Errorf("phase %q: %w", label, ferr)
	}
	if fs != nil {
		fs.onWords(words, &nw.metrics.Faults)
	}
	if fe := nw.commit(fs, phase{rounds: words, words: total, maxLink: words}); fe != nil {
		return fmt.Errorf("phase %q: %w", label, fe)
	}
	return nil
}

// ReplayCharge re-records the aggregate cost of a previously measured
// metrics delta, times over. It supports the quantum oracle accounting: a
// fixed, input-independent communication schedule is executed (and
// measured) once, and each further oracle invocation re-runs the identical
// schedule, so its cost is replayed rather than re-simulated.
func (nw *Network) ReplayCharge(label string, delta Metrics, times int64) {
	if times <= 0 {
		return
	}
	nw.record(phase{rounds: delta.Rounds * times, words: delta.Words * times, maxLink: delta.MaxLinkLoad})
}

// DeltaSince returns the metrics accumulated after a previously captured
// baseline. Rounds, Phases, Words and Faults are the window's; MaxLinkLoad
// is the network's running maximum, not the window's, so a delta cannot
// isolate one phase's peak — measure that on a network of its own.
func (nw *Network) DeltaSince(baseline Metrics) Metrics {
	return Metrics{
		Rounds:      nw.metrics.Rounds - baseline.Rounds,
		Phases:      nw.metrics.Phases - baseline.Phases,
		Words:       nw.metrics.Words - baseline.Words,
		MaxLinkLoad: nw.metrics.MaxLinkLoad,
		Faults:      nw.metrics.Faults.delta(baseline.Faults),
	}
}

// BroadcastAll accounts every node simultaneously broadcasting words-long
// payloads (full gossip). All links carry words in parallel: words rounds.
func (nw *Network) BroadcastAll(label string, words int64) error {
	if words < 0 {
		return fmt.Errorf("broadcast %q: negative word count", label)
	}
	return nw.recordBulk(label, words, words*int64(nw.n)*int64(nw.n-1))
}

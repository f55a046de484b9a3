// Package qsearch implements the distributed quantum search framework of
// Le Gall and Magniez (PODC 2018) as used by the paper (Section 4): a node
// searches a space X through an r-round distributed evaluation procedure in
// Õ(r·√|X|) rounds, and m searches run in parallel through a single shared
// evaluation procedure — including the truncated procedure C̃m of Theorem 3
// that is only correct on load-balanced ("typical") inputs.
//
// # Simulation contract
//
// The real protocol transports superposed queries through a fixed,
// input-independent communication schedule (that input independence is
// exactly what Section 4.2 buys). The simulation therefore (1) executes
// the evaluation schedule once through the CONGEST-CLIQUE simulator,
// measuring its true round cost r and obtaining the oracle truth tables,
// (2) evolves exact per-instance Grover state vectors locally, and
// (3) charges r rounds for every further oracle invocation by replaying
// the measured cost. Truncation error — the amplitude mass the truncated
// procedure corrupts, bounded by Lemma 5 — is computed analytically and
// injected as a sampled failure, reproducing the Theorem 3 error model.
package qsearch

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"unsafe"

	"qclique/internal/congest"
	"qclique/internal/par"
	"qclique/internal/quantum"
	"qclique/internal/xrand"
)

// ErrTruncation reports an injected Theorem-3 truncation failure: the
// atypical amplitude mass corrupted the run. Callers retry, exactly as the
// paper's union-bound analysis assumes.
var ErrTruncation = errors.New("qsearch: truncation failure (atypical amplitude mass)")

// Tables holds the oracle truth tables of a multi-search as distinct rows
// plus an instance→row index: instance i answers g_i(x) = Rows[Of[i]][x]
// for search-space element x. Any number of instances may share a row, so
// an evaluation whose instances repeat each other's questions returns each
// row once. MultiSearch only reads the tables.
type Tables struct {
	// Rows are the distinct truth-table rows, each of length SpaceSize.
	Rows [][]bool
	// Of maps each of the Instances instances to its row in Rows.
	Of []int32
}

// EvalFunc executes the evaluation procedure's fixed communication
// schedule once through the network and returns the oracle truth tables.
// Implementations must charge all communication to net, must have an
// input-independent schedule, and must return an error if a load promise
// is violated (the C̃m abort).
type EvalFunc func(net *congest.Network) (Tables, error)

// Spec describes one multi-search invocation.
type Spec struct {
	// SpaceSize is |X|.
	SpaceSize int
	// Instances is m, the number of parallel searches.
	Instances int
	// Eval is the shared evaluation procedure.
	Eval EvalFunc
	// Beta is the typicality bound β of Theorem 3 (queries per element of
	// X per evaluation). Zero means "untruncated evaluation" (Section 4.1
	// semantics): no truncation error is modeled.
	Beta float64
	// Passes overrides the number of amplification passes; 0 selects the
	// default O(log m) schedule.
	Passes int
	// DisableFailureInjection turns off sampling of the truncation error
	// (the bound is still reported). Used by deterministic tests.
	DisableFailureInjection bool
	// Workers bounds the host-side parallelism of the per-instance Grover
	// state-vector updates; <= 0 selects GOMAXPROCS. Every probe draws from
	// its own pre-derived random stream, so results are identical for every
	// worker count.
	Workers int
	// Scratch supplies every buffer of the search: per-worker probe
	// streams, probe merge slots, and the Result's Found/Witness backing.
	// The returned Result aliases it and is valid only until its next
	// MultiSearch. Nil means a fresh Scratch for this call alone. Results
	// are bit-identical either way.
	Scratch *Scratch
}

// Scratch is the reusable state of a MultiSearch invocation and the one
// owner of its buffers. A Scratch is not safe for concurrent use; the
// protocol layers keep one per solve. Every buffer is fully (re)initialized
// before it is read, which is what keeps reused and fresh runs
// bit-identical.
type Scratch struct {
	found    []bool
	witness  []int
	rowOK    []bool
	feasible []int32
	active   []int32
	probeX   []int32
	probeHit []bool
	rngs     []*xrand.Source
}

// workerState returns one reseedable scratch source per worker (the probes'
// only per-worker state since the two-amplitude Grover probe dropped the
// state-vector buffers), growing the retained slice as needed.
func (s *Scratch) workerState(workers int) []*xrand.Source {
	if cap(s.rngs) < workers {
		s.rngs = append(s.rngs[:cap(s.rngs)], make([]*xrand.Source, workers-cap(s.rngs))...)
	}
	s.rngs = s.rngs[:workers]
	for w := range s.rngs {
		if s.rngs[w] == nil {
			s.rngs[w] = xrand.New(0)
		}
	}
	return s.rngs
}

// Result reports the outcome of a (multi-)search.
type Result struct {
	// Found[i] reports whether instance i located a witness.
	Found []bool
	// Witness[i] is the located element for instance i (valid when
	// Found[i]).
	Witness []int
	// EvalRounds is the measured round cost of one evaluation invocation.
	EvalRounds int64
	// EvalCalls counts oracle invocations (Grover iterations plus
	// verifications) charged at EvalRounds each.
	EvalCalls int64
	// Iterations is the total number of Grover iterations in the
	// lock-step schedule.
	Iterations int64
	// Passes is the number of amplification passes executed.
	Passes int
	// TruncationErrorBound is the Lemma-5/Theorem-3 bound on the
	// probability that truncation corrupted the run (0 when Beta == 0).
	TruncationErrorBound float64
	// PreconditionsHold reports whether the Theorem 3 hypotheses
	// (|X| < m/(36 log m), β > 8m/|X|) held for this invocation.
	PreconditionsHold bool
}

// AllFound reports whether every instance found a witness.
func (r *Result) AllFound() bool {
	for _, f := range r.Found {
		if !f {
			return false
		}
	}
	return true
}

// defaultPasses is the O(log m) amplification count driving per-instance
// failure below 1/m² (Appendix A: "amplified ... by repeating the
// algorithm a logarithmic number of times").
func defaultPasses(m int) int {
	if m < 2 {
		return 3
	}
	return 3 + 2*int(math.Ceil(math.Log2(float64(m))))
}

// MultiSearch runs spec.Instances parallel Grover searches over a space of
// spec.SpaceSize elements, sharing the evaluation procedure in lock-step:
// within a pass, every instance executes the same number of Grover
// iterations (the joint circuit applies Um·Cm to all registers at once),
// so the oracle-call count per pass is the maximum of the BBHT schedule,
// not the sum.
func MultiSearch(net *congest.Network, spec Spec, rng *xrand.Source) (*Result, error) {
	if spec.SpaceSize <= 0 {
		return nil, fmt.Errorf("qsearch: space size %d", spec.SpaceSize)
	}
	if spec.Instances <= 0 {
		return nil, fmt.Errorf("qsearch: instance count %d", spec.Instances)
	}
	if spec.Eval == nil {
		return nil, errors.New("qsearch: nil evaluation procedure")
	}

	// Execute the fixed schedule once: measures its cost and yields the
	// truth tables for the local state-vector evolution.
	baseline := net.Metrics()
	tabs, err := spec.Eval(net)
	if err != nil {
		return nil, fmt.Errorf("qsearch: evaluation procedure: %w", err)
	}
	evalCost := net.DeltaSince(baseline)
	if len(tabs.Of) != spec.Instances {
		return nil, fmt.Errorf("qsearch: evaluation indexed %d instances, want %d", len(tabs.Of), spec.Instances)
	}
	rows, of := tabs.Rows, tabs.Of

	sc := spec.Scratch
	if sc == nil {
		sc = new(Scratch)
	}
	sc.found = par.Grow(sc.found, spec.Instances)
	clear(sc.found)
	sc.witness = par.Grow(sc.witness, spec.Instances)

	res := &Result{
		Found:      sc.found,
		Witness:    sc.witness,
		EvalRounds: evalCost.Rounds,
	}
	for i := range res.Witness {
		res.Witness[i] = -1
	}
	res.EvalCalls = 1 // the staging invocation above

	passes := spec.Passes
	if passes <= 0 {
		passes = defaultPasses(spec.Instances)
	}
	sqrtX := math.Sqrt(float64(spec.SpaceSize))
	maxRounds := 4 + 3*int(math.Ceil(math.Log2(float64(spec.SpaceSize+1))))
	const lambda = 6.0 / 5.0

	// Instances with an all-false truth table can never verify a measured
	// candidate, so their probes are skipped — an exact equivalence, not an
	// approximation: the lock-step schedule's cost does not depend on the
	// instance count, and a probe of an empty oracle cannot change Found.
	// Feasible instances are kept as a compact index list so the per-round
	// scheduling work scales with the (typically small) feasible count,
	// not the instance count.
	// Feasibility is a property of the row, so each row is tested once,
	// however many instances share it. The test is "does the row contain
	// a true". Scanning bool-by-bool dominated large all-false rows, so the
	// scan reuses the vectorized bytes.IndexByte over the same memory: Go
	// bools are one byte storing exactly 0 or 1, so IndexByte(…, 1) finds
	// the first true.
	rowOK := par.Grow(sc.rowOK, len(rows))
	sc.rowOK = rowOK
	for r, row := range rows {
		if len(row) != spec.SpaceSize {
			return nil, fmt.Errorf("qsearch: row %d has %d entries, want %d", r, len(row), spec.SpaceSize)
		}
		bs := unsafe.Slice((*byte)(unsafe.Pointer(&row[0])), len(row))
		rowOK[r] = bytes.IndexByte(bs, 1) >= 0
	}
	feasibleIdx := sc.feasible[:0]
	for i, r := range of {
		if r < 0 || int(r) >= len(rows) {
			return nil, fmt.Errorf("qsearch: instance %d indexes row %d of %d", i, r, len(rows))
		}
		if rowOK[r] {
			feasibleIdx = append(feasibleIdx, int32(i))
		}
	}
	sc.feasible = feasibleIdx
	remaining := len(feasibleIdx)

	// Per-node state-vector evolution is embarrassingly parallel across
	// instances: each probe draws from a stream derived from (pass, round,
	// instance) alone, and hits are merged back by instance index, so the
	// outcome is identical for every worker count. More workers than
	// feasible instances would never be scheduled, so cap before sizing
	// the per-worker scratch (reseedable probe RNGs).
	workers := par.Workers(spec.Workers)
	if workers > len(feasibleIdx) {
		workers = len(feasibleIdx)
	}
	if workers < 1 {
		workers = 1
	}
	if cap(sc.active) < len(feasibleIdx) {
		sc.active = make([]int32, 0, len(feasibleIdx))
	}
	// The not-yet-found feasible instances are kept as a compacted alive
	// list with swap-removal on success, instead of rebuilding the list
	// from Found each round: instances never resurrect, each probe draws
	// from a stream keyed by (pass, round, instance) alone, and hits are
	// merged by instance index, so neither the list order nor the removal
	// strategy can affect any outcome.
	alive := append(sc.active[:0], feasibleIdx...)
	sc.active = alive
	probeX := par.Grow(sc.probeX, spec.Instances)
	sc.probeX = probeX
	probeHit := par.Grow(sc.probeHit, spec.Instances)
	sc.probeHit = probeHit
	scratchRng := sc.workerState(workers)
	probeSplit := rng.SplitterFor("probe")

	for pass := 0; pass < passes; pass++ {
		res.Passes++
		mcur := 1.0
		for round := 0; round < maxRounds; round++ {
			j := rng.IntN(int(math.Ceil(mcur)) + 1)
			// j lock-step Grover iterations plus one verification query.
			res.Iterations += int64(j)
			res.EvalCalls += int64(j) + 1
			probeKey := pass*1_000_003 + round*1009
			par.ForEachWorker(workers, len(alive), func(w, k int) {
				i := int(alive[k])
				x, hit := quantum.FixedScheduleProbe(rows[of[i]], j, probeSplit.Into(scratchRng[w], probeKey+i))
				probeX[i] = int32(x)
				probeHit[i] = hit
			})
			for k := 0; k < len(alive); {
				ia := alive[k]
				if probeHit[ia] {
					res.Found[ia] = true
					res.Witness[ia] = int(probeX[ia])
					remaining--
					alive[k] = alive[len(alive)-1]
					alive = alive[:len(alive)-1]
				} else {
					k++
				}
			}
			mcur = math.Min(lambda*mcur, sqrtX)
		}
		if remaining == 0 {
			// All satisfiable instances have verified witnesses. The nodes
			// detect this with a one-word convergecast per pass (charged),
			// and stop early.
			break
		}
	}
	if err := net.BroadcastAll("qsearch/converge", int64(res.Passes)); err != nil {
		return nil, err
	}

	// Charge every oracle call beyond the staged one by replaying the
	// measured schedule cost.
	net.ReplayCharge("qsearch/oracle", evalCost, res.EvalCalls-1)

	// Theorem 3 truncation accounting.
	if spec.Beta > 0 {
		res.PreconditionsHold = quantum.Theorem3Preconditions(spec.Instances, spec.SpaceSize, spec.Beta)
		dev := quantum.TruncationDeviationBound(res.Iterations, spec.Instances, spec.SpaceSize)
		if dev > 1 {
			dev = 1
		}
		res.TruncationErrorBound = dev
		if !spec.DisableFailureInjection && rng.Split("trunc").Bool(dev) {
			return res, ErrTruncation
		}
	}
	return res, nil
}

// LocalEval adapts locally known truth tables, one per instance, into an
// EvalFunc that charges a fixed number of broadcast rounds; useful for tests
// and for protocols whose evaluation data is already in place. The rows are
// borrowed, not copied: the caller must not modify them until MultiSearch
// returns.
func LocalEval(tables [][]bool, rounds int64) EvalFunc {
	of := make([]int32, len(tables))
	for i := range of {
		of[i] = int32(i)
	}
	return func(net *congest.Network) (Tables, error) {
		if rounds > 0 {
			if err := net.BroadcastAll("qsearch/local-eval", rounds); err != nil {
				return Tables{}, err
			}
		}
		return Tables{Rows: tables, Of: of}, nil
	}
}

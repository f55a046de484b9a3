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
// (2) simulates the lock-step Grover schedule exactly and locally: a
// measurement's distribution depends only on the instance's truth-table
// row and the round's iteration count, so each round evolves every row
// that still has a searching instance once and then measures each of the
// row's instances with the instance's own random draw, and
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
// plus a row→instances index: instance i answers g_i(x) = Rows[r][x] for
// search-space element x, where r is the row whose Index.Row(r) lists i.
// Any number of instances may share a row, so an evaluation whose
// instances repeat each other's questions returns each row once.
// MultiSearch only reads the tables.
type Tables struct {
	// Rows are the distinct truth-table rows, each of length SpaceSize.
	Rows [][]bool
	// Index lists, for each row of Rows, the instances that answer it.
	Index RowIndex
}

// RowIndex groups the instances of a multi-search by the truth-table row
// they answer: row r is answered by the instances Row(r). NewRowIndex
// checks an index once, where its rows are listed, so the searches that
// share it check only its shape. The zero RowIndex has no rows and no
// instances.
type RowIndex struct {
	starts []int32 // row r's instances are insts[starts[r]:starts[r+1]]
	insts  []int32
}

// NewRowIndex returns the index whose row r lists the instances
// insts[starts[r]:starts[r+1]], after checking that it is one: starts
// runs from 0 to len(insts) without decreasing, and insts lists each of
// the instances 0…len(insts)−1 exactly once. The index borrows both
// slices; the caller must not modify them while the index is in use.
func NewRowIndex(starts, insts []int32) (RowIndex, error) {
	m := len(insts)
	if len(starts) == 0 || starts[0] != 0 {
		return RowIndex{}, errors.New("qsearch: row index does not start at 0")
	}
	for r := 1; r < len(starts); r++ {
		if starts[r] < starts[r-1] {
			return RowIndex{}, fmt.Errorf("qsearch: row %d starts at %d, before row %d's start %d", r, starts[r], r-1, starts[r-1])
		}
	}
	if end := starts[len(starts)-1]; int(end) != m {
		return RowIndex{}, fmt.Errorf("qsearch: rows list %d instances of %d", end, m)
	}
	seen := make([]uint64, (m+63)/64)
	for _, i := range insts {
		u := uint32(i)
		if u >= uint32(m) {
			return RowIndex{}, fmt.Errorf("qsearch: row index lists instance %d of %d", i, m)
		}
		w, bit := u>>6, uint64(1)<<(u&63)
		if seen[w]&bit != 0 {
			return RowIndex{}, fmt.Errorf("qsearch: row index lists instance %d twice", i)
		}
		seen[w] |= bit
	}
	return RowIndex{starts: starts, insts: insts}, nil
}

// Rows returns the number of rows the index groups instances into.
func (x RowIndex) Rows() int { return max(len(x.starts)-1, 0) }

// Instances returns the number of instances the index lists.
func (x RowIndex) Instances() int { return len(x.insts) }

// Row returns the instances that answer row r.
func (x RowIndex) Row(r int) []int32 { return x.insts[x.starts[r]:x.starts[r+1]] }

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
	// Workers bounds the host-side parallelism of each round's probes,
	// which run row by row: a worker builds a row's measurement table and
	// measures the row's searching instances; <= 0 selects GOMAXPROCS.
	// Every probe draws from its own pre-derived random stream, so results
	// are identical for every worker count.
	Workers int
	// Scratch supplies every buffer of the search: per-worker measurement
	// tables, the searching instances grouped by row, and the Result's
	// Found/Witness/RowFound backing. The returned Result aliases it and is
	// valid only until its next MultiSearch. Nil means a fresh Scratch for
	// this call alone. Results are bit-identical either way.
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
	rowFound []bool
	live     []liveRow
	alive    []int32
	tables   [][]float64
}

// liveRow is a row that still has searching instances: alive[off:off+n]
// of the search's alive list.
type liveRow struct {
	row, off, n int32
}

// workerTables returns one measurement table of size entries per worker,
// growing the retained tables as needed.
func (s *Scratch) workerTables(workers, size int) [][]float64 {
	s.tables = par.Grow(s.tables, workers)
	for w := range s.tables {
		s.tables[w] = par.Grow(s.tables[w], size)
	}
	return s.tables
}

// Result reports the outcome of a (multi-)search.
type Result struct {
	// Found[i] reports whether instance i located a witness.
	Found []bool
	// Witness[i] is the located element for instance i, or −1 when
	// !Found[i].
	Witness []int
	// RowFound[r] reports whether some instance of truth-table row r
	// located a witness.
	RowFound []bool
	// FoundCount is the number of instances that located a witness.
	FoundCount int
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
func (r *Result) AllFound() bool { return r.FoundCount == len(r.Found) }

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
	// truth tables for the local simulation of the Grover schedule.
	baseline := net.Metrics()
	tabs, err := spec.Eval(net)
	if err != nil {
		return nil, fmt.Errorf("qsearch: evaluation procedure: %w", err)
	}
	evalCost := net.DeltaSince(baseline)
	rows, index := tabs.Rows, tabs.Index
	if index.Instances() != spec.Instances {
		return nil, fmt.Errorf("qsearch: evaluation indexed %d instances, want %d", index.Instances(), spec.Instances)
	}
	if index.Rows() != len(rows) {
		return nil, fmt.Errorf("qsearch: index groups %d rows, evaluation returned %d", index.Rows(), len(rows))
	}

	sc := spec.Scratch
	if sc == nil {
		sc = new(Scratch)
	}
	sc.found = par.Grow(sc.found, spec.Instances)
	clear(sc.found)
	sc.witness = par.Grow(sc.witness, spec.Instances)
	sc.rowFound = par.Grow(sc.rowFound, len(rows))
	clear(sc.rowFound)

	res := &Result{
		Found:      sc.found,
		Witness:    sc.witness,
		RowFound:   sc.rowFound,
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

	// Instances whose row is all false can never verify a measured
	// candidate, so their probes are skipped — an exact equivalence, not
	// an approximation: the lock-step schedule's cost does not depend on
	// the instance count, and a probe of an empty oracle cannot change
	// Found. The test is "does the row contain a true". Scanning
	// bool-by-bool dominated large all-false rows, so the scan reuses the
	// vectorized bytes.IndexByte over the same memory: Go bools are one
	// byte storing exactly 0 or 1, so IndexByte(…, 1) finds the first true.
	// The feasible rows' instances are copied into the alive list, grouped
	// by row, so each round's work scales with the rows and instances still
	// searching, not with the instance count.
	live := sc.live[:0]
	alive := sc.alive[:0]
	for r, row := range rows {
		if len(row) != spec.SpaceSize {
			return nil, fmt.Errorf("qsearch: row %d has %d entries, want %d", r, len(row), spec.SpaceSize)
		}
		bs := unsafe.Slice((*byte)(unsafe.Pointer(&row[0])), len(row))
		if bytes.IndexByte(bs, 1) < 0 {
			continue
		}
		insts := index.Row(r)
		live = append(live, liveRow{row: int32(r), off: int32(len(alive)), n: int32(len(insts))})
		alive = append(alive, insts...)
	}
	sc.live, sc.alive = live, alive
	feasible := len(alive)
	remaining := feasible

	// A round's probes are embarrassingly parallel across rows: a row's
	// measurement table depends only on (row, j), each probe takes the
	// first draw of a stream derived from (pass, round, instance) alone,
	// and a row's instances, Found and Witness entries are written by the
	// worker that runs the row, so the outcome is identical for every
	// worker count. Within a row, instances that find a witness leave its
	// alive segment; instances never resurrect, so neither the order nor
	// the removal strategy can affect any outcome. More workers than live
	// rows would never be scheduled, so cap before sizing their tables.
	workers := min(par.Workers(spec.Workers), len(live))
	if workers < 1 {
		workers = 1
	}
	tables := sc.workerTables(workers, spec.SpaceSize)
	probeSplit := rng.SplitterFor("probe")
	var j, probeKey int
	probeRow := func(w, k int) {
		lr := &live[k]
		row := rows[lr.row]
		table := quantum.MeasurementTable(row, j, tables[w])
		seg := alive[lr.off : lr.off+lr.n]
		kept := seg[:0]
		// Measure a block of instances before testing any hit, so the
		// draws of one block overlap instead of waiting on each test.
		var xs [64]int32
		for len(seg) > 0 {
			block := seg[:min(len(seg), len(xs))]
			for a, i := range block {
				xs[a] = int32(quantum.Measure(table, probeSplit.Float64At(probeKey+int(i))))
			}
			for a, i := range block {
				if x := xs[a]; row[x] {
					res.Found[i] = true
					res.Witness[i] = int(x)
					res.RowFound[lr.row] = true
				} else {
					kept = append(kept, i)
				}
			}
			seg = seg[len(block):]
		}
		lr.n = int32(len(kept))
	}

	for pass := 0; pass < passes; pass++ {
		res.Passes++
		mcur := 1.0
		for round := 0; round < maxRounds; round++ {
			j = rng.IntN(int(math.Ceil(mcur)) + 1)
			// j lock-step Grover iterations plus one verification query.
			res.Iterations += int64(j)
			res.EvalCalls += int64(j) + 1
			probeKey = pass*1_000_003 + round*1009
			par.ForEachWorker(workers, len(live), probeRow)
			kept := live[:0]
			remaining = 0
			for _, lr := range live {
				if lr.n > 0 {
					kept = append(kept, lr)
					remaining += int(lr.n)
				}
			}
			live = kept
			mcur = math.Min(lambda*mcur, sqrtX)
		}
		if remaining == 0 {
			// All satisfiable instances have verified witnesses. The nodes
			// detect this with a one-word convergecast per pass (charged),
			// and stop early.
			break
		}
	}
	res.FoundCount = feasible - remaining
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
	// Row i is answered by instance i alone: starts are 0…m and the
	// instances their first m entries.
	ids := make([]int32, len(tables)+1)
	for i := range ids {
		ids[i] = int32(i)
	}
	index := RowIndex{starts: ids, insts: ids[:len(tables)]}
	return func(net *congest.Network) (Tables, error) {
		if rounds > 0 {
			if err := net.BroadcastAll("qsearch/local-eval", rounds); err != nil {
				return Tables{}, err
			}
		}
		return Tables{Rows: tables, Index: index}, nil
	}
}

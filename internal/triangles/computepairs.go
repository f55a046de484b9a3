package triangles

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"qclique/internal/congest"
	"qclique/internal/graph"
	"qclique/internal/par"
	"qclique/internal/qsearch"
	"qclique/internal/xrand"
)

// This file is the driver for Algorithm ComputePairs (Figure 1) and its
// Step 3 implementation (Figure 3): the public FindEdgesWithPromise entry
// point, the per-class multi-searches, retry handling for the protocol's
// abort branches, and the classical √n-scan variant used as the
// non-quantum baseline for the same algorithm.

// Instance is a FindEdgesWithPromise input.
type Instance struct {
	// G is the weighted undirected graph; pair weights f(u,v) are read
	// from it.
	G *graph.Undirected
	// Legs optionally restricts the triangle "legs" {u,w} and {w,v} to a
	// subgraph (the Proposition 1 reduction samples legs); nil means G.
	Legs *graph.Undirected
	// S is the pair set to report on, sized for G's vertex count; nil
	// means all pairs P(V). FindEdgesWithPromise and FindEdges only read
	// it. Step 2 tests one sampled covering pair against it at a time, a
	// word lookup in the dense set.
	S *graph.PairSet
}

func (in *Instance) legs() *graph.Undirected {
	if in.Legs != nil {
		return in.Legs
	}
	return in.G
}

// check rejects an instance without a graph, or whose S is sized for
// another vertex count.
func (in *Instance) check() error {
	if in.G == nil {
		return errors.New("triangles: nil graph")
	}
	if in.S != nil && in.S.N() != in.G.N() {
		return fmt.Errorf("triangles: pair set over %d vertices, graph has %d", in.S.N(), in.G.N())
	}
	return nil
}

func (in *Instance) inS(a, b int) bool {
	return in.S == nil || in.S.Has(graph.MakePair(a, b))
}

// SearchMode selects the Step 3 search implementation.
type SearchMode int

const (
	// SearchQuantum is the paper's Õ(n^{1/4}) distributed Grover search.
	SearchQuantum SearchMode = iota + 1
	// SearchClassicalScan checks every element of each search space one
	// evaluation at a time — the O(√n) classical implementation the paper
	// notes for Step 3.
	SearchClassicalScan
)

func (m SearchMode) String() string {
	switch m {
	case SearchQuantum:
		return "quantum"
	case SearchClassicalScan:
		return "classical-scan"
	default:
		return fmt.Sprintf("SearchMode(%d)", int(m))
	}
}

// Options configures a FindEdgesWithPromise run.
type Options struct {
	// Params supplies the protocol constants; the zero value selects
	// PaperParams.
	Params *Params
	// Mode selects the Step 3 search; the zero value selects SearchQuantum.
	Mode SearchMode
	// Data selects charge-only versus payload-carrying placement; the zero
	// value selects DataDirect, the charge-only Step 1 every solve runs.
	// DataFull serves only as the tests' oracle for it (see DataMode).
	Data DataMode
	// Seed drives all protocol randomness.
	Seed uint64
	// Net optionally supplies an existing network so that costs accumulate
	// across calls (the reductions above this protocol do that); when nil
	// a fresh network is created.
	Net *congest.Network
	// Workers bounds the host-side parallelism used for node-local
	// computation (truth-table assembly, Grover state-vector updates);
	// <= 0 selects GOMAXPROCS. Results are identical for every setting.
	Workers int
	// Scratch optionally supplies the reusable per-solve workspace; when
	// nil every call builds a private one (identical results, more
	// allocation). Not safe for concurrent use across calls.
	Scratch *Scratch
	// Ctx, when non-nil, is checked at the protocol's enumeration
	// checkpoints (between the promise calls of the Proposition 1
	// reduction) so a cancelled solve stops without running the remaining
	// instances. Checkpoints charge nothing; results of completed calls
	// are unaffected.
	Ctx context.Context
}

// ctxErr reports the options context's cancellation state (nil context
// means never cancelled).
func (o Options) ctxErr() error {
	if o.Ctx == nil {
		return nil
	}
	return o.Ctx.Err()
}

func (o Options) params() Params {
	if o.Params != nil {
		return *o.Params
	}
	return PaperParams()
}

func (o Options) mode() SearchMode {
	if o.Mode == 0 {
		return SearchQuantum
	}
	return o.Mode
}

func (o Options) data() DataMode {
	if o.Data == 0 {
		return DataDirect
	}
	return o.Data
}

// ClassStat reports one class-α search of Step 3.2.
type ClassStat struct {
	Alpha      int
	SpaceSize  int
	Instances  int
	EvalRounds int64
	EvalCalls  int64
	Found      int
}

// Report is the outcome of FindEdgesWithPromise.
type Report struct {
	// Edges is the output: pairs of S involved in at least one negative
	// triangle (with legs in Legs). The report owns it.
	Edges *graph.PairSet
	// Rounds is the total CONGEST-CLIQUE rounds charged, including aborted
	// attempts.
	Rounds int64
	// Metrics holds the aggregate network accounting.
	Metrics congest.Metrics
	// Retries counts aborted attempts (covering imbalance, IdentifyClass
	// overflow, slot overflow).
	Retries int
	// Classes are the per-α search statistics of the successful attempt.
	Classes []ClassStat
	// Mode records which Step 3 implementation ran.
	Mode SearchMode
}

// retryableError reports whether an attempt failure is one of the
// protocol's abort branches (retried with fresh randomness) rather than a
// hard error.
func retryableError(err error) bool {
	var nwb *NotWellBalancedError
	var ia *IdentifyAbortError
	var so *SlotOverflowError
	return errors.As(err, &nwb) || errors.As(err, &ia) || errors.As(err, &so)
}

// FindEdgesWithPromise solves the problem of Section 3 under the promise
// Γ(u,v) ≤ Promise·log n for all pairs of S: it returns every pair of S
// involved in a negative triangle. The algorithm is ComputePairs (Figure
// 1) with the Step 3 searches implemented per opts.Mode.
func FindEdgesWithPromise(inst Instance, opts Options) (*Report, error) {
	if err := inst.check(); err != nil {
		return nil, err
	}
	n := inst.G.N()
	sc := opts.Scratch
	if sc == nil {
		sc = NewScratch()
	}
	pt, err := sc.partitions(n)
	if err != nil {
		return nil, err
	}
	net := opts.Net
	if net == nil {
		net, err = congest.NewNetwork(n)
		if err != nil {
			return nil, err
		}
	}
	params := opts.params()
	rng := xrand.New(opts.Seed)

	// Step 1 (deterministic): charged once; aborts below restart only the
	// randomized steps, which is what fresh randomness re-draws.
	pl, err := runPlacement(net, pt, inst.legs(), opts.data(), sc)
	if err != nil {
		return nil, err
	}

	var lastErr error
	for attempt := 0; attempt <= params.MaxRetries; attempt++ {
		rep, err := computePairsAttempt(net, pt, &inst, pl, params, opts, sc, rng.SplitN("attempt", attempt))
		if err == nil {
			rep.Retries = attempt
			rep.Rounds = net.Rounds()
			rep.Metrics = net.Metrics()
			rep.Mode = opts.mode()
			return rep, nil
		}
		if !retryableError(err) {
			return nil, err
		}
		lastErr = err
	}
	return nil, fmt.Errorf("triangles: %d attempts aborted, last: %w", params.MaxRetries+1, lastErr)
}

// computePairsAttempt runs Steps 2–3 of ComputePairs once.
func computePairsAttempt(net *congest.Network, pt *Partitions, inst *Instance, pl *placement, params Params, opts Options, sc *Scratch, rng *xrand.Source) (*Report, error) {
	// Step 3.1 (run before the searches; Figure 3): classify the triples.
	cls, err := runIdentifyClass(net, pt, inst, pl, params, sc, rng.Split("identify"))
	if err != nil {
		return nil, err
	}

	// Step 2: coverings.
	st, err := runCoverings(net, pt, inst, params, sc, rng.Split("cover"))
	if err != nil {
		return nil, err
	}

	rep := &Report{Edges: graph.NewPairSet(pt.N())}
	// Instances that share a row share its pair, so each found row enters
	// the output once, after the class searches.
	rowFound := par.Grow(sc.rowFound, len(st.rows))
	sc.rowFound = rowFound
	clear(rowFound)

	// Step 3.2: for each class α, search T_α[u,v]. With no kept pairs
	// (S empty or disjoint from the coverings) there is nothing to search
	// and the output is empty.
	for alpha := 0; st.index.Instances() > 0 && alpha <= cls.maxClass; alpha++ {
		b := newEvalBuilder(pt, pl, st, cls, params, alpha, sc, rng.SplitN("eval", alpha))
		b.workers = opts.Workers
		if b.spaceSize == 0 {
			continue
		}
		stat := ClassStat{Alpha: alpha, SpaceSize: b.spaceSize, Instances: st.index.Instances()}
		switch opts.mode() {
		case SearchClassicalScan:
			rowOK, err := classicalScan(net, b)
			if err != nil {
				return nil, err
			}
			stat.EvalCalls = int64(b.spaceSize)
			for r, ok := range rowOK {
				if ok {
					rowFound[r] = true
					stat.Found += len(st.index.Row(r))
				}
			}
		default:
			res, err := qsearch.MultiSearch(net, qsearch.Spec{
				SpaceSize: b.spaceSize,
				Instances: st.index.Instances(),
				Eval:      b.evalFunc(),
				Workers:   opts.Workers,
				Scratch:   &sc.qs,
			}, rng.SplitN("search", alpha))
			if err != nil {
				return nil, err
			}
			stat.EvalRounds = res.EvalRounds
			stat.EvalCalls = res.EvalCalls
			stat.Found = res.FoundCount
			for r, ok := range res.RowFound {
				if ok {
					rowFound[r] = true
				}
			}
		}
		rep.Classes = append(rep.Classes, stat)
	}
	for ri, ok := range rowFound {
		if ok {
			rep.Edges.Add(st.rows[ri].pair)
		}
	}

	// Deliver each found pair to its two endpoint nodes (the problem's
	// output convention: node u outputs the pairs {u,v} it is part of).
	loads := sc.loadList(2 * rep.Edges.Len())
	for pr := range rep.Edges.All() {
		for _, owner := range []int{pr.U, pr.V} {
			// Reporting node: the search node that found it; charge one
			// word from a representative search node to the endpoint.
			src := pt.SearchNode(SearchLabel{U: pt.CoarseOf(pr.U), V: pt.CoarseOf(pr.V), X: 0})
			if src == congest.NodeID(owner) {
				continue
			}
			loads = append(loads, congest.Load{Src: src, Dst: congest.NodeID(owner), Words: 1})
		}
	}
	sc.loads = loads
	if err := net.ChargeBalanced("computepairs/output", loads); err != nil {
		return nil, err
	}
	return rep, nil
}

// classicalScan is the classical implementation of Step 3: one evaluation
// per element of the (padded) search space, answering every instance
// exactly. It costs spaceSize × evalRounds instead of Õ(√spaceSize) ×
// evalRounds. It reports, per truth-table row of Step 2, whether the row
// holds a witness; the instances sharing a row share its answer.
func classicalScan(net *congest.Network, b *evalBuilder) ([]bool, error) {
	baseline := net.Metrics()
	tabs, err := b.evalFunc()(net)
	if err != nil {
		return nil, err
	}
	evalCost := net.DeltaSince(baseline)
	// One evaluation per space element; the first was executed above.
	net.ReplayCharge("classical-scan/oracle", evalCost, int64(b.spaceSize-1))
	rowOK := make([]bool, len(tabs.Rows))
	for r, row := range tabs.Rows {
		rowOK[r] = slices.Contains(row, true)
	}
	return rowOK, nil
}

package triangles

import (
	"fmt"

	"qclique/internal/congest"
	"qclique/internal/graph"
	"qclique/internal/par"
	"qclique/internal/qsearch"
	"qclique/internal/xrand"
)

// Scratch is the reusable per-solve workspace of the triangles layer, and
// the one owner of its buffers. The full APSP pipeline makes hundreds of
// FindEdges calls per solve, and every phase of ComputePairs used to
// rebuild its buffers per call — the covering arenas, placement tables,
// truth-table rows, load lists and per-node RNG streams dominated the
// solve's allocation profile. A Scratch threaded through Options.Scratch
// retains all of them at their high-water mark, making the steady-state
// promise call allocation-free. A call given no Scratch builds its own,
// which dies with the call; no buffer outlives the Scratch that holds it.
//
// A Scratch is not safe for concurrent use: it mirrors the Network's
// single-goroutine protocol contract (give each concurrent solve its own).
// Every buffer is fully reinitialized before it is read, so runs with a
// shared, a fresh, or no Scratch are bit-identical — the determinism tests
// assert this.
type Scratch struct {
	// partitions cache: the same n recurs for every promise call of a solve.
	parts *Partitions

	// FindEdges (reduction.go): working pair set and sampled-legs subgraph.
	sWork map[graph.Pair]bool
	legs  *graph.Undirected

	// Instance.sMask snapshot.
	sMask []bool

	// Step 1 placement: per-triple weight tables (DataFull), the outgoing
	// message headers and the charge-only phase, whose load list depends
	// only on the partition shapes: every promise call of a solve charges
	// the identical placement loads. blockMin is the placement's per-call
	// leg-minimum table.
	plData   []tripleData
	plCells  []int64
	plMsgs   []congest.Message
	plCharge fixedCharge
	blockMin []int64

	// IdentifyClass: broadcast sample, per-group buckets, class array, and
	// the reseedable per-node sample stream.
	idPairs   []rPair
	idBuckets [][]rPair
	classOf   []int
	rngSample *xrand.Source
	// The class announcement's load list depends only on the partitions.
	annCharge fixedCharge

	// Step 2 coverings: kept pairs/weights arenas, covering headers, the
	// unique (group, pair) rows, each instance's row and the row→instances
	// index built from it, and the sampler scratch.
	covs         []Covering
	pairsArena   []graph.Pair
	weightsArena []int64
	pairRows     []pairRow
	sampleBuf    []graph.Pair
	perVertex    []int32
	ownerCount   []int32
	ownerTouched []int32
	instRow      []int32
	rowStarts    []int32
	rowInsts     []int32
	// Where the sampling probability clips at 1, the owner loads depend
	// only on the partitions (see runCoverings).
	covCharge fixedCharge

	// Step 3 evaluation: class lists, truth-table arenas, and the rows
	// some class search found.
	classLists [][]int
	classArena []int
	evalTouch  []int32
	rows       [][]bool
	rowArena   []bool
	rowFound   []bool

	// The load list of the uncached charge-only phases (loadList) and the
	// zeroed int32 index of Step 2 and the evaluation (zeroedIndex).
	loads []congest.Load
	index []int32

	// qs is the multi-search scratch handed to qsearch.MultiSearch.
	qs qsearch.Scratch
}

// NewScratch returns an empty Scratch; buffers grow to their high-water
// mark on first use.
func NewScratch() *Scratch { return &Scratch{} }

// partitions returns the Section 5.1 partitions for n, cached across calls
// (a solve's promise calls all share one n).
func (sc *Scratch) partitions(n int) (*Partitions, error) {
	if sc.parts != nil && sc.parts.N() == n {
		return sc.parts, nil
	}
	pt, err := NewPartitions(n)
	if err != nil {
		return nil, err
	}
	sc.parts = pt
	return pt, nil
}

// sampleRng returns the reseedable scratch stream for per-node sampling
// splits.
func (sc *Scratch) sampleRng() *xrand.Source {
	if sc.rngSample == nil {
		sc.rngSample = xrand.New(0)
	}
	return sc.rngSample
}

// fixedCharge is a charge-only phase whose load list depends only on the
// partitions, so only on n: the list is built and tallied once per n and
// network size, and every promise call commits the same charge, which
// charges exactly what ChargeBalanced charges for the list. loads keeps
// the built list's storage for the next rebuild.
type fixedCharge struct {
	n, netN int // 0 until the first build
	loads   []congest.Load
	charge  congest.BalancedCharge
}

// current reports whether the list and its tally are those of n on a
// network of net's size.
func (fc *fixedCharge) current(net *congest.Network, n int) bool {
	return fc.n == n && fc.netN == net.N()
}

// commit charges the phase label on net. Unless the cache is current it
// first rebuilds the list, by appending the phase's loads for n to the
// empty slice build is given, and tallies it.
func (fc *fixedCharge) commit(net *congest.Network, label string, n int, build func([]congest.Load) []congest.Load) error {
	if !fc.current(net, n) {
		*fc = fixedCharge{loads: build(fc.loads[:0])}
		c, err := net.TallyBalanced(fc.loads)
		if err != nil {
			return fmt.Errorf("charge %q: %w", label, err)
		}
		fc.n, fc.netN, fc.charge = n, net.N(), c
	}
	return net.CommitBalanced(label, fc.charge)
}

// loadList returns the scratch load list, emptied, with room for at least
// capHint loads. It backs the load list of every charge-only phase that is
// not cached per n: the phases of one promise call run one after another,
// and each list is dead once the ChargeBalanced call consuming it returns
// (the network aggregates loads into its own scratch and never retains the
// slice). A caller stores the list back into sc.loads after appending, so
// the grown capacity serves the next phase.
func (sc *Scratch) loadList(capHint int) []congest.Load {
	if cap(sc.loads) < capHint {
		sc.loads = make([]congest.Load, 0, capHint)
	}
	return sc.loads[:0]
}

// zeroedIndex returns the scratch int32 index as n zeroed entries: Step 2's
// (group, pair) row index, then each evaluation's per-(label, w-block) list
// counts. The two are never live at once.
func (sc *Scratch) zeroedIndex(n int) []int32 {
	sc.index = par.Grow(sc.index, n)
	clear(sc.index)
	return sc.index
}

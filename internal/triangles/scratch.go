package triangles

import (
	"sync"

	"qclique/internal/congest"
	"qclique/internal/graph"
	"qclique/internal/qsearch"
	"qclique/internal/xrand"
)

// Scratch is the reusable per-solve workspace of the triangles layer. The
// full APSP pipeline makes hundreds of FindEdges calls per solve, and every
// phase of ComputePairs used to rebuild its buffers per call — the covering
// arenas, placement tables, truth-table rows and per-node RNG streams
// dominated the solve's allocation profile. A Scratch threaded through
// Options.Scratch retains all of them at their high-water mark, making the
// steady-state promise call allocation-free.
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

	// Step 1 placement: per-triple weight tables (DataFull) and the
	// outgoing message headers. plLoads caches the charge-only load list,
	// which depends only on the partition shapes: every promise call of a
	// solve charges the identical placement loads, so they are built once
	// per n (plLoadsN remembers which).
	plData   []tripleData
	plCells  []int64
	plMsgs   []congest.Message
	plLoads  []congest.Load
	plLoadsN int

	// IdentifyClass: broadcast sample, per-group buckets, class array, and
	// the reseedable per-node sample stream.
	idPairs   []rPair
	idBuckets [][]rPair
	classOf   []int
	rngSample *xrand.Source

	// Step 2 coverings: kept pairs/weights arenas, covering headers, the
	// unique (group, pair) rows, the flattened instance list, and the
	// sampler scratch.
	covs         []Covering
	pairsArena   []graph.Pair
	weightsArena []int64
	pairRows     []pairRow
	sampleBuf    []graph.Pair
	perVertex    []int32
	ownerCount   []int32
	ownerTouched []int32
	instances    []int32

	// Step 3 evaluation: class lists, truth-table arenas, and the rows
	// some class search found.
	classLists [][]int
	classArena []int
	evalTouch  []int32
	rows       [][]bool
	rowArena   []bool
	rowFound   []bool

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

// The protocol stack rebuilds its phase-local buffers once per promise call
// — and the full APSP pipeline makes hundreds of promise calls, so those
// buffers dominated the allocation profile. loadPool recycles the
// congest.Load lists of the charge-only phases; a list is safe to recycle
// as soon as the ChargeBalanced call consuming it returns
// (the network aggregates loads into its own flat scratch and never
// retains the slice).
var loadPool = sync.Pool{New: func() any { return new([]congest.Load) }}

// getLoadBuf returns an empty load list with at least capHint capacity.
func getLoadBuf(capHint int) *[]congest.Load {
	p := loadPool.Get().(*[]congest.Load)
	if cap(*p) < capHint {
		*p = make([]congest.Load, 0, capHint)
	} else {
		*p = (*p)[:0]
	}
	return p
}

// putLoadBuf recycles a load list obtained from getLoadBuf.
func putLoadBuf(p *[]congest.Load) {
	loadPool.Put(p)
}

// int32Pool recycles zeroed int32 index arrays: Step 2's (group, pair) row
// index and the evaluation procedure's per-(label, w-block) list counts.
var int32Pool = sync.Pool{New: func() any { return new([]int32) }}

// getZeroedInt32 returns a zeroed int32 slice of exactly n entries.
func getZeroedInt32(n int) *[]int32 {
	p := int32Pool.Get().(*[]int32)
	if cap(*p) < n {
		*p = make([]int32, n)
		return p
	}
	*p = (*p)[:n]
	clear(*p)
	return p
}

// putInt32 recycles a slice obtained from getZeroedInt32.
func putInt32(p *[]int32) {
	int32Pool.Put(p)
}

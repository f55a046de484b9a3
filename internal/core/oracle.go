package core

// Path reconstruction (footnote 1 of the paper): the pipelines compute
// shortest-path *lengths*; the standard successor-matrix technique
// recovers the paths themselves from the distance matrix plus local
// adjacency rows, at a polylogarithmic extra cost in the distributed
// setting (each node i picks, per destination j, any neighbor k with
// w(i,k) + d(k,j) = d(i,j); the gossip strategy already leaves d at every
// node, and the reduction-based strategies ship each row back to its owner
// as part of the output convention).
//
// PathOracle is the one implementation. A serving workload asks for
// hundreds of paths against the same distance matrix, so it amortizes the
// per-destination work: one reverse BFS over the tight subgraph per
// distinct destination yields a successor array that answers every source
// for that destination in O(path length).

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"qclique/internal/graph"
	"qclique/internal/matrix"
)

// ErrNoPath is returned by PathOracle.Path for unreachable pairs.
var ErrNoPath = errors.New("core: no path")

// PathOracle answers shortest-path queries against one solved distance
// matrix, building and caching a per-destination successor array on first
// use. It is safe for concurrent use; the graph and matrix must not be
// mutated while the oracle is alive.
//
// The matrix must be the distances of a successful exact solve of the
// graph, which hold no −∞: Solve answers every −∞ with ErrNegativeCycle or
// ErrSaturatedDistance. On a −∞ entry SaturatingAdd(w, −∞) == −∞ would
// make every arc into that region tight, and Path would walk it.
type PathOracle struct {
	g    *graph.Digraph
	dist *matrix.Matrix

	mu   sync.Mutex
	succ map[int][]int // dst -> successor toward dst per vertex (-1 = none)
}

// NewPathOracle returns an oracle over g and its exact APSP solution dist
// (as produced by Solve). Dimension mismatches are rejected.
func NewPathOracle(g *graph.Digraph, dist *matrix.Matrix) (*PathOracle, error) {
	if g == nil || dist == nil {
		return nil, fmt.Errorf("core: nil graph or matrix")
	}
	if dist.N() != g.N() {
		return nil, fmt.Errorf("core: distance matrix is %d×%d for an n=%d graph", dist.N(), dist.N(), g.N())
	}
	return &PathOracle{g: g, dist: dist}, nil
}

// Dist returns d(src, dst) from the underlying matrix (graph.Inf for
// unreachable pairs).
func (o *PathOracle) Dist(src, dst int) (int64, error) {
	if err := o.checkPair(src, dst); err != nil {
		return 0, err
	}
	return o.dist.At(src, dst), nil
}

func (o *PathOracle) checkPair(src, dst int) error {
	if n := o.g.N(); src < 0 || src >= n || dst < 0 || dst >= n {
		return fmt.Errorf("core: endpoints (%d,%d) out of range", src, dst)
	}
	return nil
}

// successors returns (building if needed) the successor array for dst: for
// every vertex u that can reach dst, succ[u] is a neighbor k with
// w(u,k) + d(k,dst) = d(u,dst), chosen hop-minimally by a reverse BFS from
// dst over tight arcs, or by exactSuccessors where that BFS leaves a vertex
// at finite distance without one. succ[dst] = dst.
func (o *PathOracle) successors(dst int) []int {
	o.mu.Lock()
	if s, ok := o.succ[dst]; ok {
		o.mu.Unlock()
		return s
	}
	o.mu.Unlock()

	// Build outside the lock: concurrent batch queries to distinct
	// destinations must run their O(n²) BFS in parallel, not serialized
	// on one mutex. A lost race costs a redundant (identical) build.
	succ := o.buildSuccessors(dst)

	o.mu.Lock()
	defer o.mu.Unlock()
	if s, ok := o.succ[dst]; ok {
		return s
	}
	if o.succ == nil {
		o.succ = make(map[int][]int)
	}
	o.succ[dst] = succ
	return succ
}

func (o *PathOracle) buildSuccessors(dst int) []int {
	n := o.g.N()
	succ := make([]int, n)
	for i := range succ {
		succ[i] = -1
	}
	succ[dst] = dst
	queue := []int{dst}
	for len(queue) > 0 {
		k := queue[0]
		queue = queue[1:]
		dk := o.dist.At(k, dst)
		for u := 0; u < n; u++ {
			if succ[u] != -1 || u == k {
				continue
			}
			w, ok := o.g.Weight(u, k)
			if !ok {
				continue
			}
			if graph.SaturatingAdd(w, dk) == o.dist.At(u, dst) {
				succ[u] = k
				queue = append(queue, u)
			}
		}
	}
	for u, k := range succ {
		if k == -1 && o.dist.At(u, dst) < graph.Inf {
			return o.exactSuccessors(dst)
		}
	}
	return succ
}

// exactSuccessors is buildSuccessors for a destination whose tight arcs
// leave a vertex at finite distance without a successor. Tightness is
// tested in saturating arithmetic, and every path from such a vertex
// passes one whose distance to dst saturates at Inf although the path's
// total does not: toward 0 on 3→4 (−(Inf/2)+48), 4→1 (Inf−1) and 1→0
// (2^31+48), d(4,0) is Inf and d(3,0) is finite. So Bellman–Ford toward
// dst runs in exact 128-bit sums, and a vertex keeps its successor only
// where its exact distance is the matrix's, saturated at Inf.
func (o *PathOracle) exactSuccessors(dst int) []int {
	n := o.g.N()
	dist := make([]wide, n)
	succ := make([]int, n)
	for i := range succ {
		succ[i] = -1
	}
	succ[dst] = dst
	for round, changed := 0, true; changed && round < n; round++ {
		changed = false
		for u := 0; u < n; u++ {
			if u == dst {
				continue
			}
			for k := 0; k < n; k++ {
				w, ok := o.g.Weight(u, k)
				if !ok || succ[k] == -1 {
					continue
				}
				if alt := wideOf(w).add(dist[k]); succ[u] == -1 || alt.less(dist[u]) {
					dist[u], succ[u] = alt, k
					changed = true
				}
			}
		}
	}
	inf := wideOf(graph.Inf)
	for u, exact := range dist {
		if m := wideOf(o.dist.At(u, dst)); u != dst && exact != m && (exact.less(inf) || m.less(inf)) {
			succ[u] = -1
		}
	}
	return succ
}

// wide is a 128-bit two's-complement integer: room for any sum of fewer
// than 2^60 weights in (NegInf, Inf).
type wide struct {
	hi int64
	lo uint64
}

func wideOf(x int64) wide { return wide{hi: x >> 63, lo: uint64(x)} }

func (a wide) add(b wide) wide {
	lo, carry := bits.Add64(a.lo, b.lo, 0)
	return wide{hi: a.hi + b.hi + int64(carry), lo: lo}
}

func (a wide) less(b wide) bool { return a.hi < b.hi || a.hi == b.hi && a.lo < b.lo }

// Path returns one shortest path from src to dst (inclusive of both
// endpoints). Unreachable pairs yield ErrNoPath; a matrix inconsistent
// with the graph yields a descriptive error rather than a wrong path.
func (o *PathOracle) Path(src, dst int) ([]int, error) {
	if err := o.checkPair(src, dst); err != nil {
		return nil, err
	}
	if o.dist.At(src, dst) >= graph.Inf {
		return nil, ErrNoPath
	}
	if src == dst {
		return []int{src}, nil
	}
	succ := o.successors(dst)
	path := []int{src}
	for cur := src; cur != dst; {
		cur = succ[cur]
		if cur == -1 || len(path) == o.g.N() {
			return nil, fmt.Errorf("core: no successor path from %d to %d; distance matrix inconsistent with graph", src, dst)
		}
		path = append(path, cur)
	}
	return path, nil
}

// PathWeight sums the arc weights along a path in g; it errors on a broken
// path.
//
// It is test support, with no caller outside tests: the check that a
// reconstructed or served path weighs its reported distance. It stays
// exported because the tests of this package and of serve share it.
func PathWeight(g *graph.Digraph, path []int) (int64, error) {
	if len(path) == 0 {
		return 0, errors.New("core: empty path")
	}
	var total int64
	for i := 0; i+1 < len(path); i++ {
		w, ok := g.Weight(path[i], path[i+1])
		if !ok {
			return 0, fmt.Errorf("core: missing arc %d->%d", path[i], path[i+1])
		}
		total = graph.SaturatingAdd(total, w)
	}
	return total, nil
}

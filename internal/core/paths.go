package core

// Path reconstruction (footnote 1 of the paper): the pipelines compute
// shortest-path *lengths*; the standard successor-matrix technique
// recovers the paths themselves from the distance matrix plus local
// adjacency rows, at a polylogarithmic extra cost in the distributed
// setting (each node i picks, per destination j, any neighbor k with
// w(i,k) + d(k,j) = d(i,j); the gossip strategy already leaves d at every
// node, and the reduction-based strategies ship each row back to its owner
// as part of the output convention).

import (
	"errors"
	"fmt"

	"qclique/internal/graph"
	"qclique/internal/matrix"
)

// ErrNoPath is returned by ReconstructPath for unreachable pairs.
var ErrNoPath = errors.New("core: no path")

// ErrUndefinedDistance is returned for pairs whose distance is −∞ (the
// negative-cycle region of a distance matrix): no shortest path exists, so
// returning any vertex sequence would be fabrication. The guard matters
// because SaturatingAdd(w, −∞) == −∞ makes every arc into the −∞ region
// look "tight" — without it, path reconstruction happily walks into the
// region and returns a bogus path.
var ErrUndefinedDistance = errors.New("core: distance undefined (negative-cycle region)")

// ReconstructPath returns one shortest path from src to dst as a vertex
// sequence (inclusive of both endpoints), using the solved distance matrix
// dist and the input graph g. It requires dist to be the exact APSP
// solution of g (as produced by Solve); inconsistent inputs yield an
// error rather than a wrong path.
func ReconstructPath(g *graph.Digraph, dist *matrix.Matrix, src, dst int) ([]int, error) {
	n := g.N()
	if dist.N() != n {
		return nil, fmt.Errorf("core: distance matrix is %d×%d for an n=%d graph", dist.N(), dist.N(), n)
	}
	if src < 0 || src >= n || dst < 0 || dst >= n {
		return nil, fmt.Errorf("core: endpoints (%d,%d) out of range", src, dst)
	}
	if dist.At(src, dst) >= graph.Inf {
		return nil, ErrNoPath
	}
	if dist.At(src, dst) <= graph.NegInf {
		return nil, ErrUndefinedDistance
	}
	// An arc (u,k) is "tight" for destination dst when
	// w(u,k) + d(k,dst) = d(u,dst); every shortest path consists solely of
	// tight arcs and dst is reachable from src inside the tight subgraph.
	// A BFS over tight arcs yields the hop-minimal shortest path, which
	// terminates even in the presence of zero-weight cycles.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	parent[src] = src
	queue := []int{src}
	for len(queue) > 0 && parent[dst] == -1 {
		cur := queue[0]
		queue = queue[1:]
		for k := 0; k < n; k++ {
			if parent[k] != -1 || k == cur {
				continue
			}
			w, ok := g.Weight(cur, k)
			if !ok {
				continue
			}
			if graph.SaturatingAdd(w, dist.At(k, dst)) == dist.At(cur, dst) {
				parent[k] = cur
				queue = append(queue, k)
			}
		}
	}
	if parent[dst] == -1 {
		return nil, fmt.Errorf("core: destination unreachable through tight arcs; distance matrix inconsistent with graph")
	}
	var rev []int
	for cur := dst; cur != src; cur = parent[cur] {
		rev = append(rev, cur)
	}
	rev = append(rev, src)
	path := make([]int, len(rev))
	for i, v := range rev {
		path[len(rev)-1-i] = v
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

package graph

import "errors"

// ErrNegativeCycle is returned by shortest-path references when the input
// contains a cycle of negative total weight, for which APSP distances are
// undefined.
var ErrNegativeCycle = errors.New("graph: negative cycle")

// FloydWarshall computes all-pairs shortest distances of g by dynamic
// programming. It is the centralized correctness oracle for every
// distributed APSP pipeline in this repository. The returned matrix is
// row-major n×n with dist[i*n+j] = d(i,j), Inf when j is unreachable from i.
// If the graph contains a negative cycle it returns ErrNegativeCycle.
func FloydWarshall(g *Digraph) ([]int64, error) {
	n := g.N()
	dist := make([]int64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			switch {
			case i == j:
				dist[i*n+j] = 0
			default:
				if w, ok := g.Weight(i, j); ok {
					dist[i*n+j] = w
				} else {
					dist[i*n+j] = Inf
				}
			}
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			dik := dist[i*n+k]
			if dik >= Inf {
				continue
			}
			for j := 0; j < n; j++ {
				if alt := SaturatingAdd(dik, dist[k*n+j]); alt < dist[i*n+j] {
					dist[i*n+j] = alt
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		if dist[i*n+i] < 0 {
			return nil, ErrNegativeCycle
		}
	}
	return dist, nil
}

// BellmanFord computes single-source shortest distances from src. It
// returns ErrNegativeCycle if a negative cycle is reachable from src.
//
// It is test support, with no caller outside tests: the single-source
// reference that the root package's SolveSSSP rows are checked against,
// itself checked against FloydWarshall by this package's tests. It stays
// exported because the tests of both packages share it.
func BellmanFord(g *Digraph, src int) ([]int64, error) {
	n := g.N()
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = Inf
	}
	dist[src] = 0
	for iter := 0; iter < n-1; iter++ {
		changed := false
		for u := 0; u < n; u++ {
			if dist[u] >= Inf {
				continue
			}
			for v := 0; v < n; v++ {
				w, ok := g.Weight(u, v)
				if !ok {
					continue
				}
				if alt := SaturatingAdd(dist[u], w); alt < dist[v] {
					dist[v] = alt
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	// One more relaxation pass detects reachable negative cycles.
	for u := 0; u < n; u++ {
		if dist[u] >= Inf {
			continue
		}
		for v := 0; v < n; v++ {
			w, ok := g.Weight(u, v)
			if !ok {
				continue
			}
			if SaturatingAdd(dist[u], w) < dist[v] {
				return nil, ErrNegativeCycle
			}
		}
	}
	return dist, nil
}

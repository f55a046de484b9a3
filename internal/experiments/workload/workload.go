// Package workload defines the inputs of the E-series measurements once,
// so that every harness measures the same instance under the same name:
// cmd/bench's regression gate, the benchmarks in bench_test.go and the
// experiment suite in internal/experiments. It sits under the experiments
// because only measurement harnesses read it.
//
// Each generator is a function of its size parameters only (n, m, M, W):
// its randomness is seeded by size, never by a caller's seed, so "E2 at
// n=256" names one graph wherever it is built. Seeds given to the table's
// Run functions drive protocol randomness only. benchmark/inputs keeps a
// deliberate standard-library-only copy of the E1 generator, which its own
// test pins arc for arc to this construction.
package workload

import (
	"qclique/internal/congest"
	"qclique/internal/graph"
	"qclique/internal/matrix"
	"qclique/internal/xrand"
)

// E1W is the weight bound of the E1 table entries: arcs weigh in [-8, 8].
const E1W = 8

// E1Digraph is the E1 workload: each ordered pair is an arc with
// probability 0.4, weights lie in [-w, w], and vertex potentials rule out
// negative cycles. Experiments E1 (both sweeps) and E7, and cmd/bench's
// gossip and planner runs, solve it too.
func E1Digraph(n int, w int64) (*graph.Digraph, error) {
	return graph.RandomDigraph(n, graph.DigraphOpts{
		ArcProb: 0.4, MinWeight: -w, MaxWeight: w, NoNegativeCycles: true,
	}, xrand.New(uint64(n)))
}

// TriangleGraph is the E2 workload: a sparse positive-weight graph with
// 1+n/16 planted vertex-disjoint negative triangles. Experiments E2, E4 and
// E11 and the triangle ablations run on it.
func TriangleGraph(n int) (*graph.Undirected, error) {
	rng := xrand.New(uint64(n))
	g, err := graph.RandomUndirected(n, graph.UndirectedOpts{EdgeProb: 0.15, MinWeight: 1, MaxWeight: 40}, rng)
	if err != nil {
		return nil, err
	}
	if _, err := graph.PlantNegativeTriangles(g, 1+n/16, 30, rng.Split("p")); err != nil {
		return nil, err
	}
	return g, nil
}

// NonnegDigraph is the E4 workload: the E1 density with weights in [0, 8],
// the input class the approximate strategies accept, so exact and
// approximate pipelines can be compared on the same graph.
func NonnegDigraph(n int) (*graph.Digraph, error) {
	return graph.RandomDigraph(n, graph.DigraphOpts{
		ArcProb: 0.4, MinWeight: 0, MaxWeight: 8,
	}, xrand.New(uint64(n)))
}

// SymmetricDigraph is the E4 skeleton workload: sparse, weight-symmetric,
// nonnegative.
func SymmetricDigraph(n int) (*graph.Digraph, error) {
	return graph.RandomSymmetricDigraph(n, graph.DigraphOpts{
		ArcProb: 0.15, MinWeight: 1, MaxWeight: 20,
	}, xrand.New(uint64(n)))
}

// SearchTables is the E3 workload: m truth tables over a search space of
// the given size, each with exactly one marked element.
func SearchTables(m, size int) [][]bool {
	rng := xrand.New(uint64(m))
	tables := make([][]bool, m)
	for i := range tables {
		tables[i] = make([]bool, size)
		tables[i][rng.IntN(size)] = true
	}
	return tables
}

// HubGraph is the E5 workload: two hub edges each in n/6 negative
// triangles over positive background edges, the skewed-Γ input of the
// Proposition 1 reduction.
func HubGraph(n int) (*graph.Undirected, error) {
	return graph.HubUndirected(n, 2, n/6, xrand.New(uint64(n)))
}

// MatrixPair is the E6 workload: two n×n matrices with about 80% finite
// entries drawn uniformly from [-maxAbs, maxAbs].
func MatrixPair(n int, maxAbs int64) (a, b *matrix.Matrix) {
	rng := xrand.New(uint64(n))
	fill := func(r *xrand.Source) *matrix.Matrix {
		m := matrix.New(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if r.Bool(0.2) {
					continue
				}
				m.Set(i, j, r.Int64N(2*maxAbs+1)-maxAbs)
			}
		}
		return m
	}
	return fill(rng.SplitN("a", int(maxAbs))), fill(rng.SplitN("b", int(maxAbs)))
}

// RelayMessages is the E8 workload: random single-word messages on n nodes
// with at most k·n per source and per destination, which Lemma 1 delivers
// in 2k rounds.
func RelayMessages(n, k int) []congest.Message {
	rng := xrand.New(uint64(n))
	budget := k * n
	srcLoad := make([]int, n)
	dstLoad := make([]int, n)
	var msgs []congest.Message
	for i := 0; i < 50*n*k; i++ {
		s, d := rng.IntN(n), rng.IntN(n)
		if s == d || srcLoad[s] >= budget || dstLoad[d] >= budget {
			continue
		}
		srcLoad[s]++
		dstLoad[d]++
		msgs = append(msgs, congest.Message{Src: congest.NodeID(s), Dst: congest.NodeID(d)})
	}
	return msgs
}

// ClassGraph is the E10 workload: a dense graph with mixed-sign weights,
// so IdentifyClass sees triples in many classes.
func ClassGraph(n int) (*graph.Undirected, error) {
	return graph.RandomUndirected(n, graph.UndirectedOpts{EdgeProb: 0.5, MinWeight: -10, MaxWeight: 12}, xrand.New(uint64(n)))
}

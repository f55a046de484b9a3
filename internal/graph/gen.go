package graph

import (
	"fmt"

	"qclique/internal/xrand"
)

// DigraphOpts configures random directed-graph generation.
type DigraphOpts struct {
	// ArcProb is the independent probability of each ordered arc (u,v),
	// u != v.
	ArcProb float64
	// MinWeight and MaxWeight bound arc weights inclusively (the paper's
	// {-W,...,W} when Min=-W, Max=W).
	MinWeight, MaxWeight int64
	// NoNegativeCycles, when true, produces weights via vertex potentials
	// (w(u,v) = c(u,v) + phi(u) - phi(v) with c >= 0), which admits
	// negative arcs but provably no negative cycles — the APSP
	// precondition of Proposition 3.
	NoNegativeCycles bool
}

// RandomDigraph generates an Erdős–Rényi style weighted directed graph.
func RandomDigraph(n int, opts DigraphOpts, rng *xrand.Source) (*Digraph, error) {
	if opts.MinWeight > opts.MaxWeight {
		return nil, fmt.Errorf("graph: bad weight range [%d,%d]", opts.MinWeight, opts.MaxWeight)
	}
	g := NewDigraph(n)
	if !opts.NoNegativeCycles {
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u == v || !rng.Bool(opts.ArcProb) {
					continue
				}
				w := opts.MinWeight + rng.Int64N(opts.MaxWeight-opts.MinWeight+1)
				if err := g.SetArc(u, v, w); err != nil {
					return nil, err
				}
			}
		}
		return g, nil
	}

	// Potential-shifted weights: pick per-vertex potentials phi in
	// [Min/2, Max/2] and nonnegative costs c so that the shifted weight
	// stays inside [MinWeight, MaxWeight].
	span := opts.MaxWeight - opts.MinWeight
	half := span / 2
	phi := make([]int64, n)
	for i := range phi {
		phi[i] = rng.Int64N(half + 1)
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v || !rng.Bool(opts.ArcProb) {
				continue
			}
			// c >= 0 chosen so opts.MinWeight <= c+phi[u]-phi[v] <= opts.MaxWeight.
			shift := phi[u] - phi[v]
			lo := opts.MinWeight - shift
			if lo < 0 {
				lo = 0
			}
			hi := opts.MaxWeight - shift
			if hi < lo {
				continue // cannot place an arc within range; skip
			}
			c := lo + rng.Int64N(hi-lo+1)
			if err := g.SetArc(u, v, c+shift); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

// RandomSymmetricDigraph generates an Erdős–Rényi style weight-symmetric
// directed graph: each unordered pair {u,v} gets, with probability
// opts.ArcProb, arcs in both directions with one shared weight drawn from
// [MinWeight, MaxWeight]. It is the directed encoding of a weighted
// undirected graph — the input class of the skeleton-based (2+ε)
// approximation. NoNegativeCycles is ignored (callers wanting nonnegative
// weights set MinWeight >= 0; any negative symmetric arc is already a
// negative 2-cycle).
func RandomSymmetricDigraph(n int, opts DigraphOpts, rng *xrand.Source) (*Digraph, error) {
	if opts.MinWeight > opts.MaxWeight {
		return nil, fmt.Errorf("graph: bad weight range [%d,%d]", opts.MinWeight, opts.MaxWeight)
	}
	g := NewDigraph(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !rng.Bool(opts.ArcProb) {
				continue
			}
			w := opts.MinWeight + rng.Int64N(opts.MaxWeight-opts.MinWeight+1)
			if err := g.SetArc(u, v, w); err != nil {
				return nil, err
			}
			if err := g.SetArc(v, u, w); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

// UndirectedOpts configures random undirected-graph generation.
type UndirectedOpts struct {
	// EdgeProb is the independent probability of each unordered edge.
	EdgeProb float64
	// MinWeight and MaxWeight bound edge weights inclusively.
	MinWeight, MaxWeight int64
}

// RandomUndirected generates an Erdős–Rényi style weighted undirected graph.
func RandomUndirected(n int, opts UndirectedOpts, rng *xrand.Source) (*Undirected, error) {
	if opts.MinWeight > opts.MaxWeight {
		return nil, fmt.Errorf("graph: bad weight range [%d,%d]", opts.MinWeight, opts.MaxWeight)
	}
	g := NewUndirected(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !rng.Bool(opts.EdgeProb) {
				continue
			}
			w := opts.MinWeight + rng.Int64N(opts.MaxWeight-opts.MinWeight+1)
			if err := g.SetEdge(u, v, w); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

// PlantNegativeTriangles plants exactly count vertex-disjoint negative
// triangles into g (overwriting any existing edges among the chosen
// vertices) and returns the planted triples. Each planted triangle has edge
// weights (-3, 1, 1) scaled to stay within [-mag, mag], so its sum is
// strictly negative. It fails if g has fewer than 3*count vertices.
func PlantNegativeTriangles(g *Undirected, count int, mag int64, rng *xrand.Source) ([][3]int, error) {
	n := g.N()
	if 3*count > n {
		return nil, fmt.Errorf("graph: cannot plant %d disjoint triangles in %d vertices", count, n)
	}
	if mag < 3 {
		mag = 3
	}
	perm := rng.Perm(n)
	planted := make([][3]int, 0, count)
	for i := 0; i < count; i++ {
		a, b, c := perm[3*i], perm[3*i+1], perm[3*i+2]
		neg := -(1 + rng.Int64N(mag-2)) - 2 // in [-mag, -3]
		w1 := 1 + rng.Int64N((-neg-1)/2)    // positive, small enough
		w2 := 1 + rng.Int64N((-neg-1)/2)
		if w1+w2+neg >= 0 {
			// Defensive: force negativity.
			neg = -(w1 + w2) - 1
		}
		if err := g.SetEdge(a, b, neg); err != nil {
			return nil, err
		}
		if err := g.SetEdge(a, c, w1); err != nil {
			return nil, err
		}
		if err := g.SetEdge(b, c, w2); err != nil {
			return nil, err
		}
		planted = append(planted, [3]int{a, b, c})
	}
	return planted, nil
}

// GridDigraph builds a rows×cols grid with bidirectional arcs of uniform
// random weight in [1, maxW]; a standard road-like sparse workload.
func GridDigraph(rows, cols int, maxW int64, rng *xrand.Source) (*Digraph, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("graph: bad grid %dx%d", rows, cols)
	}
	if maxW < 1 {
		maxW = 1
	}
	g := NewDigraph(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	add := func(a, b int) error {
		w := 1 + rng.Int64N(maxW)
		if err := g.SetArc(a, b, w); err != nil {
			return err
		}
		return g.SetArc(b, a, 1+rng.Int64N(maxW))
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				if err := add(id(r, c), id(r, c+1)); err != nil {
					return nil, err
				}
			}
			if r+1 < rows {
				if err := add(id(r, c), id(r+1, c)); err != nil {
					return nil, err
				}
			}
		}
	}
	return g, nil
}

// RoadNetwork builds a two-level road-like digraph: a sparse grid of "local
// roads" plus a few random long-range "highways" with lower per-hop weight.
// All weights are positive.
func RoadNetwork(rows, cols, highways int, rng *xrand.Source) (*Digraph, error) {
	g, err := GridDigraph(rows, cols, 20, rng)
	if err != nil {
		return nil, err
	}
	n := g.N()
	for i := 0; i < highways; i++ {
		a := rng.IntN(n)
		b := rng.IntN(n)
		if a == b {
			continue
		}
		w := int64(1 + rng.IntN(5))
		if err := g.SetArc(a, b, w); err != nil {
			return nil, err
		}
		if err := g.SetArc(b, a, w); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// HubUndirected generates an undirected graph in which a few "hub" edges
// participate in many negative triangles while all other pairs participate
// in none — the skewed-Γ workload used to exercise the Proposition 1
// sampling reduction.
func HubUndirected(n, hubs, trianglesPerHub int, rng *xrand.Source) (*Undirected, error) {
	if hubs*2+trianglesPerHub > n {
		return nil, fmt.Errorf("graph: hub workload does not fit in %d vertices", n)
	}
	g := NewUndirected(n)
	// Background positive edges.
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Bool(0.2) {
				if err := g.SetEdge(u, v, 50+rng.Int64N(50)); err != nil {
					return nil, err
				}
			}
		}
	}
	perm := rng.Perm(n)
	idx := 0
	next := func() int { v := perm[idx]; idx++; return v }
	apex := make([]int, trianglesPerHub)
	for h := 0; h < hubs; h++ {
		a, b := next(), next()
		if err := g.SetEdge(a, b, -100); err != nil {
			return nil, err
		}
		for t := 0; t < trianglesPerHub; t++ {
			if h == 0 {
				apex[t] = next()
			}
			w := apex[t]
			if w == a || w == b {
				continue
			}
			if err := g.SetEdge(a, w, 10); err != nil {
				return nil, err
			}
			if err := g.SetEdge(b, w, 10); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

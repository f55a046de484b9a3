// Package graph provides the weighted-graph substrate for the APSP
// reproduction: directed graphs (the APSP input), undirected weighted graphs
// (the negative-triangle input), generators for the workloads used in the
// experiments, and brute-force reference algorithms (Floyd–Warshall,
// Bellman–Ford, exhaustive negative-triangle enumeration) that the
// distributed protocols are validated against.
//
// Weights are int64. The sentinel NoEdge marks an absent edge; Inf is the
// saturating "+infinity" used by distance computations. Both are far from
// the int64 range limits so that sums of a few of them cannot overflow.
package graph

import (
	"fmt"
	"math"
)

const (
	// Inf is the saturating positive infinity for distances. It is kept at
	// a quarter of the int64 range so that adding two finite-or-infinite
	// values never overflows.
	Inf int64 = math.MaxInt64 / 4

	// NegInf is the saturating negative infinity.
	NegInf int64 = -Inf

	// NoEdge marks an absent edge in adjacency structures.
	NoEdge int64 = Inf
)

// IsFinite reports whether w represents a finite weight (neither ±Inf nor
// NoEdge).
func IsFinite(w int64) bool { return w > NegInf && w < Inf }

// SaturatingAdd adds two extended weights, clamping at ±Inf. Inf + NegInf is
// defined as Inf (the "no path" interpretation wins), matching the min-plus
// matrix convention used throughout the repository.
func SaturatingAdd(a, b int64) int64 {
	if a >= Inf || b >= Inf {
		return Inf
	}
	if a <= NegInf || b <= NegInf {
		return NegInf
	}
	s := a + b
	if s >= Inf {
		return Inf
	}
	if s <= NegInf {
		return NegInf
	}
	return s
}

// Digraph is a dense weighted directed graph on vertices 0..n-1. The zero
// diagonal is implicit for path computations but the structure itself stores
// exactly what was added; absent arcs hold NoEdge.
type Digraph struct {
	n int
	w []int64 // row-major n×n
}

// NewDigraph returns an empty directed graph on n vertices. It panics if
// n < 0 (programming error, not runtime input).
func NewDigraph(n int) *Digraph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	w := make([]int64, n*n)
	for i := range w {
		w[i] = NoEdge
	}
	return &Digraph{n: n, w: w}
}

// N returns the number of vertices.
func (g *Digraph) N() int { return g.n }

// SetArc sets the weight of the arc u->v. Self-loops are rejected with an
// error because the APSP formulation (Section 3 of the paper) excludes them,
// and so is a weight outside the open interval (NegInf, Inf): those values
// are the sentinels (NoEdge is Inf), and sums of in-range weights saturate
// instead of overflowing.
func (g *Digraph) SetArc(u, v int, weight int64) error {
	if err := g.check(u, v); err != nil {
		return err
	}
	if u == v {
		return fmt.Errorf("graph: self-loop %d->%d not allowed", u, v)
	}
	if !IsFinite(weight) {
		return fmt.Errorf("graph: arc %d->%d weight %d outside (%d, %d)", u, v, weight, NegInf, Inf)
	}
	g.w[u*g.n+v] = weight
	return nil
}

// Weight returns the weight of arc u->v and whether the arc exists.
func (g *Digraph) Weight(u, v int) (int64, bool) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return NoEdge, false
	}
	w := g.w[u*g.n+v]
	return w, w != NoEdge
}

// ArcCount returns the number of arcs.
func (g *Digraph) ArcCount() int {
	c := 0
	for _, w := range g.w {
		if w != NoEdge {
			c++
		}
	}
	return c
}

// Row returns a copy of vertex u's outgoing weight row (NoEdge for absent
// arcs). This mirrors the CONGEST-CLIQUE input convention: node u of the
// network receives the row of the adjacency matrix corresponding to u.
func (g *Digraph) Row(u int) []int64 {
	row := make([]int64, g.n)
	copy(row, g.w[u*g.n:(u+1)*g.n])
	return row
}

// Clone returns a deep copy.
func (g *Digraph) Clone() *Digraph {
	w := make([]int64, len(g.w))
	copy(w, g.w)
	return &Digraph{n: g.n, w: w}
}

// HasNegativeArc reports whether any arc has a negative weight. The
// approximate pipelines reject such inputs: multiplicative stretch is
// meaningful for nonnegative weights only.
func (g *Digraph) HasNegativeArc() bool {
	for _, w := range g.w {
		if w != NoEdge && w < 0 {
			return true
		}
	}
	return false
}

// IsSymmetric reports whether the graph is weight-symmetric: arc (u,v)
// exists exactly when (v,u) does, with equal weight. Symmetric digraphs are
// the directed encoding of weighted undirected graphs, the input class of
// the skeleton-based approximation.
func (g *Digraph) IsSymmetric() bool {
	for u := 0; u < g.n; u++ {
		for v := u + 1; v < g.n; v++ {
			if g.w[u*g.n+v] != g.w[v*g.n+u] {
				return false
			}
		}
	}
	return true
}

// MaxAbsWeight returns the maximum absolute value among finite arc weights
// (the W of the paper), or 0 for an arcless graph.
func (g *Digraph) MaxAbsWeight() int64 {
	var m int64
	for _, w := range g.w {
		if w == NoEdge {
			continue
		}
		a := w
		if a < 0 {
			a = -a
		}
		if a > m {
			m = a
		}
	}
	return m
}

func (g *Digraph) check(u, v int) error {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return fmt.Errorf("graph: vertex out of range: (%d,%d) with n=%d", u, v, g.n)
	}
	return nil
}

// Undirected is a dense weighted undirected graph on vertices 0..n-1, the
// input type of FindEdges / FindEdgesWithPromise. Absent edges hold NoEdge.
type Undirected struct {
	n int
	w []int64 // row-major, kept symmetric
}

// NewUndirected returns an empty undirected graph on n vertices.
func NewUndirected(n int) *Undirected {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	w := make([]int64, n*n)
	for i := range w {
		w[i] = NoEdge
	}
	return &Undirected{n: n, w: w}
}

// N returns the number of vertices.
func (g *Undirected) N() int { return g.n }

// SetEdge sets the weight of edge {u,v}. Self-loops are rejected, and so is
// a weight outside the open interval (NegInf, Inf), as in Digraph.SetArc.
func (g *Undirected) SetEdge(u, v int, weight int64) error {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return fmt.Errorf("graph: vertex out of range: (%d,%d) with n=%d", u, v, g.n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at %d not allowed", u)
	}
	if !IsFinite(weight) {
		return fmt.Errorf("graph: edge {%d,%d} weight %d outside (%d, %d)", u, v, weight, NegInf, Inf)
	}
	g.w[u*g.n+v] = weight
	g.w[v*g.n+u] = weight
	return nil
}

// SetBipartiteBlock overwrites every edge between the vertex ranges
// [u0, u0+nu) and [v0, v0+nv) from the row-major nu×nv weight block w,
// keeping the adjacency symmetric. A NoEdge entry deletes the edge. The two
// ranges must be disjoint (the block would otherwise write a self-loop).
//
// This is the bulk-mutation path behind incremental reduction instances:
// the Proposition 2 binary search rewrites only the threshold leg of the
// tripartite construction between FindEdges calls, so rebuilding the whole
// 3n-vertex graph per step is replaced by one O(nu·nv) in-place sweep.
func (g *Undirected) SetBipartiteBlock(u0, nu, v0, nv int, w []int64) error {
	if nu < 0 || nv < 0 || u0 < 0 || v0 < 0 || u0+nu > g.n || v0+nv > g.n {
		return fmt.Errorf("graph: block [%d,%d)×[%d,%d) out of range for n=%d", u0, u0+nu, v0, v0+nv, g.n)
	}
	if u0 < v0+nv && v0 < u0+nu && nu > 0 && nv > 0 {
		return fmt.Errorf("graph: block ranges [%d,%d) and [%d,%d) overlap", u0, u0+nu, v0, v0+nv)
	}
	if len(w) != nu*nv {
		return fmt.Errorf("graph: block has %d weights, want %d", len(w), nu*nv)
	}
	for i := 0; i < nu; i++ {
		u := u0 + i
		row := g.w[u*g.n:]
		wrow := w[i*nv : (i+1)*nv]
		for j := 0; j < nv; j++ {
			v := v0 + j
			row[v] = wrow[j]
			g.w[v*g.n+u] = wrow[j]
		}
	}
	return nil
}

// Clear removes every edge, recycling the adjacency storage: the
// incremental reduction instances rebuild their static legs in place across
// repeated distance products instead of allocating a fresh graph.
func (g *Undirected) Clear() {
	for i := range g.w {
		g.w[i] = NoEdge
	}
}

// Weight returns the weight of edge {u,v} and whether it exists.
func (g *Undirected) Weight(u, v int) (int64, bool) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n || u == v {
		return NoEdge, false
	}
	w := g.w[u*g.n+v]
	return w, w != NoEdge
}

// HasEdge reports whether edge {u,v} exists.
func (g *Undirected) HasEdge(u, v int) bool {
	_, ok := g.Weight(u, v)
	return ok
}

// Row returns a copy of vertex u's weight row (NoEdge for absent edges),
// matching the distributed input convention: node u receives N_G(u) with
// weights.
func (g *Undirected) Row(u int) []int64 {
	row := make([]int64, g.n)
	copy(row, g.w[u*g.n:(u+1)*g.n])
	return row
}

// RowView returns vertex u's weight row as a slice aliasing the graph's
// backing storage (NoEdge for absent edges, including the diagonal). It is
// the allocation-free companion of Row for internal hot paths — the
// triangle-placement leg scans read whole rows per candidate pair — and
// must not be mutated or retained across writes to the graph.
func (g *Undirected) RowView(u int) []int64 {
	if u < 0 || u >= g.n {
		panic("graph: RowView index out of range")
	}
	return g.w[u*g.n : (u+1)*g.n : (u+1)*g.n]
}

// Clone returns a deep copy.
func (g *Undirected) Clone() *Undirected {
	w := make([]int64, len(g.w))
	copy(w, g.w)
	return &Undirected{n: g.n, w: w}
}

// SubgraphInto writes the subgraph into dst (which must have the same
// vertex count), overwriting it entirely — including deleting edges the
// predicate rejects — so a workspace graph can be reused across repeated
// subgraph extractions without clearing.
func (g *Undirected) SubgraphInto(dst *Undirected, keep func(u, v int) bool) error {
	if dst.n != g.n {
		return fmt.Errorf("graph: SubgraphInto destination has %d vertices, want %d", dst.n, g.n)
	}
	for i := range dst.w {
		dst.w[i] = NoEdge
	}
	g.subgraphInto(dst, keep)
	return nil
}

func (g *Undirected) subgraphInto(dst *Undirected, keep func(u, v int) bool) {
	for u := 0; u < g.n; u++ {
		for v := u + 1; v < g.n; v++ {
			if w := g.w[u*g.n+v]; w != NoEdge && keep(u, v) {
				dst.w[u*g.n+v] = w
				dst.w[v*g.n+u] = w
			}
		}
	}
}

// Pair is an unordered vertex pair {U,V}, always normalized to U < V. It is
// the element type of the sets S and P(u,v) in the paper.
type Pair struct {
	U, V int
}

// MakePair normalizes (a,b) into a Pair with U < V. It panics if a == b,
// since P(V) excludes diagonal pairs.
func MakePair(a, b int) Pair {
	switch {
	case a < b:
		return Pair{U: a, V: b}
	case b < a:
		return Pair{U: b, V: a}
	default:
		panic("graph: pair with equal endpoints")
	}
}

// Contains reports whether the pair includes vertex x.
func (p Pair) Contains(x int) bool { return p.U == x || p.V == x }

// String implements fmt.Stringer.
func (p Pair) String() string { return fmt.Sprintf("{%d,%d}", p.U, p.V) }

package graph

// This file implements the centralized negative-triangle primitives of
// Section 3: Definition 1 (negative triangle), Γ(u,v) counting, and the
// brute-force FindEdges reference against which the distributed protocols
// are validated.

// Triangle is an unordered vertex triple, normalized A < B < C.
type Triangle struct {
	A, B, C int
}

// IsNegativeTriangle reports whether {u,v,w} forms a negative triangle in g:
// all three edges exist and their weights sum to a negative value
// (Definition 1).
func IsNegativeTriangle(g *Undirected, u, v, w int) bool {
	wuv, ok := g.Weight(u, v)
	if !ok {
		return false
	}
	wuw, ok := g.Weight(u, w)
	if !ok {
		return false
	}
	wvw, ok := g.Weight(v, w)
	if !ok {
		return false
	}
	return SaturatingAdd(SaturatingAdd(wuv, wuw), wvw) < 0
}

// ListNegativeTriangles enumerates every negative triangle of g by brute
// force in O(n^3) time.
func ListNegativeTriangles(g *Undirected) []Triangle {
	n := g.N()
	var out []Triangle
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if !g.HasEdge(a, b) {
				continue
			}
			for c := b + 1; c < n; c++ {
				if IsNegativeTriangle(g, a, b, c) {
					out = append(out, Triangle{A: a, B: b, C: c})
				}
			}
		}
	}
	return out
}

// GammaCounts returns the full Γ map over all pairs with Γ(u,v) > 0.
func GammaCounts(g *Undirected) map[Pair]int {
	out := make(map[Pair]int)
	for _, t := range ListNegativeTriangles(g) {
		out[MakePair(t.A, t.B)]++
		out[MakePair(t.A, t.C)]++
		out[MakePair(t.B, t.C)]++
	}
	return out
}

// MaxGamma returns the maximum Γ(u,v) over all pairs, 0 if there are no
// negative triangles.
func MaxGamma(g *Undirected) int {
	m := 0
	for _, c := range GammaCounts(g) {
		if c > m {
			m = c
		}
	}
	return m
}

// EdgesInNegativeTriangles is the brute-force FindEdges reference: the set
// of all pairs {u,v} with Γ(u,v) > 0, returned as a map for O(1) membership
// tests.
func EdgesInNegativeTriangles(g *Undirected) map[Pair]bool {
	out := make(map[Pair]bool)
	for p := range GammaCounts(g) {
		out[p] = true
	}
	return out
}

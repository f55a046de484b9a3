// Package matrix implements min-plus (tropical) semiring matrices over
// ℤ ∪ {−∞, +∞}, the algebraic substrate of the paper's reduction chain:
// the distance product (Definition 2) and APSP via repeated squaring
// (Proposition 3), whose fixed point the gossip baseline computes in one
// Floyd–Warshall pass (SquaringFixedPoint).
//
// Entries use the same saturating extended integers as package graph:
// graph.Inf is +∞ ("no path"), graph.NegInf is −∞. The distance product is
// C[i,j] = min_k (A[i,k] + B[k,j]) with the convention +∞ + x = +∞ and
// −∞ + (finite or −∞) = −∞.
package matrix

import (
	"fmt"
	"sort"
	"strings"

	"qclique/internal/graph"
	"qclique/internal/par"
)

// Matrix is a dense square matrix of extended integers.
type Matrix struct {
	n int
	a []int64 // row-major
}

// New returns an n×n matrix with every entry +∞.
func New(n int) *Matrix {
	if n < 0 {
		panic("matrix: negative dimension")
	}
	a := make([]int64, n*n)
	for i := range a {
		a[i] = graph.Inf
	}
	return &Matrix{n: n, a: a}
}

// FromRows builds a matrix from row-major data. It returns an error if rows
// are ragged or empty-but-nonzero.
func FromRows(rows [][]int64) (*Matrix, error) {
	n := len(rows)
	m := New(n)
	for i, r := range rows {
		if len(r) != n {
			return nil, fmt.Errorf("matrix: row %d has %d entries, want %d", i, len(r), n)
		}
		copy(m.a[i*n:(i+1)*n], r)
	}
	return m, nil
}

// N returns the dimension.
func (m *Matrix) N() int { return m.n }

// At returns entry (i, j). It panics on out-of-range indices (programming
// error).
func (m *Matrix) At(i, j int) int64 {
	m.bounds(i, j)
	return m.a[i*m.n+j]
}

// Set writes entry (i, j), clamping into [−∞, +∞].
func (m *Matrix) Set(i, j int, v int64) {
	m.bounds(i, j)
	if v > graph.Inf {
		v = graph.Inf
	}
	if v < graph.NegInf {
		v = graph.NegInf
	}
	m.a[i*m.n+j] = v
}

// Row returns a copy of row i.
func (m *Matrix) Row(i int) []int64 {
	m.bounds(i, 0)
	out := make([]int64, m.n)
	copy(out, m.a[i*m.n:(i+1)*m.n])
	return out
}

// RowView returns row i as a slice aliasing the matrix's backing storage:
// writes through the view mutate the matrix, and the view is invalidated by
// anything that replaces the storage. It is the allocation-free companion of
// Row for internal hot paths; public results should keep using Row, whose
// copy detaches the caller from cached matrices.
func (m *Matrix) RowView(i int) []int64 {
	m.bounds(i, 0)
	return m.a[i*m.n : (i+1)*m.n : (i+1)*m.n]
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	a := make([]int64, len(m.a))
	copy(a, m.a)
	return &Matrix{n: m.n, a: a}
}

// Fill sets every entry to v (clamped into [−∞, +∞]).
func (m *Matrix) Fill(v int64) {
	if v > graph.Inf {
		v = graph.Inf
	}
	if v < graph.NegInf {
		v = graph.NegInf
	}
	for i := range m.a {
		m.a[i] = v
	}
}

// Equal reports whether two matrices have the same dimension and entries.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.n != o.n {
		return false
	}
	for i, v := range m.a {
		if o.a[i] != v {
			return false
		}
	}
	return true
}

// MaxAbsFinite returns the largest absolute value among finite entries
// (the M of Proposition 2), or 0 if no entry is finite.
func (m *Matrix) MaxAbsFinite() int64 {
	var mx int64
	for _, v := range m.a {
		if !graph.IsFinite(v) {
			continue
		}
		if v < 0 {
			v = -v
		}
		if v > mx {
			mx = v
		}
	}
	return mx
}

// String renders the matrix with "inf"/"-inf" for the sentinels; intended
// for small matrices in tests and examples.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.n; i++ {
		for j := 0; j < m.n; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			switch v := m.a[i*m.n+j]; {
			case v >= graph.Inf:
				b.WriteString("inf")
			case v <= graph.NegInf:
				b.WriteString("-inf")
			default:
				fmt.Fprintf(&b, "%d", v)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func (m *Matrix) bounds(i, j int) {
	if i < 0 || i >= m.n || j < 0 || j >= m.n {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of range for n=%d", i, j, m.n))
	}
}

// DistanceProduct computes A ⋆ B (Definition 2) by the direct cubic
// algorithm. It is the centralized reference implementation; the
// distributed pipelines are validated against it. It returns an error on a
// dimension mismatch.
func DistanceProduct(a, b *Matrix) (*Matrix, error) {
	return DistanceProductPar(a, b, 1)
}

// DistanceProductPar is DistanceProduct with the row loop split across a
// bounded worker pool (the per-node local min-plus work of distprod's
// gossip product: node i computes row i). Rows are written to disjoint
// slices of the output, so the result is bit-identical for every worker
// count; workers <= 0 selects GOMAXPROCS.
func DistanceProductPar(a, b *Matrix, workers int) (*Matrix, error) {
	c := New(a.n)
	if err := MulMinPlusInto(c, a, b, workers); err != nil {
		return nil, err
	}
	return c, nil
}

// MulMinPlusInto computes dst = A ⋆ B in place: dst is overwritten entirely
// (every entry reset to +∞ before accumulation), so a workspace matrix can
// be reused across repeated squaring iterations without clearing. dst must
// not alias a or b (rows of dst are rewritten while rows of a and b are
// still being read).
//
// Execution dispatches to one of the blocked kernels in kernel.go: the
// compacted int32 kernel when every entry provably fits (no −∞ and the
// finite-sum bound clears inf32 headroom — see mulMinPlusSelect32), the
// saturating int64 kernel otherwise. Both are cache-tiled and run row
// blocks on the bounded worker pool; the result is bit-identical between
// the two kernels and for every worker count.
func MulMinPlusInto(dst, a, b *Matrix, workers int) error {
	if a.n != b.n {
		return fmt.Errorf("matrix: dimension mismatch %d vs %d", a.n, b.n)
	}
	if dst.n != a.n {
		return fmt.Errorf("matrix: destination is %d×%d, want %d×%d", dst.n, dst.n, a.n, a.n)
	}
	if dst == a || dst == b {
		return fmt.Errorf("matrix: MulMinPlusInto destination aliases an input")
	}
	w := par.Workers(workers)
	if maxSum, ok := mulMinPlusSelect32(a, b); ok {
		mulMinPlusBlocked32(dst, a, b, maxSum, w)
	} else {
		mulMinPlusBlocked64(dst, a, b, w)
	}
	return nil
}

// FromDigraph encodes a directed graph as the matrix A_G of Section 3:
// 0 on the diagonal, w(i,j) for arcs, +∞ otherwise.
func FromDigraph(g *graph.Digraph) *Matrix {
	n := g.N()
	m := New(n)
	for i := 0; i < n; i++ {
		m.a[i*n+i] = 0
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if w, ok := g.Weight(i, j); ok {
				m.a[i*n+j] = w
			}
		}
	}
	return m
}

// Product is the function signature of a distance-product implementation;
// APSPBySquaring is parameterized over it so the same Proposition 3 driver
// runs on the reference product, the distributed gather product, or the
// FindEdges-based product of Proposition 2.
type Product func(a, b *Matrix) (*Matrix, error)

// SquaringStats reports what a run of APSPBySquaring or APSPBySquaringInto
// did.
type SquaringStats struct {
	// Products is the number of distance products performed: exactly
	// ⌈log₂ n⌉ (Proposition 3) for APSPBySquaring, at most that for
	// APSPBySquaringInto, which stops at the chain's fixed point.
	Products int
}

// SquaringBudget is the Proposition 3 product budget for an n-vertex
// instance: squarings until the walk-length budget 2^k >= n, i.e.
// ⌈log₂ n⌉ for n ≥ 2 and 0 for n ≤ 1. It is the single source of the
// stage counts the exact and approximate chains declare up front.
func SquaringBudget(n int) int {
	k := 0
	for length := 1; length < n; length *= 2 {
		k++
	}
	return k
}

// APSPBySquaring computes the n-th min-plus power of A_G by repeated
// squaring (Proposition 3): after ⌈log₂ n⌉ squarings, A^(2^k) with 2^k ≥ n
// holds all pairwise distances. The walk-length budget is n rather than n−1
// so that a negative cycle (which needs up to n hops to close) surfaces as a
// negative diagonal entry. The caller supplies the distance-product
// implementation. The input must have a zero diagonal (it is A_G).
func APSPBySquaring(ag *Matrix, prod Product) (*Matrix, SquaringStats, error) {
	var stats SquaringStats
	n := ag.n
	cur := ag.Clone()
	if n <= 1 {
		return cur, stats, nil
	}
	// Squarings until walk-length budget 2^k >= n.
	for length := 1; length < n; length *= 2 {
		next, err := prod(cur, cur)
		if err != nil {
			return nil, stats, fmt.Errorf("squaring %d: %w", stats.Products, err)
		}
		stats.Products++
		cur = next
	}
	return cur, stats, nil
}

// ProductInto is the in-place counterpart of Product: implementations write
// A ⋆ B into dst (overwriting it entirely) instead of allocating a result.
type ProductInto func(dst, a, b *Matrix) error

// APSPBySquaringInto is APSPBySquaring over an in-place product that stops
// at the chain's fixed point. The chain ping-pongs between two matrices it
// allocates once, so its squarings allocate no matrix storage. It breaks
// out after the first squaring that returns its input unchanged: once
// A⋆A = A every later squaring is the identity, so for a deterministic prod
// the result is bit-identical to APSPBySquaring's for every input (negative
// cycles, −∞ and saturating weights included). Products is the index of
// that squaring, or the full ⌈log₂ n⌉ budget when no squaring within it was
// a no-op. For inputs with no negative cycle, SquaringFixedPoint returns
// the same result and Products in one Floyd–Warshall pass; the gossip
// strategy runs this chain only on the inputs that pass declines.
func APSPBySquaringInto(ag *Matrix, prod ProductInto) (*Matrix, SquaringStats, error) {
	var stats SquaringStats
	n := ag.n
	cur := ag.Clone()
	if n <= 1 {
		return cur, stats, nil
	}
	next := New(n)
	for length := 1; length < n; length *= 2 {
		if err := prod(next, cur, cur); err != nil {
			return nil, stats, fmt.Errorf("squaring %d: %w", stats.Products, err)
		}
		stats.Products++
		cur, next = next, cur
		if cur.Equal(next) {
			break
		}
	}
	return cur, stats, nil
}

// SnapUpInto writes src into dst with every finite entry rounded up to the
// smallest ladder value that is >= it; +Inf entries pass through untouched.
// The ladder must be sorted in strictly increasing order and its last value
// must cover every finite entry of src. Negative entries are rejected —
// multiplicative rounding is defined for nonnegative weights only.
//
// It is test support, with no caller outside tests: the reference the
// (1+ε)-approximate distance product is checked against. A product whose
// outputs are snapped onto a geometric value ladder equals the exact
// product followed by SnapUpInto, and searching the ladder keeps the
// per-entry binary search logarithmic in the ladder length instead of in
// the weight bound; distprod's grid tests pin the two formulations to each
// other bit for bit, and this package's tests pin SnapUpInto itself. It
// stays exported because the tests of both packages share it.
func SnapUpInto(dst, src *Matrix, ladder []int64) error {
	if dst.n != src.n {
		return fmt.Errorf("matrix: SnapUpInto dimension mismatch %d vs %d", dst.n, src.n)
	}
	if len(ladder) == 0 {
		return fmt.Errorf("matrix: empty ladder")
	}
	for i, v := range src.a {
		if v >= graph.Inf {
			dst.a[i] = graph.Inf
			continue
		}
		if v < 0 {
			return fmt.Errorf("matrix: SnapUpInto on negative entry %d", v)
		}
		if v > ladder[len(ladder)-1] {
			return fmt.Errorf("matrix: entry %d exceeds ladder top %d", v, ladder[len(ladder)-1])
		}
		dst.a[i] = ladder[sort.Search(len(ladder), func(i int) bool { return ladder[i] >= v })]
	}
	return nil
}

// HasNegativeDiagonal reports whether any diagonal entry is negative, the
// matrix-level signature of a negative cycle after APSPBySquaring.
func (m *Matrix) HasNegativeDiagonal() bool {
	for i := 0; i < m.n; i++ {
		if m.a[i*m.n+i] < 0 {
			return true
		}
	}
	return false
}

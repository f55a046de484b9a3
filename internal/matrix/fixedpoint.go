package matrix

import (
	"math/bits"

	"qclique/internal/graph"
	"qclique/internal/par"
)

// Packed (distance, hops) entries of SquaringFixedPoint. An entry is
// dist·H + hops with H = 2^shift a power of two above 2(n−1), so integer
// order on packed entries is lexicographic order on (dist, hops), and the
// sum of two packed entries whose hop fields add up to less than H packs
// the sum of their distances and the sum of their hops. Unreachable pairs
// hold fwInf; every genuine entry lies in (−fwFinite, fwFinite) and every
// entry derived from fwInf in [fwFinite, fwInf] (see fwLimit).
const (
	fwInf    = int64(1) << 62
	fwFinite = int64(1) << 61
)

// fwLimit is the largest |weight| SquaringFixedPoint accepts for an n-vertex
// input packed with the given shift. An arc packs to at most
// U = (|w|+1)·H ≤ 2⁵⁹/n in magnitude, and every sum the pass forms is two
// simple paths (2(n−1) arcs), so a genuine value stays below 2⁶⁰ < fwFinite,
// an fwInf-derived one (fwInf plus at most 2(n−1) genuine arcs) stays above
// 2⁶² − 2⁶⁰ > fwFinite, and a leg below fwFinite plus any entry up to fwInf
// stays below 2⁶³. The bound is computed by division: a product of the
// weight with n·H wraps for weights near graph.Inf.
func fwLimit(n int, shift uint) int64 {
	return int64(1)<<59/(int64(n)<<shift) - 1
}

// SquaringFixedPoint returns what APSPBySquaringInto returns for an A_G
// with no negative cycle, the chain's fixed point and the index of the
// squaring that reaches it, without running the chain: one blocked
// Floyd–Warshall pass over packed (distance, hops) entries yields every
// pair's distance and the fewest hops among its shortest paths. With h the
// largest of those hop counts, A^(2^k) holds every distance exactly from
// k = ⌈log₂ h⌉ on, so the chain's first squaring that returns its input
// unchanged is the next one: Products = min(⌈log₂ h⌉ + 1, SquaringBudget(n)),
// which is 1 when h ≤ 1.
//
// ok is false, and the caller should run the chain, for every input the
// pass does not answer: n ≤ 1, a nonzero diagonal entry, a −∞ entry, a
// finite |entry| above fwLimit (a bound far below the weights whose sums
// saturate in the chain, so every such input is declined), or a negative
// cycle. checkpoint runs before each block of pivots; its error
// ends the pass and is returned with no matrix. The result is bit-identical
// for every worker count; workers <= 0 selects GOMAXPROCS.
func SquaringFixedPoint(ag *Matrix, workers int, checkpoint func() error) (*Matrix, SquaringStats, bool, error) {
	n := ag.n
	if n <= 1 {
		return nil, SquaringStats{}, false, nil
	}
	shift := uint(bits.Len(uint(2 * (n - 1))))
	d, ok := packHops(ag, shift)
	if !ok {
		return nil, SquaringStats{}, false, nil
	}
	w := par.Workers(workers)
	blocks := (n + tileK - 1) / tileK
	var k0, k1 int
	finishRows := func(bi int) {
		if i0 := bi * tileK; i0 != k0 {
			fwRowBlock(d, n, i0, min(i0+tileK, n), k0, k1)
		}
	}
	for kb := 0; kb < blocks; kb++ {
		if err := checkpoint(); err != nil {
			return nil, SquaringStats{}, false, err
		}
		k0, k1 = kb*tileK, min(kb*tileK+tileK, n)
		if !fwDiagonal(d, n, k0, k1) {
			return nil, SquaringStats{}, false, nil
		}
		fwRowPanel(d, n, k0, k1)
		par.For(w, blocks, finishRows)
	}
	h := unpackHops(d, shift)
	products := 1
	for 1<<(products-1) < h {
		products++
	}
	return &Matrix{n: n, a: d}, SquaringStats{Products: min(products, SquaringBudget(n))}, true, nil
}

// packHops packs A_G into one fresh n² buffer: 0 on the diagonal, w·H + 1
// for an arc, fwInf for +∞. ok is false on a nonzero diagonal entry, a −∞
// entry or a finite |entry| above fwLimit.
func packHops(ag *Matrix, shift uint) ([]int64, bool) {
	n := ag.n
	limit := fwLimit(n, shift)
	d := make([]int64, n*n)
	for i := 0; i < n; i++ {
		for j, v := range ag.a[i*n : (i+1)*n] {
			switch {
			case i == j:
				if v != 0 {
					return nil, false
				}
			case v >= graph.Inf:
				d[i*n+j] = fwInf
			case v < -limit || v > limit:
				return nil, false
			default:
				d[i*n+j] = v<<shift + 1
			}
		}
	}
	return d, true
}

// unpackHops rewrites the packed entries in place as distances (graph.Inf
// for unreachable pairs) and returns the largest hop field among them.
func unpackHops(d []int64, shift uint) int {
	hopMask := int64(1)<<shift - 1
	var h int64
	for i, v := range d {
		if v >= fwFinite {
			d[i] = graph.Inf
			continue
		}
		h = max(h, v&hopMask)
		d[i] = v >> shift
	}
	return int(h)
}

// The blocked pass, per block of pivots [k0, k1): the diagonal block runs
// plain Floyd–Warshall over its own pivots, then the row panel
// [k0,k1)×(rest) relaxes through the finished diagonal block, and then each
// other row block, on the pool, relaxes its column-panel block the same
// way and takes C = min(C, column panel ⋆ row panel) on the rest of its
// rows. After the block every entry holds its least path through the
// pivots below k1, exactly as after those pivots of the unblocked loop.
//
// No hop sum carries into the distance field. With no negative cycle among
// the pivots so far, an entry's least path through them is simple (a cycle
// adds ≥ 0 weight and > 0 hops, so it never wins the lexicographic
// minimum), and each phase reads as legs only entries already final for
// the pivots it relaxes through: the diagonal block before pivot k reads
// its own row and column k, the panels read the finished diagonal block,
// and the last phase reads the finished panels. So every stored value is
// one simple path or the sum of two, with at most 2(n−1) < H hops.
// fwDiagonal checks each pivot's own diagonal entry before relaxing
// through it; a negative one is a negative cycle whose largest vertex is
// that pivot, the first such cycle the pass can meet, so it stops there,
// before any leg reads a value outside those bounds.

// fwDiagonal runs Floyd–Warshall on the diagonal block [k0,k1)² over its
// own pivots. It returns false on a negative cycle.
func fwDiagonal(d []int64, n, k0, k1 int) bool {
	for k := k0; k < k1; k++ {
		if d[k*n+k] < 0 {
			return false
		}
		for i := k0; i < k1; i++ {
			if dik := d[i*n+k]; dik < fwFinite {
				relax64(d[i*n+k0:i*n+k1], d[k*n+k0:k*n+k1], dik)
			}
		}
	}
	return true
}

// fwRowPanel relaxes the row panel, rows [k0,k1) outside columns [k0,k1),
// through the pivots of the finished diagonal block, in pivot order.
func fwRowPanel(d []int64, n, k0, k1 int) {
	for k := k0; k < k1; k++ {
		for i := k0; i < k1; i++ {
			if dik := d[i*n+k]; dik < fwFinite {
				relax64(d[i*n:i*n+k0], d[k*n:k*n+k0], dik)
				relax64(d[i*n+k1:i*n+n], d[k*n+k1:k*n+n], dik)
			}
		}
	}
}

// fwRowBlock finishes rows [i0,i1), outside the pivots' rows, for the
// pivots [k0,k1). Its column-panel block relaxes through the finished
// diagonal block in pivot order; then every other entry of its rows takes
// the min over the pivots of column panel + row panel. Those terms come
// from finished panels that no row block writes, so their order does not
// matter, row blocks are independent, and the loop is the product
// kernel's: per output row, gather the finite legs of the column panel,
// then fold four row-panel rows at a time into each column tile.
func fwRowBlock(d []int64, n, i0, i1, k0, k1 int) {
	for k := k0; k < k1; k++ {
		for i := i0; i < i1; i++ {
			if dik := d[i*n+k]; dik < fwFinite {
				relax64(d[i*n+k0:i*n+k1], d[k*n+k0:k*n+k1], dik)
			}
		}
	}
	for _, cols := range [2][2]int{{0, k0}, {k1, n}} {
		for j0 := cols[0]; j0 < cols[1]; j0 += tileJ {
			j1 := min(j0+tileJ, cols[1])
			for i := i0; i < i1; i++ {
				rowC := d[i*n+j0 : i*n+j1]
				var legA [tileK]int64
				var offB [tileK]int
				m := 0
				for kk, dik := range d[i*n+k0 : i*n+k1] {
					if dik < fwFinite {
						legA[m], offB[m] = dik, (k0+kk)*n
						m++
					}
				}
				q := 0
				for ; q+4 <= m; q += 4 {
					relax64x4(rowC,
						d[offB[q]+j0:offB[q]+j1], d[offB[q+1]+j0:offB[q+1]+j1],
						d[offB[q+2]+j0:offB[q+2]+j1], d[offB[q+3]+j0:offB[q+3]+j1],
						legA[q], legA[q+1], legA[q+2], legA[q+3])
				}
				for ; q < m; q++ {
					relax64(rowC, d[offB[q]+j0:offB[q]+j1], legA[q])
				}
			}
		}
	}
}

// relax64 folds one row into an output row: rowC[j] = min(rowC[j], a + rowB[j])
// for a genuine packed leg a.
func relax64(rowC, rowB []int64, a int64) {
	rowB = rowB[:len(rowC)]
	for j, c := range rowC {
		rowC[j] = min(c, a+rowB[j])
	}
}

// relax64x4 folds four rows into an output row in one pass:
// rowC[j] = min(rowC[j], a0+b0[j], a1+b1[j], a2+b2[j], a3+b3[j]), for
// genuine packed legs a0…a3.
func relax64x4(rowC, b0, b1, b2, b3 []int64, a0, a1, a2, a3 int64) {
	b0, b1, b2, b3 = b0[:len(rowC)], b1[:len(rowC)], b2[:len(rowC)], b3[:len(rowC)]
	for j, c := range rowC {
		rowC[j] = min(c, a0+b0[j], a1+b1[j], a2+b2[j], a3+b3[j])
	}
}

package matrix

import (
	"qclique/internal/graph"
	"qclique/internal/par"
)

// Blocked min-plus kernels. The naive i-k-j product streams all of B from
// memory once per output row (n³ words of B traffic); the kernels here tile
// the k and j loops and process rows in blocks, so a tileK×tileJ panel of B
// is loaded once and reused across every row of the block. Tiles are sized
// so an int64 B panel (tileK·tileJ·8 B = 32 KB) fits a typical L1 data
// cache, with the int32 panel at half that. Row blocks are also the unit of
// parallel work: each block is claimed whole by one pool executor, so
// output cache lines are written by a single worker (no false sharing).
//
// Reordering the k loop into tiles is exact, not approximate: min over
// integers is associative and commutative, and each (i,k,j) term has the
// same value in any order, so the blocked results are bit-identical to the
// reference product for every tile size and worker count.
const (
	rowBlock = 32
	tileK    = 32
	tileJ    = 128
)

// inf32 is the +∞ sentinel of the compacted kernel. It is chosen far above
// any value the selection test admits (see mulMinPlusSelect32), so sums
// involving a compacted +∞ stay strictly above every genuine finite sum
// and decompact back to graph.Inf.
const inf32 = int32(1) << 30

// scanCompact reports the largest absolute finite entry of m and whether m
// is eligible for the compacted kernel (no −∞ entries; −∞ propagation needs
// the saturating int64 path).
func scanCompact(m *Matrix) (maxAbs int64, ok bool) {
	for _, v := range m.a {
		if v >= graph.Inf {
			continue
		}
		if v <= graph.NegInf {
			return 0, false
		}
		if v < 0 {
			v = -v
		}
		if v > maxAbs {
			maxAbs = v
		}
	}
	return maxAbs, true
}

// mulMinPlusSelect32 decides whether A ⋆ B can run in the int32 kernel and
// returns the finite-sum bound M = maxA+maxB used to decompact the result.
// The requirement is inf32 > 2·maxA + maxB: every genuine sum lies in
// [−M, M], every sum involving a compacted +∞ leg lies at or above
// inf32 − maxA > M, and the largest possible sum maxA + inf32 < 2³¹ cannot
// overflow int32 — so entries ≤ M decompact verbatim and entries > M are
// provably +∞.
func mulMinPlusSelect32(a, b *Matrix) (maxSum int64, ok bool) {
	maxA, okA := scanCompact(a)
	if !okA {
		return 0, false
	}
	maxB, okB := maxA, true
	if b != a {
		maxB, okB = scanCompact(b)
	}
	if !okB || 2*maxA+maxB >= int64(inf32) {
		return 0, false
	}
	return maxA + maxB, true
}

// compact writes src into dst with +∞ mapped to inf32. Callers guarantee
// (via scanCompact) that every other entry fits int32.
func compact(dst []int32, src []int64) {
	for i, v := range src {
		if v >= graph.Inf {
			dst[i] = inf32
		} else {
			dst[i] = int32(v)
		}
	}
}

// mulMinPlusBlocked64 is the blocked kernel over the saturating int64
// representation; it handles the full extended-integer semantics including
// −∞ propagation.
func mulMinPlusBlocked64(dst, a, b *Matrix, workers int) {
	n := a.n
	blocks := (n + rowBlock - 1) / rowBlock
	par.For(workers, blocks, func(bi int) {
		i0 := bi * rowBlock
		i1 := min(i0+rowBlock, n)
		for i := i0; i < i1; i++ {
			rowC := dst.a[i*n : (i+1)*n]
			for j := range rowC {
				rowC[j] = graph.Inf
			}
		}
		for k0 := 0; k0 < n; k0 += tileK {
			k1 := min(k0+tileK, n)
			for j0 := 0; j0 < n; j0 += tileJ {
				j1 := min(j0+tileJ, n)
				for i := i0; i < i1; i++ {
					rowA := a.a[i*n+k0 : i*n+k1]
					rowC := dst.a[i*n+j0 : i*n+j1]
					for kk, aik := range rowA {
						if aik >= graph.Inf {
							continue
						}
						k := k0 + kk
						rowB := b.a[k*n+j0 : k*n+j1]
						for j, bkj := range rowB {
							if s := graph.SaturatingAdd(aik, bkj); s < rowC[j] {
								rowC[j] = s
							}
						}
					}
				}
			}
		}
	})
}

// relax32 folds one k-row of B into an output tile row:
// rowC[j] = min(rowC[j], aik + rowB[j]), for a finite (non-inf32) aik.
func relax32(rowC, rowB []int32, aik int32) {
	rowB = rowB[:len(rowC)]
	for j, c := range rowC {
		rowC[j] = min(c, aik+rowB[j])
	}
}

// relax32x4 folds four k-rows of B into an output tile row in one pass:
// rowC[j] = min(rowC[j], a0+b0[j], a1+b1[j], a2+b2[j], a3+b3[j]), for
// finite (non-inf32) a0…a3.
func relax32x4(rowC, b0, b1, b2, b3 []int32, a0, a1, a2, a3 int32) {
	b0, b1, b2, b3 = b0[:len(rowC)], b1[:len(rowC)], b2[:len(rowC)], b3[:len(rowC)]
	for j, c := range rowC {
		rowC[j] = min(c, a0+b0[j], a1+b1[j], a2+b2[j], a3+b3[j])
	}
}

// mulMinPlusBlocked32 is the compacted kernel: inputs are narrowed to
// int32, the inner loop is a plain add-and-min (no saturation branches,
// half the memory traffic of the int64 kernel), and the result is widened
// back with entries above maxSum restored to +∞.
//
// The inner loop is register-blocked over k: each pass over an output tile
// row folds in four k-rows of B, so C is loaded and stored once per four
// terms. Only the finite entries of A's k-tile row are folded (they are
// gathered first, which is also the ∞-skip), so no group holds an inf32
// leg and no sum can overflow int32. min is exact, so the fold order
// changes no result bit.
//
// The compacted operands and the int32 result are allocated per product
// and die with it: a product's O(n³) work dwarfs the O(n²) allocation, and
// gossip's exact solves reach this kernel only on the inputs its one-pass
// fixed point (SquaringFixedPoint) declines.
func mulMinPlusBlocked32(dst, a, b *Matrix, maxSum int64, workers int) {
	n := a.n
	a32 := make([]int32, n*n)
	compact(a32, a.a)
	b32 := a32
	if b != a {
		b32 = make([]int32, n*n)
		compact(b32, b.a)
	}
	c32 := make([]int32, n*n)
	m32 := int32(maxSum)
	blocks := (n + rowBlock - 1) / rowBlock
	par.For(workers, blocks, func(bi int) {
		i0 := bi * rowBlock
		i1 := min(i0+rowBlock, n)
		for i := i0; i < i1; i++ {
			rowC := c32[i*n : (i+1)*n]
			for j := range rowC {
				rowC[j] = inf32
			}
		}
		for k0 := 0; k0 < n; k0 += tileK {
			k1 := min(k0+tileK, n)
			for j0 := 0; j0 < n; j0 += tileJ {
				j1 := min(j0+tileJ, n)
				for i := i0; i < i1; i++ {
					rowC := c32[i*n+j0 : i*n+j1]
					// Gather the finite legs: A's entry and B's row offset.
					var legA [tileK]int32
					var offB [tileK]int
					m := 0
					for kk, aik := range a32[i*n+k0 : i*n+k1] {
						if aik != inf32 {
							legA[m], offB[m] = aik, (k0+kk)*n
							m++
						}
					}
					q := 0
					for ; q+4 <= m; q += 4 {
						relax32x4(rowC,
							b32[offB[q]+j0:offB[q]+j1], b32[offB[q+1]+j0:offB[q+1]+j1],
							b32[offB[q+2]+j0:offB[q+2]+j1], b32[offB[q+3]+j0:offB[q+3]+j1],
							legA[q], legA[q+1], legA[q+2], legA[q+3])
					}
					for ; q < m; q++ {
						relax32(rowC, b32[offB[q]+j0:offB[q]+j1], legA[q])
					}
				}
			}
		}
		for i := i0; i < i1; i++ {
			rowC32 := c32[i*n : (i+1)*n]
			rowC64 := dst.a[i*n : (i+1)*n]
			for j, v := range rowC32 {
				if v > m32 {
					rowC64[j] = graph.Inf
				} else {
					rowC64[j] = int64(v)
				}
			}
		}
	})
}

package approx

// The (1+ε)-approximate squaring chain: the exact Theorem 1 pipeline with
// every distance product snapped onto a geometric value ladder. The chain
// performs P = ⌈log₂ n⌉ products; each inflates entries by a factor below
// 1+εstep (ladder snap-up), so choosing εstep = (1+ε)^(1/P) − 1 keeps the
// compounded stretch within the requested 1+ε. The payoff is the search
// depth: each product spends ⌈log₂ |ladder ∩ [0,M]|⌉+1 FindEdges calls
// instead of ⌈log₂(4M+2)⌉+1, and FindEdges calls are where the rounds go.
//
// The products are distprod.Chain's, the chain the exact search pipelines
// run. The stages of strategy "approx-quantum" (strategy.go) add the ladder
// before the first product and the fixpoint vote after each one.

import (
	"fmt"
	"math"

	"qclique/internal/graph"
	"qclique/internal/matrix"
)

// chainLadder returns the value ladder the products of the chain snap onto
// for an n-vertex input whose largest finite weight is w, under budget eps.
func chainLadder(n int, w int64, eps float64) ([]int64, error) {
	// P products, each inflating by < 1+εstep; (1+εstep)^P = 1+ε.
	step := powRoot(1+eps, matrix.SquaringBudget(n)) - 1

	// The ladder must cover every per-product weight bound M = 2·max
	// finite entry; finite entries are walk distances, bounded by
	// (n−1)·W inflated by the accumulated snap factor, which stays below
	// the full 1+ε budget — hence the ⌈ε⌉ term, with an explicit overflow
	// guard since weights may approach the sentinel range.
	factor := 2 + int64(math.Ceil(eps))
	denom := 4 * factor * (int64(n) + 1)
	if w >= graph.Inf/denom {
		return nil, fmt.Errorf("%w: weight bound %d at n=%d", ErrWeightRange, w, n)
	}
	return Ladder(step, 2*factor*(int64(n)+1)*(w+1))
}

// powRoot returns the p-th root of x for p >= 1 (x > 1), i.e. x^(1/p).
func powRoot(x float64, p int) float64 {
	if p <= 1 {
		return x
	}
	return math.Pow(x, 1/float64(p))
}

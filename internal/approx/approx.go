// Package approx implements the approximate-APSP frontier on top of the
// exact pipelines: the related work (Censor-Hillel–Dory–Korhonen–
// Leitersdorf, "Fast Approximate Shortest Paths in the Congested Clique",
// arXiv:1903.05956; Dory–Parter, arXiv:2003.03058) shows that relaxing
// exactness buys order-of-magnitude round savings. Two strategies live
// here:
//
//   - approx-quantum: a (1+ε)-approximate repeated-squaring chain, the
//     exact quantum pipeline's distprod.Chain with every distance product
//     snapped up onto a geometric value ladder, so the Proposition 2
//     binary search ranges over ladder indices — depth
//     ⌈log₂(ladder length)⌉ instead of ⌈log₂(4M+2)⌉ — cutting the
//     FindEdges call count (and hence rounds) of every product in the
//     chain. Errors compound multiplicatively: a per-product step of
//     (1+ε)^(1/P) over P products stays within the requested 1+ε. A
//     one-round vote after each product stops the chain at its fixed
//     point.
//
//   - approx-skeleton: a (2+ε) strategy in the spirit of arXiv:1903.05956
//     for weight-symmetric graphs: exact k-nearest neighborhoods computed
//     locally, a sampled skeleton whose multi-source distances are solved
//     on the (1+ε/2) ladder, and per-pair estimates combined through
//     skeleton hubs and k-nearest straddle edges.
//
// Both strategies require nonnegative weights — multiplicative stretch is
// meaningless otherwise — and report the measured max stretch against the
// centralized Floyd–Warshall reference next to the guarantee. Both are
// engine strategies that read their input and ε from the engine.Request
// and write the engine.Outcome; ε is validated before the engine runs.
package approx

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"qclique/internal/graph"
	"qclique/internal/matrix"
)

// ErrNegativeWeight is returned when an approximate strategy is handed a
// graph with negative arc weights.
var ErrNegativeWeight = errors.New("approx: approximate strategies require nonnegative weights")

// ErrAsymmetric is returned by the skeleton strategy for inputs that are
// not weight-symmetric (its 2+ε analysis is an undirected-graph argument).
var ErrAsymmetric = errors.New("approx: skeleton strategy requires a weight-symmetric graph")

// ErrWeightRange is returned by the approximate strategies for weights
// that the graph accepts but their arithmetic cannot: the value ladder
// covering the weight bound would reach the Inf sentinel.
var ErrWeightRange = errors.New("approx: weights too large for the approximate strategies")

// ErrBadEpsilon is returned when Epsilon is outside [MinEpsilon,
// MaxEpsilon].
var ErrBadEpsilon = errors.New("approx: epsilon must be in [1e-3, 1e3]")

// Epsilon domain. The lower bound is a denial-of-service guard as much as
// a numerical one: the ladder has ~ln(bound)/ε candidates (every integer
// below 1/ε is on it), so an adversarial epsilon like 1e-18 would spin
// Ladder for unbounded CPU and memory — and a guarantee below 1.001 is
// the exact strategy's job anyway. The upper bound keeps the chain's
// weight-bound arithmetic overflow-free; a guaranteed stretch above 1001
// is not a useful contract. The serving layer validates requests against
// this domain before any work runs.
const (
	MinEpsilon = 1e-3
	MaxEpsilon = 1e3
)

// ValidEpsilon reports whether eps is inside the supported domain.
func ValidEpsilon(eps float64) bool {
	return eps >= MinEpsilon && eps <= MaxEpsilon
}

// Ladder returns the sorted distinct candidate values
// {0} ∪ {⌊(1+eps)^t⌋ : t ≥ 0}, extended until the last value is >= bound.
// Consecutive distinct ladder values v < v' satisfy v' < (1+eps)·(v+1), so
// snapping any value x up to the ladder inflates it by a factor strictly
// below 1+eps (and 0 and all small integers are represented exactly).
// maxLadderLen caps the candidate count: inside the public epsilon domain
// real ladders stay well below it (≤ ~1M even at MinEpsilon split across
// a deep chain and a sentinel-range weight bound), so hitting the cap
// means a caller bypassed validation — fail loudly instead of allocating
// without bound.
const maxLadderLen = 1 << 21

// Ladder accepts step values below MinEpsilon because the chain splits
// its budget ε across P products (ε/P-sized steps); the public domain is
// enforced on ε itself before any strategy runs, and the growth-advance
// and length guards here keep even a bypassed call from spinning or
// allocating forever.
func Ladder(eps float64, bound int64) ([]int64, error) {
	if math.IsNaN(eps) || eps <= 0 || math.IsInf(eps, 0) {
		return nil, fmt.Errorf("%w (got %v)", ErrBadEpsilon, eps)
	}
	if bound < 0 {
		return nil, fmt.Errorf("approx: negative ladder bound %d", bound)
	}
	// The loop below runs ~ln(bound)/ln(1+eps) times regardless of how
	// many candidates it keeps, so bound the work up front: inside the
	// public epsilon domain the estimate stays under ~1M even for
	// sentinel-range bounds, so hitting this cap means a caller bypassed
	// validation.
	if est := math.Log(float64(bound)+2) / math.Log1p(eps); est > maxLadderLen {
		return nil, fmt.Errorf("%w: ladder for bound %d would take ~%.0f growth steps", ErrBadEpsilon, bound, est)
	}
	ladder := []int64{0}
	x := 1.0
	last := int64(0)
	for last < bound {
		v := int64(math.Floor(x))
		if v > last {
			ladder = append(ladder, v)
			if len(ladder) > maxLadderLen {
				return nil, fmt.Errorf("%w: ladder for bound %d exceeds %d candidates", ErrBadEpsilon, bound, maxLadderLen)
			}
			last = v
			if last >= bound {
				// Covered — stop before advancing x, whose next growth
				// step may spuriously trip the overflow guard for legal
				// bounds near the weight-domain ceiling.
				break
			}
		}
		next := x * (1 + eps)
		if next <= x {
			// Epsilon too small for float64 growth — a hard stop beats an
			// infinite loop.
			return nil, fmt.Errorf("%w: growth factor does not advance at %v", ErrBadEpsilon, x)
		}
		x = next
		// Candidates must stay strictly below the Inf sentinel (a ladder
		// value equal to Inf would collide with "no path").
		if x >= float64(graph.Inf) {
			return nil, fmt.Errorf("%w: ladder bound %d overflows the weight domain", ErrWeightRange, bound)
		}
	}
	return ladder, nil
}

// SnapUp returns the smallest ladder value >= v. It panics if v is
// negative or exceeds the ladder top (programming error: ladders are built
// to cover their workload).
func SnapUp(v int64, ladder []int64) int64 {
	if v < 0 || len(ladder) == 0 || v > ladder[len(ladder)-1] {
		panic(fmt.Sprintf("approx: SnapUp(%d) outside ladder", v))
	}
	return ladder[sort.Search(len(ladder), func(i int) bool { return ladder[i] >= v })]
}

// MeasureStretch compares an approximate distance matrix against the
// centralized Floyd–Warshall reference for g and returns the maximum
// multiplicative stretch over all pairs. Reachability must agree exactly,
// zero distances must be answered exactly, and no entry may undercut the
// true distance — any of those is an algorithmic bug, reported as an
// error rather than folded into the ratio.
func MeasureStretch(g *graph.Digraph, dist *matrix.Matrix) (float64, error) {
	n := g.N()
	if dist.N() != n {
		return 0, fmt.Errorf("approx: distance matrix is %d×%d for an n=%d graph", dist.N(), dist.N(), n)
	}
	exact, err := graph.FloydWarshall(g)
	if err != nil {
		return 0, fmt.Errorf("approx: reference solve: %w", err)
	}
	maxStretch := 1.0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := exact[i*n+j]
			got := dist.At(i, j)
			switch {
			case want >= graph.Inf:
				if got < graph.Inf {
					return 0, fmt.Errorf("approx: pair (%d,%d) unreachable but estimated %d", i, j, got)
				}
			case want == 0:
				if got != 0 {
					return 0, fmt.Errorf("approx: pair (%d,%d) has distance 0 but estimate %d", i, j, got)
				}
			default:
				if got >= graph.Inf {
					return 0, fmt.Errorf("approx: pair (%d,%d) reachable (exact %d) but estimated unreachable", i, j, want)
				}
				if got < want {
					return 0, fmt.Errorf("approx: pair (%d,%d) estimate %d undercuts exact %d", i, j, got, want)
				}
				if r := float64(got) / float64(want); r > maxStretch {
					maxStretch = r
				}
			}
		}
	}
	return maxStretch, nil
}

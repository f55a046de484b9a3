package approx

// The (1+ε)-approximate squaring chain: the exact Theorem 1 pipeline with
// every distance product snapped onto a geometric value ladder. The chain
// performs P = ⌈log₂ n⌉ products; each inflates entries by a factor below
// 1+εstep (ladder snap-up), so choosing εstep = (1+ε)^(1/P) − 1 keeps the
// compounded stretch within the requested 1+ε. The payoff is the search
// depth: each product spends ⌈log₂ |ladder ∩ [0,M]|⌉+1 FindEdges calls
// instead of ⌈log₂(4M+2)⌉+1, and FindEdges calls are where the rounds go.
//
// The chain is factored into a chainRun that the staged engine pipeline
// (strategy "approx-quantum") drives: prepare builds the ladder, square
// performs one ladder-snapped product plus the fixpoint vote, and the
// engine's stages sequence them.

import (
	"context"
	"fmt"
	"math"

	"qclique/internal/congest"
	"qclique/internal/distprod"
	"qclique/internal/graph"
	"qclique/internal/matrix"
	"qclique/internal/triangles"
	"qclique/internal/xrand"
)

// ChainOptions configures the (1+ε)-approximate squaring chain.
type ChainOptions struct {
	// Epsilon is the end-to-end multiplicative stretch budget (> 0).
	Epsilon float64
	// Solver selects the FindEdges implementation (zero value: quantum).
	Solver distprod.Solver
	// Params forwards protocol constants (nil = paper constants).
	Params *triangles.Params
	// Seed drives protocol randomness.
	Seed uint64
	// Net is the 3n-node network the products charge against (required).
	Net *congest.Network
	// Workers bounds host-side parallelism of node-local phases.
	Workers int
}

// ChainStats reports what a chain run did.
type ChainStats struct {
	// Products is the number of ladder-snapped distance products performed
	// (the fixpoint vote may stop the chain before the ⌈log₂ n⌉ budget).
	Products int
	// FindEdgesCalls is the total FindEdges invocations across products.
	FindEdgesCalls int
	// EpsilonStep is the per-product stretch budget (1+ε)^(1/P) − 1.
	EpsilonStep float64
	// LadderLen is the number of candidate values in the shared ladder.
	LadderLen int
	// ConvergedEarly reports that a squaring returned its input unchanged
	// and the remaining products were skipped.
	ConvergedEarly bool
}

// chainRun is the mutable state of one (1+ε) chain: the ping-pong matrices,
// the shared ladder, the distance-product workspace every product of the
// chain reuses, and the convergence flag the fixpoint vote sets.
type chainRun struct {
	opts   ChainOptions
	dp     *distprod.Workspace
	ag     *matrix.Matrix
	stats  *ChainStats
	rng    *xrand.Source
	ladder []int64
	n      int
	budget int // P = ⌈log₂ n⌉ products

	cur, next *matrix.Matrix
	done      bool
}

// newChainRun validates the options; buffers are allocated by prepare.
func newChainRun(ag *matrix.Matrix, opts ChainOptions) (*chainRun, error) {
	if !ValidEpsilon(opts.Epsilon) {
		return nil, fmt.Errorf("%w (got %v)", ErrBadEpsilon, opts.Epsilon)
	}
	if opts.Net == nil {
		return nil, fmt.Errorf("approx: Chain requires a network")
	}
	return &chainRun{
		opts:   opts,
		dp:     distprod.NewWorkspace(),
		ag:     ag,
		stats:  &ChainStats{},
		rng:    xrand.New(opts.Seed),
		n:      ag.N(),
		budget: matrix.SquaringBudget(ag.N()),
	}, nil
}

// prepare builds the shared value ladder and checks the weight bound; for
// n ≤ 1 the chain is trivially done after cloning the input.
func (r *chainRun) prepare() error {
	r.cur = r.ag.Clone()
	if r.n <= 1 {
		r.done = true
		return nil
	}

	// P products, each inflating by < 1+εstep; (1+εstep)^P = 1+ε.
	r.stats.EpsilonStep = powRoot(1+r.opts.Epsilon, r.budget) - 1

	// The ladder must cover every per-product weight bound M = 2·max
	// finite entry; finite entries are walk distances, bounded by
	// (n−1)·W inflated by the accumulated snap factor, which stays below
	// the full 1+ε budget — hence the ⌈ε⌉ term, with an explicit overflow
	// guard since weights may approach the sentinel range.
	w := r.ag.MaxAbsFinite()
	factor := 2 + int64(math.Ceil(r.opts.Epsilon))
	denom := 4 * factor * (int64(r.n) + 1)
	if w >= graph.Inf/denom {
		return fmt.Errorf("%w: weight bound %d at n=%d", ErrWeightRange, w, r.n)
	}
	bound := 2 * factor * (int64(r.n) + 1) * (w + 1)
	ladder, err := Ladder(r.stats.EpsilonStep, bound)
	if err != nil {
		return err
	}
	r.ladder = ladder
	r.stats.LadderLen = len(ladder)
	r.next = matrix.New(r.n)
	return nil
}

// square performs one ladder-snapped product plus the convergence vote.
// Min-plus squaring is monotone nonincreasing, so a product that returns
// its input unchanged proves the whole remaining chain is the identity —
// every node checks its own row and a one-round all-to-all AND aggregates
// the verdict. Dense inputs hit the fixpoint after ~log₂(diameter)
// products, long before the ⌈log₂ n⌉ walk-length budget.
func (r *chainRun) square(ctx context.Context) error {
	st, err := distprod.ProductInto(r.next, r.cur, r.cur, distprod.Options{
		Solver:    r.opts.Solver,
		Params:    r.opts.Params,
		Seed:      r.rng.SplitN("product", r.stats.FindEdgesCalls).Seed(),
		Net:       r.opts.Net,
		Workers:   r.opts.Workers,
		Workspace: r.dp,
		Grid:      r.ladder,
		Ctx:       ctx,
	})
	if err != nil {
		return fmt.Errorf("approx: squaring %d: %w", r.stats.Products, err)
	}
	r.stats.Products++
	r.stats.FindEdgesCalls += st.BinarySearchSteps
	if err := r.opts.Net.BroadcastAll("approx/fixpoint-vote", 1); err != nil {
		return err
	}
	converged := r.next.Equal(r.cur)
	r.cur, r.next = r.next, r.cur
	if converged {
		r.stats.ConvergedEarly = r.stats.Products < r.budget
		r.done = true
	}
	return nil
}

// powRoot returns the p-th root of x for p >= 1 (x > 1), i.e. x^(1/p).
func powRoot(x float64, p int) float64 {
	if p <= 1 {
		return x
	}
	return math.Pow(x, 1/float64(p))
}

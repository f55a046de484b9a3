package distprod

import (
	"context"

	"qclique/internal/graph"
	"qclique/internal/matrix"
	"qclique/internal/xrand"
)

// Chain is the Proposition 3 squaring chain: it starts at A_G, and each
// Square replaces the current matrix D by the distance product D ⋆ D, so
// after ⌈log₂ n⌉ products D holds every distance. It owns the two
// ping-pong matrices and the workspace its products reuse, and seeds each
// product from the chain seed split by the FindEdges calls made so far.
type Chain struct {
	opts      Options
	rng       *xrand.Source
	cur, next *matrix.Matrix
	products  int
	calls     int
}

// NewChain starts a chain at g's adjacency matrix A_G. Every product runs
// with opts' Solver, Params, Net and Workers; opts.Seed seeds the chain,
// and each Square supplies its product's Ctx and Grid.
func NewChain(g *graph.Digraph, opts Options) *Chain {
	opts.workspace = new(workspace)
	return &Chain{opts: opts, rng: xrand.New(opts.Seed), cur: matrix.FromDigraph(g), next: matrix.New(g.N())}
}

// Square runs one product of the chain, over the value grid when grid is
// non-nil (see Options.Grid), and reports whether it returned its input
// unchanged. Min-plus squaring with a zero diagonal is monotone, so an
// unchanged input is the chain's fixed point.
func (c *Chain) Square(ctx context.Context, grid []int64) (unchanged bool, err error) {
	opts := c.opts
	opts.Seed = c.rng.SplitN("product", c.calls).Seed()
	opts.Grid = grid
	opts.Ctx = ctx
	st, err := ProductInto(c.next, c.cur, c.cur, opts)
	if err != nil {
		return false, err
	}
	c.products++
	c.calls += st.BinarySearchSteps
	unchanged = c.next.Equal(c.cur)
	c.cur, c.next = c.next, c.cur
	return unchanged, nil
}

// Dist returns the current matrix: A_G before the first product, the
// distances once the chain is done. It stays the chain's own.
func (c *Chain) Dist() *matrix.Matrix { return c.cur }

// Products returns the number of products run so far.
func (c *Chain) Products() int { return c.products }

// FindEdgesCalls returns the FindEdges calls of every product so far.
func (c *Chain) FindEdgesCalls() int { return c.calls }

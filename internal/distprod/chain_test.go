package distprod

import (
	"context"
	"testing"

	"qclique/internal/graph"
	"qclique/internal/matrix"
	"qclique/internal/xrand"
)

// TestChainMatchesMinPlusSquaring runs the chain through its budget on
// small digraphs and holds each product to the min-plus square of its
// input, the unchanged report to an exact comparison of the two, and the
// counters to the products run.
func TestChainMatchesMinPlusSquaring(t *testing.T) {
	rng := xrand.New(41)
	for trial := 0; trial < 3; trial++ {
		g, err := graph.RandomDigraph(6+trial, graph.DigraphOpts{
			ArcProb: 0.4, MinWeight: -3, MaxWeight: 9, NoNegativeCycles: true,
		}, rng.SplitN("g", trial))
		if err != nil {
			t.Fatal(err)
		}
		c := NewChain(g, Options{Solver: SolverDolev, Seed: uint64(trial)})
		want := matrix.FromDigraph(g)
		if !c.Dist().Equal(want) {
			t.Fatalf("trial %d: chain does not start at A_G", trial)
		}
		budget := matrix.SquaringBudget(g.N())
		for i := 0; i < budget; i++ {
			prev := want
			if want, err = matrix.DistanceProduct(prev, prev); err != nil {
				t.Fatal(err)
			}
			unchanged, err := c.Square(context.Background(), nil)
			if err != nil {
				t.Fatalf("trial %d product %d: %v", trial, i+1, err)
			}
			if !c.Dist().Equal(want) {
				t.Fatalf("trial %d product %d: chain differs from the min-plus square", trial, i+1)
			}
			if unchanged != want.Equal(prev) {
				t.Errorf("trial %d product %d: unchanged = %v, want %v", trial, i+1, unchanged, want.Equal(prev))
			}
		}
		if c.Products() != budget || c.FindEdgesCalls() < budget {
			t.Errorf("trial %d: %d products, %d FindEdges calls; want %d products, a call each at least", trial, c.Products(), c.FindEdgesCalls(), budget)
		}
	}
}

package core

import (
	"testing"

	"qclique/internal/graph"
	"qclique/internal/triangles"
	"qclique/internal/xrand"
)

func workspaceTestGraph(t *testing.T, n int, seed uint64) *graph.Digraph {
	t.Helper()
	g, err := graph.RandomDigraph(n, graph.DigraphOpts{
		ArcProb: 0.4, MinWeight: -8, MaxWeight: 8, NoNegativeCycles: true,
	}, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestWorkspaceDeterminism is the pooled-vs-fresh contract: one Workspace
// reused across solves must produce byte-identical distance matrices and
// identical round counts to fresh per-call state, across seeds and
// strategies. The workspace is deliberately shared across all seeds and
// strategies in sequence so that stale high-water buffers from one run feed
// the next.
func TestWorkspaceDeterminism(t *testing.T) {
	params := triangles.BenchParams()
	g := workspaceTestGraph(t, 14, 3)
	ws := NewWorkspace()
	for _, strat := range []string{StrategyQuantum, StrategyClassicalSearch, StrategyGossip} {
		for seed := uint64(0); seed <= 2; seed++ {
			fresh, err := Solve(g, Config{Strategy: strat, Params: &params, Seed: seed})
			if err != nil {
				t.Fatalf("%v seed %d fresh: %v", strat, seed, err)
			}
			pooled, err := Solve(g, Config{Strategy: strat, Params: &params, Seed: seed, Workspace: ws})
			if err != nil {
				t.Fatalf("%v seed %d pooled: %v", strat, seed, err)
			}
			if !fresh.Dist.Equal(pooled.Dist) {
				t.Errorf("%v seed %d: pooled distance matrix differs from fresh", strat, seed)
			}
			if fresh.Rounds != pooled.Rounds {
				t.Errorf("%v seed %d: pooled rounds %d != fresh %d", strat, seed, pooled.Rounds, fresh.Rounds)
			}
			if fresh.Metrics != pooled.Metrics {
				t.Errorf("%v seed %d: pooled metrics %+v != fresh %+v", strat, seed, pooled.Metrics, fresh.Metrics)
			}
			if fresh.FindEdgesCalls != pooled.FindEdgesCalls {
				t.Errorf("%v seed %d: pooled FindEdges calls %d != fresh %d", strat, seed, pooled.FindEdgesCalls, fresh.FindEdgesCalls)
			}
		}
	}
}

// TestWorkspaceResultNotRecycled guards the escape contract: the distance
// matrix returned by a workspace-backed solve must stay intact when the
// same workspace runs further solves (a cached result aliasing pooled
// storage would silently corrupt).
func TestWorkspaceResultNotRecycled(t *testing.T) {
	params := triangles.BenchParams()
	ws := NewWorkspace()
	g1 := workspaceTestGraph(t, 12, 4)
	first, err := Solve(g1, Config{Params: &params, Seed: 1, Workspace: ws})
	if err != nil {
		t.Fatal(err)
	}
	snapshot := first.Dist.Clone()
	// Hammer the workspace with more solves, including a different size
	// (forces fresh internal state) and the same size (would reuse a
	// recycled matrix if the result had been put back).
	for _, n := range []int{12, 9, 12} {
		g := workspaceTestGraph(t, n, uint64(10+n))
		if _, err := Solve(g, Config{Params: &params, Seed: 2, Workspace: ws}); err != nil {
			t.Fatal(err)
		}
	}
	if !first.Dist.Equal(snapshot) {
		t.Fatal("distance matrix of an earlier workspace solve was mutated by later solves")
	}
}

// TestWorkspaceAcrossSizes exercises the workspace's shape transitions:
// growing and shrinking n must neither fail nor change results.
func TestWorkspaceAcrossSizes(t *testing.T) {
	params := triangles.BenchParams()
	ws := NewWorkspace()
	for _, n := range []int{6, 13, 8, 13, 6} {
		g := workspaceTestGraph(t, n, uint64(n))
		fresh, err := Solve(g, Config{Params: &params, Seed: 0})
		if err != nil {
			t.Fatal(err)
		}
		pooled, err := Solve(g, Config{Params: &params, Seed: 0, Workspace: ws})
		if err != nil {
			t.Fatal(err)
		}
		if !fresh.Dist.Equal(pooled.Dist) || fresh.Rounds != pooled.Rounds {
			t.Fatalf("n=%d: workspace solve diverged from fresh", n)
		}
	}
}

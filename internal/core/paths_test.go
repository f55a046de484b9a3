package core

import (
	"errors"
	"testing"

	"qclique/internal/graph"
	"qclique/internal/matrix"
	"qclique/internal/xrand"
)

func solveGossip(t *testing.T, g *graph.Digraph) *Result {
	t.Helper()
	res, err := Solve(g, Config{Strategy: StrategyGossip})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestReconstructPathValidatesWeights(t *testing.T) {
	rng := xrand.New(1)
	for trial := 0; trial < 20; trial++ {
		g, err := graph.RandomDigraph(14, graph.DigraphOpts{
			ArcProb: 0.35, MinWeight: -5, MaxWeight: 12, NoNegativeCycles: true,
		}, rng.SplitN("t", trial))
		if err != nil {
			t.Fatal(err)
		}
		res := solveGossip(t, g)
		for src := 0; src < g.N(); src++ {
			for dst := 0; dst < g.N(); dst++ {
				d := res.Dist.At(src, dst)
				path, err := ReconstructPath(g, res.Dist, src, dst)
				if d >= graph.Inf {
					if !errors.Is(err, ErrNoPath) {
						t.Fatalf("unreachable (%d,%d): err = %v, want ErrNoPath", src, dst, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("(%d,%d): %v", src, dst, err)
				}
				if path[0] != src || path[len(path)-1] != dst {
					t.Fatalf("path endpoints wrong: %v", path)
				}
				w, err := PathWeight(g, path)
				if err != nil {
					t.Fatal(err)
				}
				if w != d {
					t.Fatalf("(%d,%d): path weight %d, distance %d (path %v)", src, dst, w, d, path)
				}
			}
		}
	}
}

func TestReconstructPathTrivial(t *testing.T) {
	g := graph.NewDigraph(3)
	if err := g.SetArc(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	res := solveGossip(t, g)
	path, err := ReconstructPath(g, res.Dist, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 1 || path[0] != 0 {
		t.Errorf("self path = %v", path)
	}
}

func TestReconstructPathZeroWeightCycle(t *testing.T) {
	// Zero-weight 2-cycle between 1 and 2 must not trap the
	// reconstruction.
	g := graph.NewDigraph(4)
	for _, a := range [][3]int64{{0, 1, 1}, {1, 2, 0}, {2, 1, 0}, {2, 3, 1}} {
		if err := g.SetArc(int(a[0]), int(a[1]), a[2]); err != nil {
			t.Fatal(err)
		}
	}
	res := solveGossip(t, g)
	path, err := ReconstructPath(g, res.Dist, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	w, err := PathWeight(g, path)
	if err != nil {
		t.Fatal(err)
	}
	if w != res.Dist.At(0, 3) {
		t.Errorf("path weight %d, want %d", w, res.Dist.At(0, 3))
	}
}

func TestReconstructPathErrors(t *testing.T) {
	g := graph.NewDigraph(3)
	res := solveGossip(t, g)
	if _, err := ReconstructPath(g, res.Dist, 0, 5); err == nil {
		t.Error("out-of-range endpoint must fail")
	}
	if _, err := ReconstructPath(g, matrix.New(5), 0, 1); err == nil {
		t.Error("dimension mismatch must fail")
	}
	// Inconsistent distances: claim d(0,1)=1 with no arcs at all.
	bogus := matrix.FromDigraph(graph.NewDigraph(3))
	bogus.Set(0, 1, 1)
	if _, err := ReconstructPath(g, bogus, 0, 1); err == nil {
		t.Error("inconsistent matrix must fail")
	}
}

func TestPathWeightErrors(t *testing.T) {
	g := graph.NewDigraph(3)
	if err := g.SetArc(0, 1, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := PathWeight(g, nil); err == nil {
		t.Error("empty path must fail")
	}
	if _, err := PathWeight(g, []int{0, 2}); err == nil {
		t.Error("broken path must fail")
	}
	w, err := PathWeight(g, []int{0, 1})
	if err != nil || w != 4 {
		t.Errorf("weight = %d, %v", w, err)
	}
	if w, _ := PathWeight(g, []int{1}); w != 0 {
		t.Error("single-vertex path weighs 0")
	}
}

package core

import (
	"errors"
	"sync"
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

func oracleFixture(t *testing.T, n int, seed uint64) (*graph.Digraph, *Result) {
	t.Helper()
	g, err := graph.RandomDigraph(n, graph.DigraphOpts{
		ArcProb: 0.3, MinWeight: -5, MaxWeight: 9, NoNegativeCycles: true,
	}, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return g, solveGossip(t, g)
}

// checkOraclePaths checks that for every pair the oracle over dist returns
// a path from src to dst that weighs the distance, and ErrNoPath exactly
// for the unreachable pairs.
func checkOraclePaths(t *testing.T, g *graph.Digraph, dist *matrix.Matrix) {
	t.Helper()
	o, err := NewPathOracle(g, dist)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			path, err := o.Path(src, dst)
			d := dist.At(src, dst)
			if d >= graph.Inf {
				if !errors.Is(err, ErrNoPath) {
					t.Fatalf("(%d,%d): err = %v, want ErrNoPath", src, dst, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("(%d,%d): %v", src, dst, err)
			}
			if path[0] != src || path[len(path)-1] != dst {
				t.Fatalf("(%d,%d): path endpoints %v", src, dst, path)
			}
			w, err := PathWeight(g, path)
			if err != nil {
				t.Fatalf("(%d,%d): broken path %v: %v", src, dst, path, err)
			}
			if w != d {
				t.Fatalf("(%d,%d): path weight %d, distance %d (path %v)", src, dst, w, d, path)
			}
		}
	}
}

// TestPathOracleMatchesReconstructPath and the TestReconstructPath* tests
// keep the names they had while a second, forward reconstruction stood
// beside the oracle; each now runs the oracle on that test's input.
func TestPathOracleMatchesReconstructPath(t *testing.T) {
	g, res := oracleFixture(t, 14, 33)
	checkOraclePaths(t, g, res.Dist)
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
		checkOraclePaths(t, g, solveGossip(t, g).Dist)
	}
}

func TestReconstructPathTrivial(t *testing.T) {
	g := arcDigraph(t, 3, [3]int64{0, 1, 2})
	o, err := NewPathOracle(g, solveGossip(t, g).Dist)
	if err != nil {
		t.Fatal(err)
	}
	if p, err := o.Path(0, 0); err != nil || len(p) != 1 || p[0] != 0 {
		t.Errorf("self path = %v, %v", p, err)
	}
}

// TestReconstructPathZeroWeightCycle: a zero-weight 2-cycle between 1 and
// 2 must not trap the successor walk.
func TestReconstructPathZeroWeightCycle(t *testing.T) {
	g := arcDigraph(t, 4, [3]int64{0, 1, 1}, [3]int64{1, 2, 0}, [3]int64{2, 1, 0}, [3]int64{2, 3, 1})
	checkOraclePaths(t, g, solveGossip(t, g).Dist)
}

func TestReconstructPathErrors(t *testing.T) {
	g := graph.NewDigraph(3)
	o, err := NewPathOracle(g, solveGossip(t, g).Dist)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Path(0, 5); err == nil {
		t.Error("out-of-range endpoint must fail")
	}
	if _, err := NewPathOracle(g, matrix.New(5)); err == nil {
		t.Error("dimension mismatch must fail")
	}

	// Inconsistent distances: d(0,1) = 1 with no arcs at all; and, on the
	// graph with one arc 0→1 at 2, d(0,2) = 1 with no arc out of 1 and
	// d(0,1) = 1 below the arc.
	bogus := matrix.FromDigraph(g)
	bogus.Set(0, 1, 1)
	if o, err = NewPathOracle(g, bogus); err != nil {
		t.Fatal(err)
	}
	if p, err := o.Path(0, 1); err == nil {
		t.Errorf("inconsistent matrix: path %v, want an error", p)
	}
	g = arcDigraph(t, 3, [3]int64{0, 1, 2})
	bogus = matrix.FromDigraph(g)
	bogus.Set(0, 2, 1)
	bogus.Set(0, 1, 1)
	if o, err = NewPathOracle(g, bogus); err != nil {
		t.Fatal(err)
	}
	for _, dst := range []int{1, 2} {
		if p, err := o.Path(0, dst); err == nil {
			t.Errorf("inconsistent matrix: path %v to %d, want an error", p, dst)
		}
	}
}

// TestPathOracleConcurrent exercises lazy successor construction under
// concurrent queries; the race detector is the real assertion here.
func TestPathOracleConcurrent(t *testing.T) {
	g, res := oracleFixture(t, 12, 7)
	o, err := NewPathOracle(g, res.Dist)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for src := 0; src < n; src++ {
				for dst := 0; dst < n; dst++ {
					path, err := o.Path(src, dst)
					if errors.Is(err, ErrNoPath) {
						continue
					}
					if err != nil {
						t.Errorf("worker %d (%d,%d): %v", w, src, dst, err)
						return
					}
					if path[0] != src || path[len(path)-1] != dst {
						t.Errorf("worker %d (%d,%d): bad endpoints %v", w, src, dst, path)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestPathOracleValidation(t *testing.T) {
	g, res := oracleFixture(t, 6, 1)
	if _, err := NewPathOracle(nil, res.Dist); err == nil {
		t.Error("nil graph must fail")
	}
	if _, err := NewPathOracle(g, nil); err == nil {
		t.Error("nil matrix must fail")
	}
	if _, err := NewPathOracle(g, matrix.New(4)); err == nil {
		t.Error("dimension mismatch must fail")
	}
	o, err := NewPathOracle(g, res.Dist)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Path(-1, 0); err == nil {
		t.Error("out-of-range src must fail")
	}
	if _, err := o.Path(0, 99); err == nil {
		t.Error("out-of-range dst must fail")
	}
	if _, err := o.Dist(0, 99); err == nil {
		t.Error("out-of-range Dist must fail")
	}
	p, err := o.Path(3, 3)
	if err != nil || len(p) != 1 || p[0] != 3 {
		t.Errorf("self path = %v, %v", p, err)
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

package core

// The −∞ probe: a 2-cycle of weight −1 paired with an all-NegInf distance
// matrix, the exact shape that used to make path reconstruction fabricate
// a "shortest path". SaturatingAdd(w, −∞) == −∞ renders every arc into
// the −∞ region tight, so without the guards both ReconstructPath and the
// oracle would happily return [0 1] for a pair that has no shortest path
// at all.

import (
	"errors"
	"testing"

	"qclique/internal/graph"
	"qclique/internal/matrix"
)

// negCycleProbe returns the 2-cycle of weight −1 and the all-NegInf matrix.
func negCycleProbe(t *testing.T) (*graph.Digraph, *matrix.Matrix) {
	t.Helper()
	g := graph.NewDigraph(2)
	if err := g.SetArc(0, 1, -1); err != nil {
		t.Fatal(err)
	}
	if err := g.SetArc(1, 0, 0); err != nil {
		t.Fatal(err)
	}
	dist := matrix.New(2)
	dist.Fill(graph.NegInf)
	return g, dist
}

func TestReconstructPathUndefinedDistance(t *testing.T) {
	g, dist := negCycleProbe(t)
	for src := 0; src < 2; src++ {
		for dst := 0; dst < 2; dst++ {
			path, err := ReconstructPath(g, dist, src, dst)
			if !errors.Is(err, ErrUndefinedDistance) {
				t.Errorf("(%d,%d): path = %v, err = %v; want ErrUndefinedDistance", src, dst, path, err)
			}
		}
	}
}

func TestPathOracleUndefinedDistance(t *testing.T) {
	g, dist := negCycleProbe(t)
	oracle, err := NewPathOracle(g, dist)
	if err != nil {
		t.Fatal(err)
	}
	for src := 0; src < 2; src++ {
		for dst := 0; dst < 2; dst++ {
			if path, err := oracle.Path(src, dst); !errors.Is(err, ErrUndefinedDistance) {
				t.Errorf("Path(%d,%d) = %v, err = %v; want ErrUndefinedDistance", src, dst, path, err)
			}
			if _, err := oracle.Dist(src, dst); !errors.Is(err, ErrUndefinedDistance) {
				t.Errorf("Dist(%d,%d): err = %v, want ErrUndefinedDistance", src, dst, err)
			}
		}
	}
}

// TestUndefinedDistanceMixedMatrix checks the guards fire per-pair, not
// per-matrix: finite pairs keep answering next to a −∞ region.
func TestUndefinedDistanceMixedMatrix(t *testing.T) {
	g := graph.NewDigraph(3)
	if err := g.SetArc(0, 1, 4); err != nil {
		t.Fatal(err)
	}
	dist := matrix.FromDigraph(graph.NewDigraph(3))
	dist.Set(0, 1, 4)
	dist.Set(2, 0, graph.NegInf)
	dist.Set(2, 1, graph.NegInf)

	if path, err := ReconstructPath(g, dist, 0, 1); err != nil || len(path) != 2 {
		t.Errorf("finite pair: path = %v, err = %v", path, err)
	}
	if _, err := ReconstructPath(g, dist, 2, 1); !errors.Is(err, ErrUndefinedDistance) {
		t.Errorf("undefined pair: err = %v, want ErrUndefinedDistance", err)
	}
	oracle, err := NewPathOracle(g, dist)
	if err != nil {
		t.Fatal(err)
	}
	if d, err := oracle.Dist(0, 1); err != nil || d != 4 {
		t.Errorf("finite Dist = %d, %v", d, err)
	}
	if _, err := oracle.Path(2, 0); !errors.Is(err, ErrUndefinedDistance) {
		t.Errorf("undefined Path: err = %v, want ErrUndefinedDistance", err)
	}
}

// TestSolveNegativeCycleStillErrors pins the solver-level behavior the
// serving layers rely on: the probe graph itself solves to
// ErrNegativeCycle before any distance can be served.
func TestSolveNegativeCycleStillErrors(t *testing.T) {
	g, _ := negCycleProbe(t)
	if _, err := Solve(g, Config{Strategy: StrategyGossip}); !errors.Is(err, ErrNegativeCycle) {
		t.Errorf("negative 2-cycle: err = %v, want ErrNegativeCycle", err)
	}
}

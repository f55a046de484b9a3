package distprod

import (
	"testing"

	"qclique/internal/graph"
	"qclique/internal/matrix"
	"qclique/internal/xrand"
)

// TestResetThresholdLegMatchesRebuild drives one reduction instance through
// a sequence of threshold matrices and checks that the in-place rewrite
// produces a graph identical to a from-scratch tripartite build after every
// step.
func TestResetThresholdLegMatchesRebuild(t *testing.T) {
	rng := xrand.New(7)
	const n = 6
	a := randomMatrix(n, 12, 0.2, rng.Split("a"))
	b := randomMatrix(n, 12, 0.2, rng.Split("b"))
	inst, err := newTripartite(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 8; step++ {
		d := matrix.New(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				d.Set(i, j, rng.Int64N(51)-25)
			}
		}
		if err := inst.ResetThresholdLeg(d); err != nil {
			t.Fatal(err)
		}
		g, s, err := tripartite(a, b, d)
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < 3*n; u++ {
			for v := u + 1; v < 3*n; v++ {
				iw, iok := inst.g.Weight(u, v)
				rw, rok := g.Weight(u, v)
				if iw != rw || iok != rok {
					t.Fatalf("step %d: edge {%d,%d}: incremental (%d,%v) vs rebuild (%d,%v)",
						step, u, v, iw, iok, rw, rok)
				}
			}
		}
		if s.Len() != inst.s.Len() {
			t.Fatalf("step %d: S size %d vs %d", step, inst.s.Len(), s.Len())
		}
		for p := range s.All() {
			if !inst.s.Has(p) {
				t.Fatalf("step %d: S missing pair %v", step, p)
			}
		}
	}
}

func TestResetThresholdLegDimensionMismatch(t *testing.T) {
	rng := xrand.New(9)
	a := randomMatrix(4, 5, 0, rng.Split("a"))
	inst, err := newTripartite(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.ResetThresholdLeg(matrix.New(5)); err == nil {
		t.Fatal("dimension mismatch must be rejected")
	}
}

// TestProductIncrementalBitIdentical is the regression guard for the
// incremental hot path: for every solver, the incremental threshold-leg
// rewrite must produce bit-identical products, stats and round counts to
// the full per-step rebuild.
func TestProductIncrementalBitIdentical(t *testing.T) {
	rng := xrand.New(11)
	for _, solver := range []Solver{SolverDolev, SolverClassicalScan, SolverQuantum} {
		for trial := 0; trial < 3; trial++ {
			n := 3 + trial
			a := randomMatrix(n, 9, 0.25, rng.SplitN("a", trial*10+int(solver)))
			b := randomMatrix(n, 9, 0.25, rng.SplitN("b", trial*10+int(solver)))
			seed := uint64(trial)

			inc, incStats, err := Product(a, b, Options{Solver: solver, Seed: seed})
			if err != nil {
				t.Fatalf("%v trial %d incremental: %v", solver, trial, err)
			}
			reb, rebStats, err := Product(a, b, Options{Solver: solver, Seed: seed, DisableIncremental: true})
			if err != nil {
				t.Fatalf("%v trial %d rebuild: %v", solver, trial, err)
			}
			if !inc.Equal(reb) {
				t.Fatalf("%v trial %d: products differ:\n%v\nvs\n%v", solver, trial, inc, reb)
			}
			if incStats.Rounds != rebStats.Rounds || incStats.BinarySearchSteps != rebStats.BinarySearchSteps {
				t.Fatalf("%v trial %d: stats differ: %+v vs %+v", solver, trial, incStats, rebStats)
			}
			want, err := matrix.DistanceProduct(a, b)
			if err != nil {
				t.Fatal(err)
			}
			if !inc.Equal(want) {
				t.Fatalf("%v trial %d: product wrong:\n%v\nwant\n%v", solver, trial, inc, want)
			}
		}
	}
}

// TestSetBipartiteBlockValidation exercises the graph-layer API backing
// ResetThresholdLeg.
func TestSetBipartiteBlockValidation(t *testing.T) {
	g := graph.NewUndirected(6)
	if err := g.SetBipartiteBlock(0, 2, 2, 2, []int64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if w, ok := g.Weight(1, 3); !ok || w != 4 {
		t.Fatalf("block write lost: weight(1,3) = (%d,%v)", w, ok)
	}
	if w, ok := g.Weight(3, 1); !ok || w != 4 {
		t.Fatalf("block write asymmetric: weight(3,1) = (%d,%v)", w, ok)
	}
	// NoEdge entries delete.
	if err := g.SetBipartiteBlock(0, 2, 2, 2, []int64{graph.NoEdge, graph.NoEdge, graph.NoEdge, graph.NoEdge}); err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 6; u++ {
		for v := u + 1; v < 6; v++ {
			if g.HasEdge(u, v) {
				t.Fatalf("NoEdge block left edge {%d,%d}", u, v)
			}
		}
	}
	if err := g.SetBipartiteBlock(0, 3, 2, 2, nil); err == nil {
		t.Fatal("overlapping ranges must be rejected")
	}
	if err := g.SetBipartiteBlock(0, 2, 5, 2, make([]int64, 4)); err == nil {
		t.Fatal("out-of-range block must be rejected")
	}
	if err := g.SetBipartiteBlock(0, 2, 2, 2, make([]int64, 3)); err == nil {
		t.Fatal("wrong weight count must be rejected")
	}
}

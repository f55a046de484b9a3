package distprod

import (
	"testing"

	"qclique/internal/matrix"
	"qclique/internal/xrand"
)

// TestWorkspaceReuseAcrossProducts reuses one workspace across a sequence
// of products with different input matrices (the squaring-chain access
// pattern) and checks every result, stats, and round count against fresh
// per-call state.
func TestWorkspaceReuseAcrossProducts(t *testing.T) {
	rng := xrand.New(21)
	for _, solver := range []Solver{SolverDolev, SolverClassicalScan, SolverQuantum} {
		ws := new(workspace)
		for trial := 0; trial < 4; trial++ {
			n := 3 + trial%3 // shape changes mid-sequence
			a := randomMatrix(n, 9, 0.25, rng.SplitN("a", trial*10+int(solver)))
			b := randomMatrix(n, 9, 0.25, rng.SplitN("b", trial*10+int(solver)))
			seed := uint64(trial)

			fresh, freshStats, err := Product(a, b, Options{Solver: solver, Seed: seed})
			if err != nil {
				t.Fatalf("%v trial %d fresh: %v", solver, trial, err)
			}
			dst := matrix.New(n)
			dst.Fill(-99) // stale destination contents must not survive
			pooledStats, err := ProductInto(dst, a, b, Options{Solver: solver, Seed: seed, workspace: ws})
			if err != nil {
				t.Fatalf("%v trial %d pooled: %v", solver, trial, err)
			}
			if !fresh.Equal(dst) {
				t.Fatalf("%v trial %d: pooled product differs:\n%v\nvs\n%v", solver, trial, dst, fresh)
			}
			if freshStats.Rounds != pooledStats.Rounds || freshStats.BinarySearchSteps != pooledStats.BinarySearchSteps {
				t.Fatalf("%v trial %d: stats differ: %+v vs %+v", solver, trial, freshStats, pooledStats)
			}
			want, err := matrix.DistanceProduct(a, b)
			if err != nil {
				t.Fatal(err)
			}
			if !dst.Equal(want) {
				t.Fatalf("%v trial %d: product wrong", solver, trial)
			}
		}
	}
}

// TestResetStaticLegsMatchesFresh rebuilds a cached tripartite instance in
// place for new inputs and compares every edge against a from-scratch
// build.
func TestResetStaticLegsMatchesFresh(t *testing.T) {
	rng := xrand.New(31)
	const n = 5
	a0 := randomMatrix(n, 7, 0.3, rng.Split("a0"))
	b0 := randomMatrix(n, 7, 0.3, rng.Split("b0"))
	inst, err := newTripartite(a0, b0)
	if err != nil {
		t.Fatal(err)
	}
	a1 := randomMatrix(n, 11, 0.1, rng.Split("a1"))
	b1 := randomMatrix(n, 11, 0.6, rng.Split("b1"))
	if err := inst.resetStaticLegs(a1, b1); err != nil {
		t.Fatal(err)
	}
	want, err := newTripartite(a1, b1)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 3*n; u++ {
		for v := u + 1; v < 3*n; v++ {
			iw, iok := inst.g.Weight(u, v)
			ww, wok := want.g.Weight(u, v)
			if iw != ww || iok != wok {
				t.Fatalf("edge {%d,%d}: reset (%d,%v) vs fresh (%d,%v)", u, v, iw, iok, ww, wok)
			}
		}
	}
}

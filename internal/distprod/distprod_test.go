package distprod

import (
	"math"
	"testing"

	"qclique/internal/congest"
	"qclique/internal/graph"
	"qclique/internal/matrix"
	"qclique/internal/xrand"
)

func randomMatrix(n int, maxAbs int64, infProb float64, rng *xrand.Source) *matrix.Matrix {
	m := matrix.New(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Bool(infProb) {
				continue
			}
			m.Set(i, j, rng.Int64N(2*maxAbs+1)-maxAbs)
		}
	}
	return m
}

func TestProductMatchesReferenceAllSolvers(t *testing.T) {
	rng := xrand.New(1)
	for _, solver := range []Solver{SolverDolev, SolverClassicalScan, SolverQuantum} {
		for trial := 0; trial < 2; trial++ {
			r := rng.SplitN(solver.String(), trial)
			n := 4 + r.IntN(6)
			a := randomMatrix(n, 20, 0.25, r.Split("a"))
			b := randomMatrix(n, 20, 0.25, r.Split("b"))
			want, err := matrix.DistanceProduct(a, b)
			if err != nil {
				t.Fatal(err)
			}
			got, stats, err := Product(a, b, Options{Solver: solver, Seed: uint64(trial)})
			if err != nil {
				t.Fatalf("%v trial %d: %v", solver, trial, err)
			}
			if !got.Equal(want) {
				t.Fatalf("%v trial %d: mismatch\ngot:\n%v\nwant:\n%v", solver, trial, got, want)
			}
			if stats.Rounds <= 0 {
				t.Errorf("%v: no rounds charged", solver)
			}
		}
	}
}

func TestProductBinarySearchStepCount(t *testing.T) {
	// Proposition 2: O(log M) FindEdges calls. Steps = 1 (infinity probe)
	// + ceil(log2(2M+1)) at most.
	rng := xrand.New(2)
	for _, maxAbs := range []int64{1, 8, 64, 512} {
		a := randomMatrix(6, maxAbs, 0.2, rng.SplitN("a", int(maxAbs)))
		b := randomMatrix(6, maxAbs, 0.2, rng.SplitN("b", int(maxAbs)))
		_, stats, err := Product(a, b, Options{Solver: SolverDolev, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		m := float64(stats.MaxAbs)
		bound := 2 + int(math.Ceil(math.Log2(2*m+2)))
		if stats.BinarySearchSteps > bound {
			t.Errorf("M=%d: %d steps, bound %d", stats.MaxAbs, stats.BinarySearchSteps, bound)
		}
	}
}

func TestProductAllInfinite(t *testing.T) {
	a := matrix.New(4) // all +Inf
	b := matrix.New(4)
	got, stats, err := Product(a, b, Options{Solver: SolverDolev})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if got.At(i, j) != graph.Inf {
				t.Fatalf("entry (%d,%d) = %d, want Inf", i, j, got.At(i, j))
			}
		}
	}
	// Only the infinity probe runs.
	if stats.BinarySearchSteps != 1 {
		t.Errorf("steps = %d, want 1", stats.BinarySearchSteps)
	}
}

func TestProductNegativeEntries(t *testing.T) {
	a, err := matrix.FromRows([][]int64{
		{-5, -3},
		{-1, -4},
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := matrix.DistanceProduct(a, a)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Product(a, a, Options{Solver: SolverDolev})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Errorf("negative product mismatch:\n%v\nwant:\n%v", got, want)
	}
}

func TestProductRejectsNegInfAndMismatch(t *testing.T) {
	a := matrix.New(2)
	a.Set(0, 0, graph.NegInf)
	if _, _, err := Product(a, matrix.New(2), Options{Solver: SolverDolev}); err == nil {
		t.Error("-Inf must be rejected")
	}
	if _, _, err := Product(matrix.New(2), matrix.New(3), Options{Solver: SolverDolev}); err == nil {
		t.Error("dimension mismatch must be rejected")
	}
	if _, _, err := Product(matrix.New(2), matrix.New(2), Options{Solver: Solver(99)}); err == nil {
		t.Error("unknown solver must be rejected")
	}
}

func TestProductEmptyMatrix(t *testing.T) {
	got, stats, err := Product(matrix.New(0), matrix.New(0), Options{Solver: SolverDolev})
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != 0 || stats.BinarySearchSteps != 0 {
		t.Error("empty product must be free")
	}
}

func TestProductSharedNetworkAccumulates(t *testing.T) {
	n := 4
	net, err := congest.NewNetwork(3 * n)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(5)
	a := randomMatrix(n, 10, 0.2, rng.Split("a"))
	b := randomMatrix(n, 10, 0.2, rng.Split("b"))
	_, s1, err := Product(a, b, Options{Solver: SolverDolev, Net: net})
	if err != nil {
		t.Fatal(err)
	}
	_, s2, err := Product(a, b, Options{Solver: SolverDolev, Net: net})
	if err != nil {
		t.Fatal(err)
	}
	if net.Rounds() != s1.Rounds+s2.Rounds {
		t.Errorf("network rounds %d ≠ %d + %d", net.Rounds(), s1.Rounds, s2.Rounds)
	}
}

func TestGossipProduct(t *testing.T) {
	rng := xrand.New(6)
	n := 5
	a := randomMatrix(n, 15, 0.2, rng.Split("a"))
	b := randomMatrix(n, 15, 0.2, rng.Split("b"))
	want, err := matrix.DistanceProduct(a, b)
	if err != nil {
		t.Fatal(err)
	}
	net, err := congest.NewNetwork(n)
	if err != nil {
		t.Fatal(err)
	}
	got, err := GossipProductPar(net, 1)(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Error("gossip product mismatch")
	}
	if net.Rounds() != int64(n) {
		t.Errorf("gossip rounds = %d, want n = %d", net.Rounds(), n)
	}
	// Nil network: pure local computation.
	got2, err := GossipProductPar(nil, 1)(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !got2.Equal(want) {
		t.Error("nil-network gossip mismatch")
	}
}

func TestFloorMid(t *testing.T) {
	cases := []struct{ lo, hi, want int64 }{
		{0, 10, 5},
		{-10, 0, -5},
		{-3, 2, -1},  // floor(-0.5) = -1
		{-5, -2, -4}, // floor(-3.5) = -4
		{-1, 0, -1},  // floor(-0.5) = -1
		{7, 8, 7},
	}
	for _, c := range cases {
		if got := floorMid(c.lo, c.hi); got != c.want {
			t.Errorf("floorMid(%d,%d) = %d, want %d", c.lo, c.hi, got, c.want)
		}
	}
}

func TestTripartiteConstruction(t *testing.T) {
	a, err := matrix.FromRows([][]int64{{1, graph.Inf}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := matrix.FromRows([][]int64{{5, 6}, {graph.Inf, 8}})
	if err != nil {
		t.Fatal(err)
	}
	d := matrix.New(2)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			d.Set(i, j, 0)
		}
	}
	g, s, err := tripartite(a, b, d)
	if err != nil {
		t.Fatal(err)
	}
	n := 2
	// f(i, 2n+k) = A[i,k].
	if w, ok := g.Weight(0, 2*n+0); !ok || w != 1 {
		t.Error("A-leg wrong")
	}
	if g.HasEdge(0, 2*n+1) {
		t.Error("Inf entry must have no edge")
	}
	// f(n+j, 2n+k) = B[k,j].
	if w, ok := g.Weight(n+1, 2*n+0); !ok || w != 6 {
		t.Error("B-leg wrong")
	}
	if g.HasEdge(n+0, 2*n+1) {
		t.Error("Inf B entry must have no edge")
	}
	// f(i, n+j) = -D[i,j] and S covers exactly the I×J pairs.
	if w, ok := g.Weight(0, n+0); !ok || w != 0 {
		t.Error("pair edge wrong")
	}
	if len(s) != n*n {
		t.Errorf("|S| = %d, want %d", len(s), n*n)
	}
	for p := range s {
		if p.U >= n || p.V < n || p.V >= 2*n {
			t.Errorf("S pair %v outside I×J", p)
		}
	}
}

func TestSolverString(t *testing.T) {
	for s, want := range map[Solver]string{
		SolverQuantum:       "quantum",
		SolverClassicalScan: "classical-scan",
		SolverDolev:         "dolev-listing",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
	if Solver(0).String() == "" {
		t.Error("unknown solver must render")
	}
}

package approx

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"qclique/internal/congest"
	"qclique/internal/engine"
	"qclique/internal/graph"
	"qclique/internal/matrix"
	"qclique/internal/xrand"
)

func TestLadderProperties(t *testing.T) {
	for _, eps := range []float64{0.05, 0.1, 0.5, 1.0, 3.0} {
		for _, bound := range []int64{0, 1, 7, 1000, 50000} {
			ladder, err := Ladder(eps, bound)
			if err != nil {
				t.Fatalf("Ladder(%v,%d): %v", eps, bound, err)
			}
			if ladder[0] != 0 {
				t.Fatalf("Ladder(%v,%d) starts at %d, want 0", eps, bound, ladder[0])
			}
			if top := ladder[len(ladder)-1]; top < bound {
				t.Fatalf("Ladder(%v,%d) top %d does not cover bound", eps, bound, top)
			}
			for i := 1; i < len(ladder); i++ {
				if ladder[i] <= ladder[i-1] {
					t.Fatalf("Ladder(%v,%d) not strictly increasing at %d", eps, bound, i)
				}
			}
			// The defining property: snapping inflates by strictly less
			// than 1+eps.
			for x := int64(0); x <= bound && x <= 2000; x++ {
				s := SnapUp(x, ladder)
				if s < x {
					t.Fatalf("SnapUp(%d) = %d undercuts", x, s)
				}
				if float64(s) >= (1+eps)*float64(x)+1e-9 && x > 0 {
					t.Fatalf("eps=%v: SnapUp(%d) = %d exceeds the 1+eps factor", eps, x, s)
				}
			}
		}
	}
}

func TestLadderErrors(t *testing.T) {
	if _, err := Ladder(0, 10); !errors.Is(err, ErrBadEpsilon) {
		t.Errorf("eps=0: err = %v, want ErrBadEpsilon", err)
	}
	if _, err := Ladder(-0.5, 10); !errors.Is(err, ErrBadEpsilon) {
		t.Errorf("eps<0: err = %v, want ErrBadEpsilon", err)
	}
	if _, err := Ladder(0.5, -1); err == nil {
		t.Error("negative bound must fail")
	}
	if _, err := Ladder(0.5, graph.Inf); err == nil {
		t.Error("bound at Inf must fail rather than overflow")
	}
}

// TestLadderTinyEpsilonFailsFast: adversarially small epsilons must be
// rejected in O(1), not spin the ladder loop for unbounded CPU (1e-18
// does not even advance 1+eps in float64; 1e-9 would take ~10^10 growth
// steps for a large bound).
func TestLadderTinyEpsilonFailsFast(t *testing.T) {
	for _, eps := range []float64{1e-18, 1e-12, 1e-9} {
		if _, err := Ladder(eps, 1<<40); !errors.Is(err, ErrBadEpsilon) {
			t.Errorf("eps=%v: err = %v, want ErrBadEpsilon", eps, err)
		}
	}
}

// TestLadderBoundNearWeightDomain: legal bounds close to the weight-domain
// ceiling must build (the overflow guard used to trip on the growth step
// after the ladder already covered the bound).
func TestLadderBoundNearWeightDomain(t *testing.T) {
	bound := int64(1) << 60
	ladder, err := Ladder(1.0, bound)
	if err != nil {
		t.Fatalf("Ladder(1.0, 2^60): %v", err)
	}
	if top := ladder[len(ladder)-1]; top < bound {
		t.Fatalf("top %d does not cover bound %d", top, bound)
	}
}

func TestValidEpsilonDomain(t *testing.T) {
	for _, ok := range []float64{MinEpsilon, 0.5, MaxEpsilon} {
		if !ValidEpsilon(ok) {
			t.Errorf("ValidEpsilon(%v) = false", ok)
		}
	}
	for _, bad := range []float64{0, -1, MinEpsilon / 2, MaxEpsilon * 2, math.Inf(1)} {
		if ValidEpsilon(bad) {
			t.Errorf("ValidEpsilon(%v) = true", bad)
		}
	}
}

func TestMeasureStretchDetectsLies(t *testing.T) {
	g := graph.NewDigraph(2)
	if err := g.SetArc(0, 1, 10); err != nil {
		t.Fatal(err)
	}
	mk := func(d01 int64) *matrix.Matrix {
		m := matrix.New(2)
		m.Set(0, 0, 0)
		m.Set(1, 1, 0)
		m.Set(0, 1, d01)
		return m
	}
	if s, err := MeasureStretch(g, mk(12)); err != nil || s != 1.2 {
		t.Errorf("honest overestimate: stretch = %v, %v; want 1.2", s, err)
	}
	if _, err := MeasureStretch(g, mk(9)); err == nil {
		t.Error("undercutting estimate must be rejected")
	}
	if _, err := MeasureStretch(g, mk(graph.Inf)); err == nil {
		t.Error("reachable-but-estimated-unreachable must be rejected")
	}
	unreachable := mk(10)
	unreachable.Set(1, 0, 5) // exact d(1,0) is Inf
	if _, err := MeasureStretch(g, unreachable); err == nil {
		t.Error("unreachable-but-estimated-finite must be rejected")
	}
}

// stretchCase is one (generator, graph) input of the stretch-bound sweep.
type stretchCase struct {
	name string
	g    *graph.Digraph
}

// chainCases builds the StrategyApproxQuantum inputs for one seed:
// nonnegative, possibly asymmetric, possibly disconnected.
func chainCases(t *testing.T, seed uint64) []stretchCase {
	t.Helper()
	rng := xrand.New(seed)
	dense, err := graph.RandomDigraph(18, graph.DigraphOpts{ArcProb: 0.4, MinWeight: 0, MaxWeight: 9}, rng.Split("dense"))
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := graph.RandomDigraph(18, graph.DigraphOpts{ArcProb: 0.12, MinWeight: 1, MaxWeight: 40}, rng.Split("sparse"))
	if err != nil {
		t.Fatal(err)
	}
	grid, err := graph.GridDigraph(4, 4, 12, rng.Split("grid"))
	if err != nil {
		t.Fatal(err)
	}
	return []stretchCase{{"dense", dense}, {"sparse", sparse}, {"grid", grid}}
}

// skeleton runs the four phases of a skeletonRun built from an engine
// request for g, in a plain loop: the engine's stages without the engine.
// It computes (2+ε)-approximate APSP distances for the weight-symmetric
// nonnegative digraph g: every entry d̂ of the run's dist satisfies
// d ≤ d̂ ≤ (2+ε)·d, with reachability preserved exactly. It returns the
// run and the rounds charged.
func skeleton(g *graph.Digraph, eps float64, seed uint64) (*skeletonRun, int64, error) {
	net, err := congest.NewNetwork(max(g.N(), 1))
	if err != nil {
		return nil, 0, err
	}
	r, err := newSkeletonRun(&engine.Request{G: g, Epsilon: eps, Seed: seed}, net)
	if err != nil {
		return nil, 0, err
	}
	if r.trivial() {
		return r, net.Rounds(), nil
	}
	ctx := context.Background()
	for _, phase := range []func(context.Context) error{r.knnBalls, r.sampleSkeleton, r.mssp, r.combine} {
		if err := phase(ctx); err != nil {
			return nil, 0, err
		}
	}
	return r, net.Rounds(), nil
}

// skeletonCases builds the StrategyApproxSkeleton inputs for one seed:
// weight-symmetric and nonnegative.
func skeletonCases(t *testing.T, seed uint64) []stretchCase {
	t.Helper()
	rng := xrand.New(seed)
	sparse, err := graph.RandomSymmetricDigraph(40, graph.DigraphOpts{ArcProb: 0.12, MinWeight: 1, MaxWeight: 30}, rng.Split("sparse"))
	if err != nil {
		t.Fatal(err)
	}
	dense, err := graph.RandomSymmetricDigraph(28, graph.DigraphOpts{ArcProb: 0.5, MinWeight: 0, MaxWeight: 12}, rng.Split("dense"))
	if err != nil {
		t.Fatal(err)
	}
	// A symmetric grid: long shortest paths, the workload where hub routing
	// actually has to stretch.
	const rows, cols = 6, 6
	grid := graph.NewDigraph(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	gr := rng.Split("grid")
	set := func(a, b int) {
		w := 1 + gr.Int64N(15)
		if err := grid.SetArc(a, b, w); err != nil {
			t.Fatal(err)
		}
		if err := grid.SetArc(b, a, w); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				set(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				set(id(r, c), id(r+1, c))
			}
		}
	}
	return []stretchCase{{"sparse", sparse}, {"dense", dense}, {"grid", grid}}
}

func TestSkeletonStretchWithinGuarantee(t *testing.T) {
	for seed := uint64(0); seed < 3; seed++ {
		for _, tc := range skeletonCases(t, seed) {
			for _, eps := range []float64{0.2, 1.0} {
				r, rounds, err := skeleton(tc.g, eps, seed)
				if err != nil {
					t.Fatalf("seed %d %s eps %v: %v", seed, tc.name, eps, err)
				}
				stretch, err := MeasureStretch(tc.g, r.dist)
				if err != nil {
					t.Fatalf("seed %d %s eps %v: %v", seed, tc.name, eps, err)
				}
				if stretch > 2+eps {
					t.Errorf("seed %d %s eps %v: observed stretch %v exceeds guarantee %v", seed, tc.name, eps, stretch, 2+eps)
				}
				if rounds <= 0 {
					t.Errorf("seed %d %s: no rounds charged", seed, tc.name)
				}
				if size := len(r.skeleton); size <= 0 || size > tc.g.N() {
					t.Errorf("seed %d %s: skeleton size %d out of range", seed, tc.name, size)
				}
			}
		}
	}
}

func TestSkeletonRejectsBadInputs(t *testing.T) {
	asym := graph.NewDigraph(3)
	if err := asym.SetArc(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := skeleton(asym, 0.5, 0); !errors.Is(err, ErrAsymmetric) {
		t.Errorf("asymmetric input: err = %v, want ErrAsymmetric", err)
	}
	neg := graph.NewDigraph(3)
	if err := neg.SetArc(0, 1, -2); err != nil {
		t.Fatal(err)
	}
	if err := neg.SetArc(1, 0, -2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := skeleton(neg, 0.5, 0); !errors.Is(err, ErrNegativeWeight) {
		t.Errorf("negative weights: err = %v, want ErrNegativeWeight", err)
	}
}

func TestSkeletonDeterministicPerSeed(t *testing.T) {
	g, err := graph.RandomSymmetricDigraph(24, graph.DigraphOpts{ArcProb: 0.2, MinWeight: 1, MaxWeight: 9}, xrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	run := func(seed uint64) (*matrix.Matrix, int64) {
		r, rounds, err := skeleton(g, 0.4, seed)
		if err != nil {
			t.Fatal(err)
		}
		return r.dist, rounds
	}
	d1, r1 := run(5)
	d2, r2 := run(5)
	if !d1.Equal(d2) || r1 != r2 {
		t.Error("equal seeds must replay identical skeleton runs")
	}
}

func TestSkeletonTrivialSizes(t *testing.T) {
	for n := 0; n <= 2; n++ {
		g := graph.NewDigraph(n)
		if n == 2 {
			if err := g.SetArc(0, 1, 3); err != nil {
				t.Fatal(err)
			}
			if err := g.SetArc(1, 0, 3); err != nil {
				t.Fatal(err)
			}
		}
		r, _, err := skeleton(g, 0.5, 0)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		dist := r.dist
		if dist.N() != n {
			t.Fatalf("n=%d: got %d×%d matrix", n, dist.N(), dist.N())
		}
		if n == 2 && dist.At(0, 1) != 3 {
			t.Errorf("n=2: d(0,1) = %d, want 3", dist.At(0, 1))
		}
	}
}

func TestPowRoot(t *testing.T) {
	for _, p := range []int{1, 2, 6, 7} {
		got := powRoot(1.5, p)
		if math.Abs(math.Pow(got, float64(p))-1.5) > 1e-12 {
			t.Errorf("powRoot(1.5,%d)^%d = %v, want 1.5", p, p, math.Pow(got, float64(p)))
		}
	}
}

func ExampleLadder() {
	ladder, _ := Ladder(0.5, 20)
	fmt.Println(ladder)
	// Output: [0 1 2 3 5 7 11 17 25]
}

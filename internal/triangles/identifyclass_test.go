package triangles

import (
	"errors"
	"testing"

	"qclique/internal/congest"
	"qclique/internal/graph"
	"qclique/internal/xrand"
)

// identifySetup builds the pieces runIdentifyClass needs.
func identifySetup(t *testing.T, n int, seed uint64, edgeProb float64) (*congest.Network, *Partitions, *Instance, *placement) {
	t.Helper()
	pt, err := NewPartitions(n)
	if err != nil {
		t.Fatal(err)
	}
	net, err := congest.NewNetwork(n)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(seed)
	g, err := graph.RandomUndirected(n, graph.UndirectedOpts{EdgeProb: edgeProb, MinWeight: -10, MaxWeight: 12}, rng)
	if err != nil {
		t.Fatal(err)
	}
	inst := &Instance{G: g}
	pl, err := runPlacement(net, pt, inst.legs(), DataDirect, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	return net, pt, inst, pl
}

func TestIdentifyClassProducesClasses(t *testing.T) {
	net, pt, inst, pl := identifySetup(t, 81, 3, 0.5)
	cls, err := runIdentifyClass(net, pt, inst, pl, PaperParams(), NewScratch(), xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(cls.classOf) != pt.NumTriples() {
		t.Fatalf("classified %d triples, want %d", len(cls.classOf), pt.NumTriples())
	}
	for _, c := range cls.classOf {
		if c < 0 || c > cls.maxClass {
			t.Fatalf("class %d outside [0,%d]", c, cls.maxClass)
		}
	}
	// classesFor partitions the fine blocks per group.
	q := pt.NumCoarse()
	for u := 0; u < q; u++ {
		for v := 0; v < q; v++ {
			total := 0
			for a := 0; a <= cls.maxClass; a++ {
				total += len(cls.classesFor(u, v, a))
			}
			if total != pt.NumFine() {
				t.Fatalf("group (%d,%d): classes cover %d of %d blocks", u, v, total, pt.NumFine())
			}
		}
	}
	// Some class must be populated (they partition the triples).
	populated := false
	for a := 0; a <= cls.maxClass; a++ {
		if cls.maxClassSize(a) > 0 {
			populated = true
			break
		}
	}
	if !populated {
		t.Error("no class populated")
	}
	if net.Rounds() <= 0 {
		t.Error("IdentifyClass must charge rounds")
	}
}

func TestIdentifyClassAccuracyAgainstDelta(t *testing.T) {
	// Proposition 5 accuracy, checked through the same path the
	// experiment harness uses.
	net, pt, inst, pl := identifySetup(t, 81, 9, 0.55)
	_ = net
	cls, err := runIdentifyClass(congestMust(t, 81), pt, inst, pl, PaperParams(), NewScratch(), xrand.New(4))
	if err != nil {
		t.Fatal(err)
	}
	params := PaperParams()
	q, s := pt.NumCoarse(), pt.NumFine()
	bad := 0
	total := 0
	for u := 0; u < q; u++ {
		for v := 0; v < q; v++ {
			for w := 0; w < s; w++ {
				alpha := cls.classOf[pt.TripleIndex(TripleLabel{U: u, V: v, W: w})]
				lo, hi := Proposition5Bounds(alpha, 81, params)
				d := float64(deltaSize(pt, inst, pl, u, v, w))
				total++
				if d < lo || d > hi {
					bad++
				}
			}
		}
	}
	if bad*50 > total { // demand ≥ 98% within bounds
		t.Errorf("%d/%d triples outside their Proposition 5 interval", bad, total)
	}
}

func congestMust(t *testing.T, n int) *congest.Network {
	t.Helper()
	net, err := congest.NewNetwork(n)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestIdentifyClassAbort(t *testing.T) {
	net, pt, inst, pl := identifySetup(t, 32, 5, 0.8)
	params := PaperParams()
	params.ClassSample = 1e9 // select everything
	params.ClassAbort = 1e-9 // abort immediately
	_, err := runIdentifyClass(net, pt, inst, pl, params, NewScratch(), xrand.New(2))
	var ia *IdentifyAbortError
	if !errors.As(err, &ia) {
		t.Fatalf("err = %v, want IdentifyAbortError", err)
	}
	if ia.Error() == "" {
		t.Error("empty abort message")
	}
}

// TestIdentifyClassMatchesPerOrientationCounts holds IdentifyClass, which
// counts each unordered group once, to Figure 2 as printed: every triple
// (u,v,w) counts the sampled pairs of its own orientation's bucket, a pair
// {a,b} with a in coarse block u and b in v, against its own leg sum
// f(a,c)+f(c,b). Low class thresholds spread the triples over several
// classes, and one graph puts a third of its edges at ±(Inf−1), so the
// counts meet saturated sums.
func TestIdentifyClassMatchesPerOrientationCounts(t *testing.T) {
	params := PaperParams()
	params.ClassThreshold = 0.2
	for _, tc := range []struct {
		n          int
		saturating bool
	}{{32, false}, {81, false}, {48, true}} {
		pt, err := NewPartitions(tc.n)
		if err != nil {
			t.Fatal(err)
		}
		rng := xrand.New(uint64(tc.n))
		g, err := graph.RandomUndirected(tc.n, graph.UndirectedOpts{EdgeProb: 0.5, MinWeight: -10, MaxWeight: 12}, rng)
		if err != nil {
			t.Fatal(err)
		}
		if tc.saturating {
			for a := 0; a < tc.n; a++ {
				for c := a + 1; c < tc.n; c++ {
					if g.HasEdge(a, c) && rng.Bool(1.0/3) {
						w := graph.Inf - 1
						if rng.Bool(0.5) {
							w = -w
						}
						if err := g.SetEdge(a, c, w); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
		}
		inst := &Instance{G: g}
		pl, err := runPlacement(congestMust(t, tc.n), pt, g, DataDirect, NewScratch())
		if err != nil {
			t.Fatal(err)
		}
		sc := NewScratch()
		cls, err := runIdentifyClass(congestMust(t, tc.n), pt, inst, pl, params, sc, xrand.New(5))
		if err != nil {
			t.Fatal(err)
		}
		r := sc.idPairs // R, as broadcast in Step 1
		q, s := pt.NumCoarse(), pt.NumFine()
		seen := map[int]bool{}
		for u := 0; u < q; u++ {
			for v := 0; v < q; v++ {
				for w := 0; w < s; w++ {
					d := 0
					for _, rp := range r {
						a, b := rp.a, rp.b
						if pt.CoarseOf(a) != u {
							a, b = b, a
						}
						if pt.CoarseOf(a) != u || pt.CoarseOf(b) != v {
							continue
						}
						if pl.legSumBelow(u, v, w, a, b, -rp.w) {
							d++
						}
					}
					want := classForCount(d, tc.n, params)
					if got := cls.classOf[pt.TripleIndex(TripleLabel{U: u, V: v, W: w})]; got != want {
						t.Fatalf("n=%d: triple (%d,%d,%d) has class %d, its own orientation counts %d (class %d)", tc.n, u, v, w, got, d, want)
					}
					seen[want] = true
				}
			}
		}
		if len(seen) < 2 {
			t.Fatalf("n=%d: every triple in one class %v; the check compares nothing", tc.n, seen)
		}
	}
}

func TestIdentifyClassEmptyS(t *testing.T) {
	net, pt, inst, pl := identifySetup(t, 16, 6, 0.5)
	inst.S = graph.NewPairSet(16) // empty S: nothing sampled, all class 0
	cls, err := runIdentifyClass(net, pt, inst, pl, PaperParams(), NewScratch(), xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cls.classOf {
		if c != 0 {
			t.Fatal("empty S must classify every triple as 0")
		}
	}
}

func TestDeltaSizeMatchesGamma(t *testing.T) {
	// Σ_w |Δ(u,v;w)| over fine blocks counts each triangle-involved pair
	// per block containing a witness; for a pair with one witness w the
	// pair contributes exactly 1 to the block of w.
	g := graph.NewUndirected(16)
	set := func(a, b int, w int64) {
		t.Helper()
		if err := g.SetEdge(a, b, w); err != nil {
			t.Fatal(err)
		}
	}
	set(0, 1, -10)
	set(0, 2, 1)
	set(1, 2, 1) // triangle {0,1,2}, witness 2 for pair {0,1}
	pt, err := NewPartitions(16)
	if err != nil {
		t.Fatal(err)
	}
	net := congestMust(t, 16)
	inst := &Instance{G: g}
	pl, err := runPlacement(net, pt, inst.legs(), DataDirect, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	u := pt.CoarseOf(0)
	v := pt.CoarseOf(1)
	sum := 0
	for w := 0; w < pt.NumFine(); w++ {
		sum += deltaSize(pt, inst, pl, u, v, w)
	}
	// Pairs {0,1}, {0,2}, {1,2} are all in negative triangles; pairs in
	// this (u,v) group contribute once per witness block. {0,1} has
	// witness 2; depending on the partition {0,2} and {1,2} may share the
	// group. At minimum the sum counts pair {0,1} once.
	if sum < 1 {
		t.Errorf("delta sum = %d, want >= 1", sum)
	}
}

func TestClassForCountThresholds(t *testing.T) {
	params := PaperParams()
	n := 81
	for alpha := 0; alpha < 6; alpha++ {
		thr := params.classThreshold(n, alpha)
		// Just below the α threshold → class ≤ α; at the threshold →
		// class > α.
		below := classForCount(int(thr)-1, n, params)
		at := classForCount(int(thr)+1, n, params)
		if below > alpha {
			t.Errorf("count %d classified %d, want ≤ %d", int(thr)-1, below, alpha)
		}
		if at <= alpha {
			t.Errorf("count %d classified %d, want > %d", int(thr)+1, at, alpha)
		}
	}
}

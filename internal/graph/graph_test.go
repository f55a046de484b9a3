package graph

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"qclique/internal/xrand"
)

func TestDigraphBasics(t *testing.T) {
	g := NewDigraph(4)
	if g.N() != 4 {
		t.Fatalf("N() = %d, want 4", g.N())
	}
	if err := g.SetArc(0, 1, 5); err != nil {
		t.Fatalf("SetArc: %v", err)
	}
	if err := g.SetArc(1, 0, -3); err != nil {
		t.Fatalf("SetArc: %v", err)
	}
	w, ok := g.Weight(0, 1)
	if !ok || w != 5 {
		t.Errorf("Weight(0,1) = %d,%v, want 5,true", w, ok)
	}
	w, ok = g.Weight(1, 0)
	if !ok || w != -3 {
		t.Errorf("Weight(1,0) = %d,%v, want -3,true", w, ok)
	}
	if _, ok := g.Weight(0, 2); ok {
		t.Error("Weight(0,2) should not exist")
	}
	if g.ArcCount() != 2 {
		t.Errorf("ArcCount = %d, want 2", g.ArcCount())
	}
}

func TestDigraphRejectsSelfLoopAndRange(t *testing.T) {
	g := NewDigraph(3)
	if err := g.SetArc(1, 1, 0); err == nil {
		t.Error("self-loop should be rejected")
	}
	if err := g.SetArc(0, 3, 1); err == nil {
		t.Error("out-of-range vertex should be rejected")
	}
	if err := g.SetArc(-1, 0, 1); err == nil {
		t.Error("negative vertex should be rejected")
	}
}

// TestSettersRejectNonFiniteWeights: a weight at or beyond ±Inf is a
// sentinel (NoEdge is Inf), so both setters refuse it and leave the graph
// unchanged; the range's ends, ±(Inf−1), are weights.
func TestSettersRejectNonFiniteWeights(t *testing.T) {
	d, u := NewDigraph(3), NewUndirected(3)
	for _, w := range []int64{math.MinInt64, NegInf, Inf, math.MaxInt64} {
		if err := d.SetArc(0, 1, w); err == nil {
			t.Errorf("SetArc(0, 1, %d) accepted", w)
		}
		if err := u.SetEdge(0, 1, w); err == nil {
			t.Errorf("SetEdge(0, 1, %d) accepted", w)
		}
	}
	if d.ArcCount() != 0 || edgeCount(u) != 0 {
		t.Fatalf("rejected weights stored: %d arcs, %d edges", d.ArcCount(), edgeCount(u))
	}
	for _, w := range []int64{NegInf + 1, Inf - 1} {
		if err := d.SetArc(0, 1, w); err != nil {
			t.Error(err)
		}
		if err := u.SetEdge(0, 1, w); err != nil {
			t.Error(err)
		}
	}
}

func TestDigraphRowAndClone(t *testing.T) {
	g := NewDigraph(3)
	if err := g.SetArc(0, 1, 7); err != nil {
		t.Fatal(err)
	}
	row := g.Row(0)
	if row[1] != 7 || row[0] != NoEdge || row[2] != NoEdge {
		t.Errorf("Row(0) = %v", row)
	}
	row[1] = 99 // must not alias internal state
	if w, _ := g.Weight(0, 1); w != 7 {
		t.Error("Row must return a copy")
	}
	c := g.Clone()
	if err := c.SetArc(0, 2, 1); err != nil {
		t.Fatal(err)
	}
	if _, ok := g.Weight(0, 2); ok {
		t.Error("Clone must not alias original")
	}
}

func TestUndirectedSymmetry(t *testing.T) {
	g := NewUndirected(5)
	if err := g.SetEdge(3, 1, -4); err != nil {
		t.Fatal(err)
	}
	w1, ok1 := g.Weight(1, 3)
	w2, ok2 := g.Weight(3, 1)
	if !ok1 || !ok2 || w1 != -4 || w2 != -4 {
		t.Errorf("edge not symmetric: (%d,%v) (%d,%v)", w1, ok1, w2, ok2)
	}
	if edgeCount(g) != 1 {
		t.Errorf("edge count = %d, want 1", edgeCount(g))
	}
}

func TestUndirectedSubgraph(t *testing.T) {
	g := NewUndirected(4)
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			if err := g.SetEdge(u, v, int64(u+v)); err != nil {
				t.Fatal(err)
			}
		}
	}
	sub := NewUndirected(4)
	if err := g.SubgraphInto(sub, func(u, v int) bool { return u == 0 }); err != nil {
		t.Fatal(err)
	}
	if edgeCount(sub) != 3 {
		t.Errorf("subgraph edges = %d, want 3", edgeCount(sub))
	}
	if !sub.HasEdge(0, 2) || sub.HasEdge(1, 2) {
		t.Error("subgraph kept wrong edges")
	}
}

func TestSaturatingAdd(t *testing.T) {
	cases := []struct {
		a, b, want int64
	}{
		{1, 2, 3},
		{Inf, 5, Inf},
		{5, Inf, Inf},
		{NegInf, -5, NegInf},
		{Inf, NegInf, Inf}, // "no path" wins
		{Inf - 1, Inf - 1, Inf},
		{NegInf + 1, NegInf + 1, NegInf},
		{-7, 7, 0},
	}
	for _, c := range cases {
		if got := SaturatingAdd(c.a, c.b); got != c.want {
			t.Errorf("SaturatingAdd(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestSaturatingAddNeverOverflows(t *testing.T) {
	f := func(a, b int64) bool {
		// Clamp inputs into the extended-weight domain.
		clamp := func(x int64) int64 {
			if x > Inf {
				return Inf
			}
			if x < NegInf {
				return NegInf
			}
			return x
		}
		s := SaturatingAdd(clamp(a), clamp(b))
		return s >= NegInf && s <= Inf
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPairNormalization(t *testing.T) {
	p := MakePair(7, 2)
	if p.U != 2 || p.V != 7 {
		t.Errorf("MakePair(7,2) = %v", p)
	}
	if MakePair(2, 7) != p {
		t.Error("MakePair must normalize order")
	}
	if !p.Contains(7) || p.Contains(3) {
		t.Error("Contains wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("MakePair(3,3) should panic")
		}
	}()
	MakePair(3, 3)
}

func TestFloydWarshallSmall(t *testing.T) {
	g := NewDigraph(4)
	arcs := []struct {
		u, v int
		w    int64
	}{
		{0, 1, 1}, {1, 2, -2}, {2, 3, 3}, {0, 3, 10}, {3, 0, 1},
	}
	for _, a := range arcs {
		if err := g.SetArc(a.u, a.v, a.w); err != nil {
			t.Fatal(err)
		}
	}
	dist, err := FloydWarshall(g)
	if err != nil {
		t.Fatal(err)
	}
	n := 4
	want := map[[2]int]int64{
		{0, 1}: 1, {0, 2}: -1, {0, 3}: 2, {1, 3}: 1, {3, 1}: 2, {2, 0}: 4,
	}
	for k, v := range want {
		if got := dist[k[0]*n+k[1]]; got != v {
			t.Errorf("d(%d,%d) = %d, want %d", k[0], k[1], got, v)
		}
	}
	if dist[0*n+0] != 0 {
		t.Error("diagonal must be 0")
	}
}

func TestFloydWarshallUnreachable(t *testing.T) {
	g := NewDigraph(3)
	if err := g.SetArc(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	dist, err := FloydWarshall(g)
	if err != nil {
		t.Fatal(err)
	}
	if dist[0*3+2] != Inf {
		t.Errorf("d(0,2) = %d, want Inf", dist[0*3+2])
	}
	if dist[1*3+0] != Inf {
		t.Errorf("d(1,0) = %d, want Inf", dist[1*3+0])
	}
}

func TestFloydWarshallNegativeCycle(t *testing.T) {
	g := NewDigraph(3)
	if err := g.SetArc(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.SetArc(1, 2, -5); err != nil {
		t.Fatal(err)
	}
	if err := g.SetArc(2, 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := FloydWarshall(g); err != ErrNegativeCycle {
		t.Errorf("err = %v, want ErrNegativeCycle", err)
	}
}

// TestFloydWarshallSaturatedPrefix: the path 3→0→1→2 weighs
// (Inf−1) + (Inf/2+1) + (−(Inf/2)−10) = Inf−10. Its prefix 3→0→1
// saturates at Inf, and one pass in the order 0, 1 answered d(3,2) = Inf.
func TestFloydWarshallSaturatedPrefix(t *testing.T) {
	g := NewDigraph(4)
	for _, a := range [][3]int64{{3, 0, Inf - 1}, {0, 1, Inf/2 + 1}, {1, 2, -(Inf / 2) - 10}} {
		if err := g.SetArc(int(a[0]), int(a[1]), a[2]); err != nil {
			t.Fatal(err)
		}
	}
	dist, err := FloydWarshall(g)
	if err != nil {
		t.Fatal(err)
	}
	if got := dist[3*4+2]; got != Inf-10 {
		t.Errorf("d(3,2) = %d, want Inf−10 = %d", got, Inf-10)
	}
}

func TestBellmanFordAgreesWithFloydWarshall(t *testing.T) {
	rng := xrand.New(42)
	for trial := 0; trial < 20; trial++ {
		g, err := RandomDigraph(12, DigraphOpts{
			ArcProb:          0.4,
			MinWeight:        -8,
			MaxWeight:        20,
			NoNegativeCycles: true,
		}, rng.SplitN("trial", trial))
		if err != nil {
			t.Fatal(err)
		}
		fw, err := FloydWarshall(g)
		if err != nil {
			t.Fatalf("trial %d: unexpected negative cycle: %v", trial, err)
		}
		for src := 0; src < g.N(); src++ {
			bf, err := BellmanFord(g, src)
			if err != nil {
				t.Fatalf("trial %d src %d: %v", trial, src, err)
			}
			for v := 0; v < g.N(); v++ {
				if bf[v] != fw[src*g.N()+v] {
					t.Fatalf("trial %d: d(%d,%d): BF=%d FW=%d", trial, src, v, bf[v], fw[src*g.N()+v])
				}
			}
		}
	}
}

func TestBellmanFordNegativeCycle(t *testing.T) {
	g := NewDigraph(4)
	for _, a := range [][3]int64{{0, 1, 1}, {1, 2, -3}, {2, 1, 1}, {2, 3, 1}} {
		if err := g.SetArc(int(a[0]), int(a[1]), a[2]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := BellmanFord(g, 0); err != ErrNegativeCycle {
		t.Errorf("err = %v, want ErrNegativeCycle", err)
	}
	// The cycle is unreachable from 3, so SSSP from 3 succeeds.
	if _, err := BellmanFord(g, 3); err != nil {
		t.Errorf("err = %v, want nil (cycle unreachable)", err)
	}
}

func TestNoNegativeCyclesGenerator(t *testing.T) {
	rng := xrand.New(7)
	sawNegativeArc := false
	for trial := 0; trial < 30; trial++ {
		g, err := RandomDigraph(10, DigraphOpts{
			ArcProb:          0.5,
			MinWeight:        -20,
			MaxWeight:        20,
			NoNegativeCycles: true,
		}, rng.SplitN("t", trial))
		if err != nil {
			t.Fatal(err)
		}
		if hasNegativeCycle(g) {
			t.Fatalf("trial %d: generator produced a negative cycle", trial)
		}
		for u := 0; u < g.N(); u++ {
			for v := 0; v < g.N(); v++ {
				if w, ok := g.Weight(u, v); ok {
					if w < -20 || w > 20 {
						t.Fatalf("weight %d out of range", w)
					}
					if w < 0 {
						sawNegativeArc = true
					}
				}
			}
		}
	}
	if !sawNegativeArc {
		t.Error("generator should produce some negative arcs")
	}
}

func TestNegativeTrianglePrimitives(t *testing.T) {
	g := NewUndirected(5)
	// Triangle {0,1,2} with sum -1 (negative); triangle {1,2,3} with sum 3.
	edges := []struct {
		u, v int
		w    int64
	}{
		{0, 1, -5}, {0, 2, 2}, {1, 2, 2}, {1, 3, 1}, {2, 3, 0},
	}
	for _, e := range edges {
		if err := g.SetEdge(e.u, e.v, e.w); err != nil {
			t.Fatal(err)
		}
	}
	if !IsNegativeTriangle(g, 0, 1, 2) {
		t.Error("{0,1,2} should be negative")
	}
	if IsNegativeTriangle(g, 1, 2, 3) {
		t.Error("{1,2,3} sums to 3, not negative")
	}
	if IsNegativeTriangle(g, 0, 1, 4) {
		t.Error("missing edges cannot form a triangle")
	}
	tris := ListNegativeTriangles(g)
	if len(tris) != 1 || tris[0] != (Triangle{A: 0, B: 1, C: 2}) {
		t.Errorf("ListNegativeTriangles = %v", tris)
	}
	if gamma(g, 0, 1) != 1 || gamma(g, 1, 3) != 0 {
		t.Error("Gamma counts wrong")
	}
	edgeSet := EdgesInNegativeTriangles(g)
	want := map[Pair]bool{MakePair(0, 1): true, MakePair(0, 2): true, MakePair(1, 2): true}
	if len(edgeSet) != len(want) {
		t.Fatalf("EdgesInNegativeTriangles = %v, want %v", edgeSet, want)
	}
	for p := range want {
		if !edgeSet[p] {
			t.Errorf("missing pair %v", p)
		}
	}
}

func TestGammaCountsConsistency(t *testing.T) {
	rng := xrand.New(99)
	g, err := RandomUndirected(14, UndirectedOpts{EdgeProb: 0.6, MinWeight: -10, MaxWeight: 10}, rng)
	if err != nil {
		t.Fatal(err)
	}
	counts := GammaCounts(g)
	for p, c := range counts {
		if direct := gamma(g, p.U, p.V); direct != c {
			t.Errorf("Γ%v: map says %d, direct says %d", p, c, direct)
		}
	}
	// Triple-counting check: sum of Γ over pairs = 3 * #triangles.
	total := 0
	for _, c := range counts {
		total += c
	}
	if tris := ListNegativeTriangles(g); total != 3*len(tris) {
		t.Errorf("sum Γ = %d, want 3*%d", total, len(tris))
	}
	if mg := MaxGamma(g); mg < 0 {
		t.Errorf("MaxGamma = %d", mg)
	}
}

func TestPlantNegativeTriangles(t *testing.T) {
	rng := xrand.New(5)
	g, err := RandomUndirected(20, UndirectedOpts{EdgeProb: 0.3, MinWeight: 1, MaxWeight: 30}, rng)
	if err != nil {
		t.Fatal(err)
	}
	planted, err := PlantNegativeTriangles(g, 4, 20, rng.Split("plant"))
	if err != nil {
		t.Fatal(err)
	}
	if len(planted) != 4 {
		t.Fatalf("planted %d, want 4", len(planted))
	}
	for _, tri := range planted {
		if !IsNegativeTriangle(g, tri[0], tri[1], tri[2]) {
			t.Errorf("planted triple %v is not a negative triangle", tri)
		}
	}
	if _, err := PlantNegativeTriangles(NewUndirected(5), 2, 20, rng); err == nil {
		t.Error("planting 2 disjoint triangles in 5 vertices should fail")
	}
}

func TestGridAndRoadGenerators(t *testing.T) {
	rng := xrand.New(11)
	g, err := GridDigraph(3, 4, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 12 {
		t.Fatalf("grid N = %d", g.N())
	}
	// Grid arcs: horizontal 3*3=9, vertical 2*4=8, both directions.
	if got, want := g.ArcCount(), 2*(9+8); got != want {
		t.Errorf("grid arcs = %d, want %d", got, want)
	}
	if hasNegativeCycle(g) {
		t.Error("grid has positive weights only")
	}
	r, err := RoadNetwork(4, 4, 6, rng)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := FloydWarshall(r)
	if err != nil {
		t.Fatal(err)
	}
	// Grid with bidirectional arcs is connected.
	for i := 0; i < r.N(); i++ {
		for j := 0; j < r.N(); j++ {
			if dist[i*r.N()+j] >= Inf {
				t.Fatalf("road network should be connected: d(%d,%d)=Inf", i, j)
			}
		}
	}
	if _, err := GridDigraph(0, 3, 5, rng); err == nil {
		t.Error("degenerate grid should fail")
	}
}

func TestHubUndirected(t *testing.T) {
	rng := xrand.New(21)
	g, err := HubUndirected(30, 2, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	if MaxGamma(g) < 4 {
		t.Errorf("hub workload should have a high-Γ edge, got max Γ = %d", MaxGamma(g))
	}
	if _, err := HubUndirected(5, 3, 10, rng); err == nil {
		t.Error("oversized hub workload should fail")
	}
}

func TestMaxAbsWeight(t *testing.T) {
	g := NewDigraph(3)
	if g.MaxAbsWeight() != 0 {
		t.Error("empty graph MaxAbsWeight should be 0")
	}
	if err := g.SetArc(0, 1, -9); err != nil {
		t.Fatal(err)
	}
	if err := g.SetArc(1, 2, 4); err != nil {
		t.Fatal(err)
	}
	if g.MaxAbsWeight() != 9 {
		t.Errorf("MaxAbsWeight = %d, want 9", g.MaxAbsWeight())
	}
}

// edgeCount returns the number of (unordered) edges of g.
func edgeCount(g *Undirected) int {
	c := 0
	for u := 0; u < g.n; u++ {
		for v := u + 1; v < g.n; v++ {
			if g.w[u*g.n+v] != NoEdge {
				c++
			}
		}
	}
	return c
}

// hasNegativeCycle reports whether g contains a directed cycle of negative
// total weight.
func hasNegativeCycle(g *Digraph) bool {
	_, err := FloydWarshall(g)
	return errors.Is(err, ErrNegativeCycle)
}

// gamma returns Γ(u,v) by direct enumeration: the number of negative
// triangles of g involving the pair {u,v}. It is the reference GammaCounts
// is checked against.
func gamma(g *Undirected, u, v int) int {
	if !g.HasEdge(u, v) {
		return 0
	}
	count := 0
	for w := 0; w < g.N(); w++ {
		if w == u || w == v {
			continue
		}
		if IsNegativeTriangle(g, u, v, w) {
			count++
		}
	}
	return count
}

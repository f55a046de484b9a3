package triangles

import (
	"math"
	"testing"

	"qclique/internal/congest"
	"qclique/internal/graph"
	"qclique/internal/xrand"
)

func TestDolevExactRandomGraphs(t *testing.T) {
	for _, n := range []int{10, 27, 64, 100} {
		for seed := uint64(0); seed < 2; seed++ {
			inst := randomInstance(t, n, 500*uint64(n)+seed, 0.4)
			rep, err := DolevFindEdges(inst, nil)
			if err != nil {
				t.Fatal(err)
			}
			checkExact(t, rep.Edges, wantEdges(inst), "dolev")
			if rep.Blocks < 1 {
				t.Error("block count missing")
			}
		}
	}
}

func TestDolevRespectsSAndLegs(t *testing.T) {
	inst := randomInstance(t, 40, 3, 0.5)
	all := wantEdges(inst)
	if len(all) < 2 {
		t.Skip("too few triangle edges")
	}
	s := make(map[graph.Pair]bool)
	i := 0
	for p := range all {
		if i%2 == 0 {
			s[p] = true
		}
		i++
	}
	inst.S = s
	rng := xrand.New(4)
	inst.Legs = graph.NewUndirected(inst.G.N())
	if err := inst.G.SubgraphInto(inst.Legs, func(u, v int) bool { return rng.Bool(0.7) }); err != nil {
		t.Fatal(err)
	}
	rep, err := DolevFindEdges(inst, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkExact(t, rep.Edges, wantEdges(inst), "dolev-S-legs")
}

func TestDolevRoundsScaleLikeCubeRoot(t *testing.T) {
	// Rounds grow ~ n^{1/3}: the fitted exponent between n=64 and n=512
	// (8x in n) must be well below 1/2 and near 1/3.
	rounds := func(n int) int64 {
		inst := randomInstance(t, n, uint64(n), 0.2)
		rep, err := DolevFindEdges(inst, nil)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Rounds
	}
	r64 := rounds(64)
	r512 := rounds(512)
	exp := math.Log(float64(r512)/float64(r64)) / math.Log(512.0/64.0)
	if exp > 0.55 || exp < 0.1 {
		t.Errorf("Dolev round exponent = %f (r64=%d, r512=%d), want ≈ 1/3", exp, r64, r512)
	}
}

func TestDolevNilGraph(t *testing.T) {
	if _, err := DolevFindEdges(Instance{}, nil); err == nil {
		t.Error("nil graph must fail")
	}
}

func TestDolevSharedNetwork(t *testing.T) {
	inst := randomInstance(t, 27, 5, 0.4)
	net, err := congest.NewNetwork(27)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := DolevFindEdges(inst, net)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := DolevFindEdges(inst, net)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Rounds <= r1.Rounds {
		t.Error("shared network must accumulate")
	}
}

func TestDolevTinyGraphs(t *testing.T) {
	// n < 3: no triangles possible.
	for _, n := range []int{1, 2} {
		g := graph.NewUndirected(n)
		rep, err := DolevFindEdges(Instance{G: g}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Edges) != 0 {
			t.Errorf("n=%d: expected no edges", n)
		}
	}
	// n = 3 with one negative triangle.
	g := graph.NewUndirected(3)
	for _, e := range [][3]int64{{0, 1, -5}, {0, 2, 1}, {1, 2, 1}} {
		if err := g.SetEdge(int(e[0]), int(e[1]), e[2]); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := DolevFindEdges(Instance{G: g}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Edges) != 3 {
		t.Errorf("triangle must report all 3 edges, got %d", len(rep.Edges))
	}
}

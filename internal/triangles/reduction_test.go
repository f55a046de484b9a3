package triangles

import (
	"fmt"
	"testing"

	"qclique/internal/graph"
	"qclique/internal/xrand"
)

func TestFindEdgesExactSmall(t *testing.T) {
	for _, n := range []int{16, 40} {
		inst := randomInstance(t, n, uint64(n)+900, 0.45)
		rep, err := FindEdges(inst, Options{Seed: 17})
		if err != nil {
			t.Fatal(err)
		}
		checkExact(t, rep.Edges, wantEdges(inst), "findedges")
		if rep.PromiseCalls < 1 {
			t.Error("at least the final unsampled call must run")
		}
		// The final call is always the unsampled one.
		if rep.Levels[len(rep.Levels)-1] != -1 {
			t.Errorf("levels = %v, want trailing -1", rep.Levels)
		}
	}
}

func TestFindEdgesSamplingLevelsActivate(t *testing.T) {
	// With BenchParams (Reduction = 20) at n = 256, the while loop runs
	// for several levels: 20·2^i·log n ≤ n.
	rng := xrand.New(100)
	g, err := graph.RandomUndirected(256, graph.UndirectedOpts{EdgeProb: 0.08, MinWeight: 1, MaxWeight: 50}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := graph.PlantNegativeTriangles(g, 8, 40, rng.Split("p")); err != nil {
		t.Fatal(err)
	}
	p := BenchParams()
	inst := Instance{G: g}
	sc := NewScratch()
	rep, err := FindEdges(inst, Options{Seed: 5, Params: &p, Scratch: sc})
	if err != nil {
		t.Fatal(err)
	}
	if rep.PromiseCalls < 2 {
		t.Errorf("expected sampling levels to activate, calls=%d levels=%v", rep.PromiseCalls, rep.Levels)
	}
	checkExact(t, rep.Edges, wantEdges(inst), "findedges-levels")
	// A pair leaves the working S once found, so the calls' outputs are
	// disjoint and make up the report's edges; each call owns its set, so
	// a later FindEdges on the same scratch leaves them as they were.
	subs := make([]map[graph.Pair]bool, len(rep.SubReports))
	union := map[graph.Pair]bool{}
	for i, sub := range rep.SubReports {
		subs[i] = pairMap(sub.Edges)
		for p := range subs[i] {
			if union[p] {
				t.Errorf("pair %v reported by two promise calls", p)
			}
			union[p] = true
		}
	}
	checkExact(t, rep.Edges, union, "union of the promise calls")
	other := randomInstance(t, 256, 6, 0.3)
	if _, err := FindEdges(other, Options{Seed: 6, Params: &p, Scratch: sc}); err != nil {
		t.Fatal(err)
	}
	for i, sub := range rep.SubReports {
		checkExact(t, sub.Edges, subs[i], fmt.Sprintf("promise call %d after a later FindEdges", i))
	}
}

func TestFindEdgesHighGammaHubs(t *testing.T) {
	// Hub workloads have pairs with large Γ — the reduction must still
	// report them (they are caught at coarse sampling levels or the final
	// call).
	rng := xrand.New(7)
	g, err := graph.HubUndirected(48, 3, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	inst := Instance{G: g}
	rep, err := FindEdges(inst, Options{Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	checkExact(t, rep.Edges, wantEdges(inst), "hubs")
}

func TestFindEdgesClassicalMode(t *testing.T) {
	inst := randomInstance(t, 32, 44, 0.4)
	rep, err := FindEdges(inst, Options{Seed: 3, Mode: SearchClassicalScan})
	if err != nil {
		t.Fatal(err)
	}
	checkExact(t, rep.Edges, wantEdges(inst), "findedges-classical")
}

func TestFindEdgesRejectsPresetLegs(t *testing.T) {
	inst := randomInstance(t, 16, 1, 0.4)
	inst.Legs = inst.G
	if _, err := FindEdges(inst, Options{}); err == nil {
		t.Error("preset Legs must be rejected")
	}
	if _, err := FindEdges(Instance{}, Options{}); err == nil {
		t.Error("nil graph must be rejected")
	}
}

func TestFindEdgesRestrictedS(t *testing.T) {
	inst := randomInstance(t, 24, 55, 0.5)
	all := wantEdges(inst)
	if len(all) < 4 {
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
	inst.S = pairSetOf(inst.G.N(), s)
	rep, err := FindEdges(inst, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	checkExact(t, rep.Edges, wantEdges(inst), "findedges-S")
	// FindEdges works on a copy: the caller's S keeps every pair, found or
	// not.
	checkExact(t, inst.S, s, "input S after FindEdges")
}

func TestFindEdgesAgreesWithDolev(t *testing.T) {
	inst := randomInstance(t, 50, 66, 0.45)
	a, err := FindEdges(inst, Options{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	b, err := DolevFindEdges(inst, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkExact(t, a.Edges, pairMap(b.Edges), "findedges-vs-dolev")
}

// TestInstancesRejectForeignS: an S sized for another vertex count is an
// error in every entry point that reads it, not a silent miss.
func TestInstancesRejectForeignS(t *testing.T) {
	inst := randomInstance(t, 16, 2, 0.4)
	for _, n := range []int{15, 17} {
		inst.S = graph.NewPairSet(n)
		if _, err := FindEdges(inst, Options{}); err == nil {
			t.Errorf("FindEdges accepted an S over %d vertices for 16", n)
		}
		if _, err := FindEdgesWithPromise(inst, Options{}); err == nil {
			t.Errorf("FindEdgesWithPromise accepted an S over %d vertices for 16", n)
		}
		if _, err := DolevFindEdges(inst, nil); err == nil {
			t.Errorf("DolevFindEdges accepted an S over %d vertices for 16", n)
		}
	}
}

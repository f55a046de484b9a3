package triangles

import (
	"testing"

	"qclique/internal/congest"
	"qclique/internal/graph"
	"qclique/internal/xrand"
)

func TestCoveringTrialPaperParams(t *testing.T) {
	st, err := CoveringTrial(81, PaperParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Aborted {
		t.Error("paper constants should not abort at n=81")
	}
	if st.CoveredFraction < 1 {
		t.Errorf("coverage = %f, want 1 (Lemma 2 ii)", st.CoveredFraction)
	}
	if st.MaxPerVertex > st.Bound {
		t.Errorf("max per vertex %d exceeds bound %d", st.MaxPerVertex, st.Bound)
	}
}

func TestCoveringTrialForcedAbort(t *testing.T) {
	params := PaperParams()
	params.CoverSample = 1e9
	params.WellBalanced = 1e-9
	st, err := CoveringTrial(81, params, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Aborted {
		t.Error("pathological constants must abort")
	}
}

func TestCoveringTrialTinyN(t *testing.T) {
	st, err := CoveringTrial(4, PaperParams(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if st.CoveredFraction < 1 {
		t.Errorf("tiny n coverage = %f", st.CoveredFraction)
	}
}

func TestIdentifyClassTrialAccuracy(t *testing.T) {
	rng := xrand.New(4)
	g, err := graph.RandomUndirected(81, graph.UndirectedOpts{EdgeProb: 0.5, MinWeight: -10, MaxWeight: 12}, rng)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := IdentifyClassTrial(g, PaperParams(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if acc.Aborted {
		t.Skip("abort (low probability) — retry semantics covered elsewhere")
	}
	if acc.Triples == 0 {
		t.Fatal("no triples classified")
	}
	if float64(acc.Satisfied) < 0.98*float64(acc.Triples) {
		t.Errorf("only %d/%d triples within Proposition 5 intervals", acc.Satisfied, acc.Triples)
	}
}

func TestIdentifyClassTrialAbortPath(t *testing.T) {
	rng := xrand.New(6)
	g, err := graph.RandomUndirected(32, graph.UndirectedOpts{EdgeProb: 0.8, MinWeight: -5, MaxWeight: 5}, rng)
	if err != nil {
		t.Fatal(err)
	}
	params := PaperParams()
	params.ClassSample = 1e9
	params.ClassAbort = 1e-9
	acc, err := IdentifyClassTrial(g, params, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !acc.Aborted {
		t.Error("forced abort must surface")
	}
}

func TestCongestionTrialShowsReduction(t *testing.T) {
	rng := xrand.New(8)
	g, err := graph.RandomUndirected(81, graph.UndirectedOpts{EdgeProb: 0.2, MinWeight: 1, MaxWeight: 30}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := graph.PlantNegativeTriangles(g, 5, 20, rng.Split("p")); err != nil {
		t.Fatal(err)
	}
	p := BenchParams()
	st, err := CongestionTrial(g, p, 9)
	if err != nil {
		t.Fatal(err)
	}
	if st.Instances <= 0 {
		t.Fatal("no instances")
	}
	if st.NaiveMaxLinkLoad <= st.BalancedMaxLinkLoad {
		t.Errorf("naive %d should exceed balanced %d", st.NaiveMaxLinkLoad, st.BalancedMaxLinkLoad)
	}
	if st.SlotCap <= 0 {
		t.Error("slot cap missing")
	}

	// The balanced load is the Figure 4 schedule's own peak: replay the
	// trial's setup and run the schedule alone on a fresh network. The
	// placement, class identification and coverings that precede it may
	// load a link more heavily, and must not leak into the figure.
	pt, err := NewPartitions(g.N())
	if err != nil {
		t.Fatal(err)
	}
	setup, _ := congest.NewNetwork(g.N())
	rng = xrand.New(9)
	inst := &Instance{G: g}
	sc := NewScratch()
	pl, err := runPlacement(setup, pt, inst.legs(), DataDirect, sc)
	if err != nil {
		t.Fatal(err)
	}
	cls, err := runIdentifyClass(setup, pt, inst, pl, p, sc, rng.Split("identify"))
	if err != nil {
		t.Fatal(err)
	}
	cov, err := runCoverings(setup, pt, inst, p, sc, rng.Split("cover"))
	if err != nil {
		t.Fatal(err)
	}
	eval, _ := congest.NewNetwork(g.N())
	if _, err := newEvalBuilder(pt, pl, cov, cls, p, 0, sc, rng.Split("eval")).evalFunc()(eval); err != nil {
		t.Fatal(err)
	}
	if want := eval.Metrics().MaxLinkLoad; st.BalancedMaxLinkLoad != want {
		t.Errorf("balanced max-link load %d, but the schedule alone peaks at %d", st.BalancedMaxLinkLoad, want)
	}
}

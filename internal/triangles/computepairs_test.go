package triangles

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"qclique/internal/congest"
	"qclique/internal/graph"
	"qclique/internal/xrand"
)

// wantEdges computes the brute-force reference output for an instance,
// honoring the leg-graph semantics and the S restriction.
func wantEdges(inst Instance) map[graph.Pair]bool {
	n := inst.G.N()
	legs := inst.legs()
	out := make(map[graph.Pair]bool)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if !inst.inS(a, b) {
				continue
			}
			fab, ok := inst.G.Weight(a, b)
			if !ok {
				continue
			}
			for c := 0; c < n; c++ {
				if c == a || c == b {
					continue
				}
				la, ok := legs.Weight(a, c)
				if !ok {
					continue
				}
				lb, ok := legs.Weight(b, c)
				if !ok {
					continue
				}
				if graph.SaturatingAdd(graph.SaturatingAdd(fab, la), lb) < 0 {
					out[graph.MakePair(a, b)] = true
					break
				}
			}
		}
	}
	return out
}

func checkExact(t *testing.T, got, want map[graph.Pair]bool, label string) {
	t.Helper()
	for p := range want {
		if !got[p] {
			t.Errorf("%s: missing pair %v", label, p)
		}
	}
	for p := range got {
		if !want[p] {
			t.Errorf("%s: spurious pair %v", label, p)
		}
	}
}

func randomInstance(t *testing.T, n int, seed uint64, edgeProb float64) Instance {
	t.Helper()
	rng := xrand.New(seed)
	g, err := graph.RandomUndirected(n, graph.UndirectedOpts{EdgeProb: edgeProb, MinWeight: -10, MaxWeight: 25}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return Instance{G: g}
}

func TestFindEdgesWithPromiseQuantumExact(t *testing.T) {
	for _, n := range []int{16, 24, 81} {
		for seed := uint64(0); seed < 3; seed++ {
			inst := randomInstance(t, n, 100*uint64(n)+seed, 0.45)
			rep, err := FindEdgesWithPromise(inst, Options{Seed: seed})
			if err != nil {
				t.Fatalf("n=%d seed=%d: %v", n, seed, err)
			}
			checkExact(t, rep.Edges, wantEdges(inst), "quantum")
			if rep.Rounds <= 0 {
				t.Error("rounds must be positive")
			}
			if rep.Mode != SearchQuantum {
				t.Errorf("mode = %v", rep.Mode)
			}
		}
	}
}

func TestFindEdgesWithPromiseClassicalExact(t *testing.T) {
	for _, n := range []int{16, 81} {
		inst := randomInstance(t, n, uint64(n), 0.45)
		rep, err := FindEdgesWithPromise(inst, Options{Seed: 5, Mode: SearchClassicalScan})
		if err != nil {
			t.Fatal(err)
		}
		checkExact(t, rep.Edges, wantEdges(inst), "classical")
		if rep.Mode != SearchClassicalScan {
			t.Errorf("mode = %v", rep.Mode)
		}
	}
}

func TestFindEdgesWithPromiseNoTriangles(t *testing.T) {
	// All-positive weights: no negative triangles, empty output.
	rng := xrand.New(7)
	g, err := graph.RandomUndirected(25, graph.UndirectedOpts{EdgeProb: 0.5, MinWeight: 1, MaxWeight: 10}, rng)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := FindEdgesWithPromise(Instance{G: g}, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Edges) != 0 {
		t.Errorf("expected empty output, got %d pairs", len(rep.Edges))
	}
}

func TestFindEdgesWithPromiseRespectsS(t *testing.T) {
	inst := randomInstance(t, 24, 9, 0.5)
	all := wantEdges(inst)
	if len(all) < 4 {
		t.Skip("workload produced too few triangle edges")
	}
	// Restrict S to half of the positive pairs plus some negatives.
	s := make(map[graph.Pair]bool)
	i := 0
	for p := range all {
		if i%2 == 0 {
			s[p] = true
		}
		i++
	}
	s[graph.MakePair(0, 1)] = true // likely not in a triangle; harmless either way
	inst.S = s
	rep, err := FindEdgesWithPromise(inst, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	checkExact(t, rep.Edges, wantEdges(inst), "restricted-S")
	for p := range rep.Edges {
		if !s[p] {
			t.Errorf("output pair %v outside S", p)
		}
	}
}

func TestFindEdgesWithPromiseLegGraph(t *testing.T) {
	// Leg semantics: removing a leg edge from Legs (but not from G) must
	// remove triangles that needed it.
	g := graph.NewUndirected(16)
	mustSet := func(a, b int, w int64) {
		t.Helper()
		if err := g.SetEdge(a, b, w); err != nil {
			t.Fatal(err)
		}
	}
	mustSet(0, 1, -10)
	mustSet(0, 2, 1)
	mustSet(1, 2, 1) // negative triangle {0,1,2}
	mustSet(0, 3, 1)
	mustSet(1, 3, 1) // negative triangle {0,1,3}
	legs := graph.NewUndirected(16)
	if err := g.SubgraphInto(legs, func(u, v int) bool { return u != 0 || (v != 2 && v != 3) }); err != nil {
		t.Fatal(err)
	}
	inst := Instance{G: g, Legs: legs}
	rep, err := FindEdgesWithPromise(inst, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := wantEdges(inst)
	checkExact(t, rep.Edges, want, "leg-graph")
	// {0,1} needed leg (0,2) or (0,3): both cut, so although {0,1} closes
	// triangles in G, it must not be reported. But {0,2} as a pair uses
	// legs (0,1)... check a specific absence: pair {0,1} requires legs
	// {0,c},{1,c} both in Legs; c=2 and c=3 both lost their {0,c} leg.
	if rep.Edges[graph.MakePair(0, 1)] {
		t.Error("pair {0,1} reported despite cut legs")
	}
}

// TestFindEdgesWithPromiseDataDirectMatchesFull holds the charge-only Step 1
// that every solve runs (DataDirect, the zero Options.Data) to the
// payload-carrying oracle (DataFull) over sizes, seeds and both parameter
// presets, through the promise protocol and through the Proposition 1
// reduction the pipeline calls. Everything the reports carry must match:
// the modes differ only in whether Step 1's payloads are built.
func TestFindEdgesWithPromiseDataDirectMatchesFull(t *testing.T) {
	presets := []struct {
		name   string
		params Params
	}{{"paper", PaperParams()}, {"bench", BenchParams()}}
	for _, n := range []int{16, 48, 81} {
		for _, preset := range presets {
			for seed := uint64(0); seed < 4; seed++ {
				params := preset.params
				inst := randomInstance(t, n, 1000*uint64(n)+seed, 0.4)
				t.Run(fmt.Sprintf("n=%d/%s/seed=%d", n, preset.name, seed), func(t *testing.T) {
					promise := func(m DataMode) (*Report, error) {
						return FindEdgesWithPromise(inst, Options{Seed: seed, Params: &params, Data: m})
					}
					full, err := promise(DataFull)
					if err != nil {
						t.Fatal(err)
					}
					direct, err := promise(DataDirect)
					if err != nil {
						t.Fatal(err)
					}
					sameReport(t, "promise", full, direct)

					reduce := func(m DataMode) (*FindEdgesReport, error) {
						return FindEdges(inst, Options{Seed: seed, Params: &params, Data: m})
					}
					fullFE, err := reduce(DataFull)
					if err != nil {
						t.Fatal(err)
					}
					directFE, err := reduce(DataDirect)
					if err != nil {
						t.Fatal(err)
					}
					sameFindEdgesReport(t, fullFE, directFE)
				})
			}
		}
	}

	// Armed with a mixed fault plan, both modes must draw the same faults in
	// the same phases and fail alike: the charge-only Step 1 emits one load
	// per payload message, in message order. The plan seeds put the one
	// unrecovered fault after Step 1 and in it; there the error names the
	// simulator call that failed, ExchangeBalanced or ChargeBalanced, and
	// that word is the only difference.
	for _, tc := range []struct {
		name      string
		planSeed  uint64
		faultStep string // label of the phase the unrecovered fault hits
	}{
		{"fault-after-step1", 1, "qsearch/converge"},
		{"fault-in-step1", 5, "computepairs/step1-placement"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan := congest.FaultPlan{
				Seed: tc.planSeed, DropRate: 0.05, DupRate: 0.02, DelayRate: 0.03, MaxDelayRounds: 2,
				CorruptRate: 0.05, CrashRate: 0.02, CrashDownPhases: 1,
			}
			inst := randomInstance(t, 48, 48, 0.4)
			params := BenchParams()
			run := func(m DataMode) (congest.Metrics, error) {
				net, err := congest.NewNetwork(48, congest.WithFaults(plan))
				if err != nil {
					t.Fatal(err)
				}
				_, err = FindEdges(inst, Options{Seed: 3, Params: &params, Net: net, Data: m})
				return net.Metrics(), err
			}
			fullMetrics, fullErr := run(DataFull)
			directMetrics, directErr := run(DataDirect)
			if fullMetrics != directMetrics {
				t.Errorf("metrics differ: full %+v, direct %+v", fullMetrics, directMetrics)
			}
			var fe *congest.FaultError
			if !errors.As(directErr, &fe) || fe.Label != tc.faultStep {
				t.Fatalf("direct run: err = %v, want an injected fault in %q", directErr, tc.faultStep)
			}
			fullText := strings.Replace(fmt.Sprint(fullErr), "exchange ", "charge ", 1)
			if fullText != directErr.Error() {
				t.Errorf("errors differ:\nfull   %v\ndirect %v", fullErr, directErr)
			}
		})
	}
}

// sameReport requires two promise-call reports to agree on everything
// they carry.
func sameReport(t *testing.T, label string, full, direct *Report) {
	t.Helper()
	checkExact(t, direct.Edges, full.Edges, label)
	if full.Rounds != direct.Rounds {
		t.Errorf("%s: rounds differ: full %d, direct %d", label, full.Rounds, direct.Rounds)
	}
	if full.Metrics != direct.Metrics {
		t.Errorf("%s: metrics differ: full %+v, direct %+v", label, full.Metrics, direct.Metrics)
	}
	if full.Retries != direct.Retries {
		t.Errorf("%s: retries differ: full %d, direct %d", label, full.Retries, direct.Retries)
	}
	if !slices.Equal(full.Classes, direct.Classes) {
		t.Errorf("%s: classes differ: full %+v, direct %+v", label, full.Classes, direct.Classes)
	}
	if full.Mode != direct.Mode {
		t.Errorf("%s: modes differ: full %v, direct %v", label, full.Mode, direct.Mode)
	}
}

// sameFindEdgesReport is sameReport for the Proposition 1 reduction, down
// to each promise call's report.
func sameFindEdgesReport(t *testing.T, full, direct *FindEdgesReport) {
	t.Helper()
	checkExact(t, direct.Edges, full.Edges, "findedges")
	if full.Rounds != direct.Rounds || full.Metrics != direct.Metrics {
		t.Errorf("findedges: rounds/metrics differ: full %d %+v, direct %d %+v",
			full.Rounds, full.Metrics, direct.Rounds, direct.Metrics)
	}
	if full.PromiseCalls != direct.PromiseCalls || !slices.Equal(full.Levels, direct.Levels) {
		t.Fatalf("findedges: calls differ: full %d at levels %v, direct %d at levels %v",
			full.PromiseCalls, full.Levels, direct.PromiseCalls, direct.Levels)
	}
	if len(full.SubReports) != len(direct.SubReports) {
		t.Fatalf("findedges: %d sub-reports vs %d", len(full.SubReports), len(direct.SubReports))
	}
	for i := range full.SubReports {
		sameReport(t, fmt.Sprintf("findedges call %d", i), full.SubReports[i], direct.SubReports[i])
	}
}

func TestFindEdgesWithPromiseDeterministicForSeed(t *testing.T) {
	inst := randomInstance(t, 32, 5, 0.45)
	a, err := FindEdgesWithPromise(inst, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := FindEdgesWithPromise(inst, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if a.Rounds != b.Rounds || len(a.Edges) != len(b.Edges) {
		t.Error("same seed must reproduce the same run")
	}
}

func TestFindEdgesWithPromiseSharedNetworkAccumulates(t *testing.T) {
	inst := randomInstance(t, 16, 6, 0.5)
	net, err := congest.NewNetwork(16)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := FindEdgesWithPromise(inst, Options{Seed: 1, Net: net})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := FindEdgesWithPromise(inst, Options{Seed: 2, Net: net})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Rounds <= r1.Rounds {
		t.Error("shared network must accumulate rounds")
	}
}

func TestFindEdgesWithPromiseNilGraph(t *testing.T) {
	if _, err := FindEdgesWithPromise(Instance{}, Options{}); err == nil {
		t.Error("nil graph must fail")
	}
}

func TestFindEdgesWithPromiseRetriesOnAbort(t *testing.T) {
	// Force IdentifyClass aborts with a tiny abort bound; MaxRetries=0
	// must surface the abort as an error.
	inst := randomInstance(t, 32, 8, 0.6)
	params := PaperParams()
	params.ClassAbort = 1e-9
	params.ClassSample = 1e9
	params.MaxRetries = 0
	_, err := FindEdgesWithPromise(inst, Options{Seed: 1, Params: &params})
	if err == nil {
		t.Fatal("expected exhausted retries")
	}
	var ia *IdentifyAbortError
	if !errors.As(err, &ia) {
		t.Errorf("err = %v, want IdentifyAbortError in chain", err)
	}
}

func TestClassicalScanCostsMoreEvalCallsThanQuantum(t *testing.T) {
	// The classical scan pays |X| evaluations per class; the quantum
	// search pays Õ(√|X|). At n where |X| is big enough the call counts
	// must separate. Compare eval calls per class for n=81 (|X| ≤ 9).
	inst := randomInstance(t, 81, 13, 0.45)
	q, err := FindEdgesWithPromise(inst, Options{Seed: 4, Mode: SearchQuantum})
	if err != nil {
		t.Fatal(err)
	}
	c, err := FindEdgesWithPromise(inst, Options{Seed: 4, Mode: SearchClassicalScan})
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Classes) == 0 || len(c.Classes) == 0 {
		t.Skip("no classes searched")
	}
	// The classical scan's calls equal the space size exactly.
	for _, st := range c.Classes {
		if st.EvalCalls != int64(st.SpaceSize) {
			t.Errorf("classical class %d: calls=%d, want %d", st.Alpha, st.EvalCalls, st.SpaceSize)
		}
	}
}

func TestSearchModeString(t *testing.T) {
	if SearchQuantum.String() != "quantum" || SearchClassicalScan.String() != "classical-scan" {
		t.Error("mode names wrong")
	}
	if SearchMode(0).String() == "" {
		t.Error("zero mode should render")
	}
}

func TestProposition5BoundsShape(t *testing.T) {
	params := PaperParams()
	lo, hi := Proposition5Bounds(0, 100, params)
	if lo != 0 || hi != 200 {
		t.Errorf("α=0 bounds = (%f,%f), want (0,200)", lo, hi)
	}
	lo, hi = Proposition5Bounds(3, 100, params)
	if lo != 100 || hi != 1600 {
		t.Errorf("α=3 bounds = (%f,%f), want (100,1600)", lo, hi)
	}
}

func TestClassForCount(t *testing.T) {
	params := PaperParams()
	n := 256
	// Below the first threshold → class 0.
	if c := classForCount(0, n, params); c != 0 {
		t.Errorf("class(0) = %d", c)
	}
	thr0 := params.classThreshold(n, 0)
	if c := classForCount(int(thr0)+1, n, params); c < 1 {
		t.Errorf("count above threshold must leave class 0")
	}
	// Monotone in d.
	prev := 0
	for d := 0; d < 100000; d *= 2 {
		c := classForCount(d, n, params)
		if c < prev {
			t.Fatalf("classForCount not monotone at %d", d)
		}
		prev = c
		if d == 0 {
			d = 1
		}
	}
}

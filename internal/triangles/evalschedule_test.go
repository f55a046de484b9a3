package triangles

import (
	"errors"
	"math"
	"slices"
	"testing"

	"qclique/internal/congest"
	"qclique/internal/graph"
	"qclique/internal/qsearch"
	"qclique/internal/xrand"
)

// instanceRows inverts a row index: entry i is the row instance i answers.
func instanceRows(index qsearch.RowIndex) []int32 {
	of := make([]int32, index.Instances())
	for r := 0; r < index.Rows(); r++ {
		for _, i := range index.Row(r) {
			of[i] = int32(r)
		}
	}
	return of
}

// rowGroup returns the group a row of group g's instances is computed in:
// (u,v) with u ≤ v, the orientation Step 2 keys the unordered group by.
func rowGroup(pt *Partitions, g int) int {
	q := pt.NumCoarse()
	u, v := g/q, g%q
	return min(u, v)*q + max(u, v)
}

// buildEval assembles an evalBuilder for class alpha on a random workload.
func buildEval(t *testing.T, n int, seed uint64, params Params, alpha int) (*congest.Network, *evalBuilder, *searchState) {
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
	g, err := graph.RandomUndirected(n, graph.UndirectedOpts{EdgeProb: 0.5, MinWeight: -8, MaxWeight: 15}, rng)
	if err != nil {
		t.Fatal(err)
	}
	inst := &Instance{G: g}
	pl, err := runPlacement(net, pt, inst.legs(), DataDirect, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	cls, err := runIdentifyClass(net, pt, inst, pl, params, NewScratch(), rng.Split("identify"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := runCoverings(net, pt, inst, params, NewScratch(), rng.Split("cover"))
	if err != nil {
		t.Fatal(err)
	}
	return net, newEvalBuilder(pt, pl, st, cls, params, alpha, NewScratch(), rng.Split("eval")), st
}

func TestEvalFuncTruthTablesMatchBruteForce(t *testing.T) {
	net, b, st := buildEval(t, 32, 1, PaperParams(), 0)
	if b.spaceSize == 0 {
		t.Skip("class 0 empty")
	}
	tabs, err := b.evalFunc()(net)
	if err != nil {
		t.Fatal(err)
	}
	// One row per unique (unordered group, pair) question, with Step 2's
	// index.
	if len(tabs.Rows) != len(st.rows) {
		t.Fatalf("rows = %d, unique rows = %d", len(tabs.Rows), len(st.rows))
	}
	if tabs.Index.Rows() != len(st.rows) || tabs.Index.Instances() != st.index.Instances() {
		t.Fatalf("index groups %d instances into %d rows, Step 2 %d into %d",
			tabs.Index.Instances(), tabs.Index.Rows(), st.index.Instances(), len(st.rows))
	}
	of := instanceRows(tabs.Index)
	// Instances are listed in label order, so the coverings give each
	// instance's label, pair and weight independently of its row.
	type instance struct {
		label  int
		pair   graph.Pair
		weight int64
	}
	var refs []instance
	for li, cov := range st.coverings {
		for pi, pr := range cov.Pairs {
			refs = append(refs, instance{li, pr, cov.Weights[pi]})
		}
	}
	if len(refs) != len(of) {
		t.Fatalf("coverings hold %d pairs, instances = %d", len(refs), len(of))
	}
	// Spot check each table entry against the brute-force triangle test.
	rng := xrand.New(99)
	checked := 0
	for trial := 0; trial < 500 && checked < 200; trial++ {
		i := rng.IntN(len(of))
		ref := refs[i]
		g := b.groupOf(ref.label)
		if row := st.rows[of[i]]; row != (pairRow{group: rowGroup(b.pt, g), pair: ref.pair, weight: ref.weight}) {
			t.Fatalf("instance %d of label %d has row %+v, want group %d pair %v weight %d", i, ref.label, row, rowGroup(b.pt, g), ref.pair, ref.weight)
		}
		// The instance's own group's class list: a row shared with the
		// swapped group must answer both.
		list := b.classLists[g]
		if len(list) == 0 {
			continue
		}
		xi := rng.IntN(b.spaceSize)
		want := false
		if xi < len(list) {
			w := list[xi]
			for _, c := range b.pt.Fine[w] {
				if c == ref.pair.U || c == ref.pair.V {
					continue
				}
				la, ok := b.pl.legs.Weight(ref.pair.U, c)
				if !ok {
					continue
				}
				lb, ok := b.pl.legs.Weight(ref.pair.V, c)
				if !ok {
					continue
				}
				if graph.SaturatingAdd(la, lb) < -ref.weight {
					want = true
					break
				}
			}
		}
		if got := tabs.Rows[of[i]][xi]; got != want {
			t.Fatalf("instance %d element %d: table %v, brute force %v", i, xi, got, want)
		}
		checked++
	}
	if checked < 50 {
		t.Fatalf("only %d entries checked", checked)
	}
}

func TestEvalFuncSlotOverflowAborts(t *testing.T) {
	params := PaperParams()
	params.SlotCap = 1e-9 // every nonempty list overflows
	net, b, st := buildEval(t, 32, 2, params, 0)
	if b.spaceSize == 0 || st.index.Instances() == 0 {
		t.Skip("no work")
	}
	_, err := b.evalFunc()(net)
	var so *SlotOverflowError
	if !errors.As(err, &so) {
		t.Fatalf("err = %v, want SlotOverflowError", err)
	}
	if so.Error() == "" {
		t.Error("empty overflow message")
	}
}

func TestEvalFuncChargesRounds(t *testing.T) {
	net, b, _ := buildEval(t, 32, 3, PaperParams(), 0)
	if b.spaceSize == 0 {
		t.Skip("class 0 empty")
	}
	before := net.Rounds()
	if _, err := b.evalFunc()(net); err != nil {
		t.Fatal(err)
	}
	if net.Rounds() <= before {
		t.Error("evaluation must charge rounds")
	}
}

func TestEvalBuilderPadding(t *testing.T) {
	_, b, _ := buildEval(t, 32, 4, PaperParams(), 0)
	// Padded entries (beyond the group's class list) must always be false.
	if b.spaceSize == 0 {
		t.Skip("class 0 empty")
	}
	for g, list := range b.classLists {
		if len(list) >= b.spaceSize {
			continue
		}
		row := b.truthRow(g, graph.MakePair(0, 1), 100000) // huge weight: nothing negative
		for i := len(list); i < b.spaceSize; i++ {
			if row[i] {
				t.Fatal("padded element marked true")
			}
		}
		break
	}
}

func TestCloneNodeMapping(t *testing.T) {
	_, b, _ := buildEval(t, 32, 5, PaperParams(), 0)
	tl := TripleLabel{U: 0, V: 0, W: 0}
	if b.cloneNode(tl, 0, 1) != b.pt.TripleNode(tl) {
		t.Error("y=0 must map to the triple node")
	}
	if b.cloneNode(tl, 0, 4) != b.pt.TripleNode(tl) {
		t.Error("y=0 with dup>1 must map to the triple node")
	}
	n := b.pt.N()
	for y := 1; y < 4; y++ {
		c := b.cloneNode(tl, y, 4)
		if c < 0 || int(c) >= n {
			t.Fatalf("clone node %d out of range", c)
		}
	}
}

func TestRunCoveringsKeepsOnlySEdges(t *testing.T) {
	pt, err := NewPartitions(16)
	if err != nil {
		t.Fatal(err)
	}
	net, err := congest.NewNetwork(16)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.NewUndirected(16)
	if err := g.SetEdge(0, 1, 5); err != nil {
		t.Fatal(err)
	}
	if err := g.SetEdge(2, 3, 7); err != nil {
		t.Fatal(err)
	}
	inst := &Instance{G: g, S: pairSetOf(16, map[graph.Pair]bool{graph.MakePair(0, 1): true})}
	st, err := runCoverings(net, pt, inst, PaperParams(), NewScratch(), xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, ri := range instanceRows(st.index) {
		row := st.rows[ri]
		if row.pair != graph.MakePair(0, 1) {
			t.Fatalf("kept pair %v outside S∩E", row.pair)
		}
		if row.weight != 5 {
			t.Fatalf("kept weight %d, want 5", row.weight)
		}
	}
	if st.index.Instances() == 0 {
		t.Error("the S pair should be covered by at least one Λx (paper constants sample everything at n=16)")
	}
}

// TestFigure5DuplicationPathCharges runs a class-α evaluation with a
// Figure 5 duplication factor of 4. α is the workload's largest non-empty
// class ≥ 1 under the paper's constants, and ClassSize, which sets only the
// factor 2^α/(ClassSize·ln n), is chosen so that the factor is 4 there (a
// class found under forced thresholds sits near α = 15, where the factor
// is about 10⁸). The evaluation must charge the Step 0 broadcast as a
// phase of its own, one more than at factor 1, whose loads — every class-α
// triple's Step 1 tables to its three clone labels — cost rounds, and must
// still return one row per Step 2 row over Step 2's index.
func TestFigure5DuplicationPathCharges(t *testing.T) {
	const n, seed, dup = 32, 6, 4
	params := PaperParams()
	alpha := 0
	for a := 1; a <= 20; a++ {
		if _, b, _ := buildEval(t, n, seed, params, a); b.spaceSize > 0 {
			alpha = a
		}
	}
	if alpha == 0 {
		t.Fatal("no class above 0 is populated")
	}
	params.ClassSize = math.Exp2(float64(alpha)) / ((dup + 0.5) * logN(n))
	if got := params.duplication(n, alpha); got != dup {
		t.Fatalf("duplication(%d, %d) = %d, want %d", n, alpha, got, dup)
	}
	net, b, st := buildEval(t, n, seed, params, alpha)
	if st.index.Instances() == 0 {
		t.Fatal("no search instance")
	}

	q := b.pt.NumCoarse()
	var loads []congest.Load
	for g, list := range b.classLists {
		u, v := g/q, g%q
		for _, w := range list {
			tl := TripleLabel{U: u, V: v, W: w}
			src := b.pt.TripleNode(tl)
			words := int64((len(b.pt.Coarse[u]) + len(b.pt.Coarse[v])) * len(b.pt.Fine[w]))
			for y := 1; y < dup; y++ {
				if dst := b.cloneNode(tl, y, dup); dst != src {
					loads = append(loads, congest.Load{Src: src, Dst: dst, Words: words})
				}
			}
		}
	}
	ref := congestMust(t, n)
	if err := ref.ChargeBalanced("step0", loads); err != nil {
		t.Fatal(err)
	}
	if ref.Rounds() <= 0 {
		t.Fatalf("the Step 0 broadcast of α=%d costs %d rounds", alpha, ref.Rounds())
	}

	evaluate := func(b *evalBuilder, net *congest.Network) (congest.Metrics, qsearch.Tables) {
		t.Helper()
		before := net.Metrics()
		tabs, err := b.evalFunc()(net)
		if err != nil {
			t.Fatal(err)
		}
		return net.DeltaSince(before), tabs
	}
	got, tabs := evaluate(b, net)
	single := *b
	single.params.ClassSize = PaperParams().ClassSize
	plain, _ := evaluate(&single, congestMust(t, n))
	if got.Phases != plain.Phases+1 {
		t.Errorf("α=%d: evaluation charges %d phases at duplication %d, %d at 1; want Step 0 as one more", alpha, got.Phases, dup, plain.Phases)
	}
	if got.Rounds < ref.Rounds() {
		t.Errorf("α=%d: evaluation charges %d rounds, below its Step 0 broadcast's %d", alpha, got.Rounds, ref.Rounds())
	}
	if len(tabs.Rows) != len(st.rows) || tabs.Index.Instances() != st.index.Instances() {
		t.Fatalf("tables hold %d rows over %d instances, Step 2 has %d over %d", len(tabs.Rows), tabs.Index.Instances(), len(st.rows), st.index.Instances())
	}
	for r, row := range tabs.Rows {
		if len(row) != b.spaceSize {
			t.Fatalf("row %d has %d entries, search space %d", r, len(row), b.spaceSize)
		}
	}
}

// referenceStep2 is Step 2 label by label, as Section 5.1 states it: each
// label samples its own Λx(u,v), keeps the pairs of S∩E, and requests every
// sampled pair from its owner (the smaller endpoint) unless the label's own
// node owns it. It charges the per-owner loads, in first-request order, on
// net.
func referenceStep2(net *congest.Network, pt *Partitions, inst *Instance, params Params, rng *xrand.Source) ([][]graph.Pair, [][]int64, error) {
	pairs := make([][]graph.Pair, pt.NumSearchLabels())
	weights := make([][]int64, pt.NumSearchLabels())
	var loads []congest.Load
	for li := range pairs {
		label := pt.SearchFromIndex(li)
		dst := pt.SearchNode(label)
		sampled, err := pt.sampleCovering(label, params, rng.SplitN("covering", li))
		if err != nil {
			_ = net.Broadcast("computepairs/step2-abort", dst, 1)
			return nil, nil, err
		}
		var owners []int
		count := map[int]int64{}
		for _, pr := range sampled {
			if congest.NodeID(pr.U) != dst {
				if count[pr.U] == 0 {
					owners = append(owners, pr.U)
				}
				count[pr.U]++
			}
			if w, ok := inst.G.Weight(pr.U, pr.V); ok && inst.inS(pr.U, pr.V) {
				pairs[li] = append(pairs[li], pr)
				weights[li] = append(weights[li], w)
			}
		}
		for _, o := range owners {
			loads = append(loads,
				congest.Load{Src: dst, Dst: congest.NodeID(o), Words: 2 * count[o]},
				congest.Load{Src: congest.NodeID(o), Dst: dst, Words: 2 * count[o]},
			)
		}
	}
	return pairs, weights, net.ChargeBalanced("computepairs/step2-covering", loads)
}

// TestRunCoveringsMatchesPerLabelReference pins runCoverings to the
// per-label reference, both where the sampling probability clips at 1 (so
// a group's labels share one covering) and where it does not: the same
// coverings, instances whose rows hold their pair and weight and the
// orientation u ≤ v of their group, one row per pair, so one per
// (unordered group, pair), the same charge, and the same abort.
func TestRunCoveringsMatchesPerLabelReference(t *testing.T) {
	const n = 48
	clipped := PaperParams()
	unclipped := PaperParams()
	unclipped.CoverSample = 0.55
	if p := clipped.coverSampleProb(n); p < 1 {
		t.Fatalf("clipped setting samples with probability %g", p)
	}
	if p := unclipped.coverSampleProb(n); p < 0.2 || p > 0.4 {
		t.Fatalf("unclipped setting samples with probability %g", p)
	}
	pt, err := NewPartitions(n)
	if err != nil {
		t.Fatal(err)
	}
	// run executes both on fresh networks from the same seed.
	type result struct {
		st          *searchState
		err, refErr error
		got, want   congest.Metrics
		refPairs    [][]graph.Pair
		refWeights  [][]int64
	}
	run := func(params Params, inst *Instance, seed uint64) result {
		got, _ := congest.NewNetwork(n)
		want, _ := congest.NewNetwork(n)
		var r result
		r.st, r.err = runCoverings(got, pt, inst, params, NewScratch(), xrand.New(seed))
		r.refPairs, r.refWeights, r.refErr = referenceStep2(want, pt, inst, params, xrand.New(seed))
		r.got, r.want = got.Metrics(), want.Metrics()
		return r
	}
	// A balance bound of 15 passes the clipped group (0,0), whose vertices
	// touch 15 pairs, and aborts at group (0,1), whose vertices touch 16;
	// the unclipped one aborts wherever a vertex first draws more than 7.
	for _, tc := range []struct {
		name         string
		params       Params
		wellBalanced float64
	}{{"clipped", clipped, 1.45}, {"unclipped", unclipped, 0.6}} {
		for seed := uint64(1); seed <= 3; seed++ {
			rng := xrand.New(100 + seed)
			g, err := graph.RandomUndirected(n, graph.UndirectedOpts{EdgeProb: 0.5, MinWeight: -8, MaxWeight: 15}, rng)
			if err != nil {
				t.Fatal(err)
			}
			s := map[graph.Pair]bool{}
			for u := 0; u < n; u++ {
				for v := u + 1; v < n; v++ {
					if rng.Bool(0.7) {
						s[graph.MakePair(u, v)] = true
					}
				}
			}
			inst := &Instance{G: g, S: pairSetOf(n, s)}

			r := run(tc.params, inst, seed)
			if r.err != nil || r.refErr != nil {
				t.Fatalf("%s seed %d: runCoverings %v, reference %v", tc.name, seed, r.err, r.refErr)
			}
			if r.got != r.want {
				t.Errorf("%s seed %d: charged %+v, reference %+v", tc.name, seed, r.got, r.want)
			}
			st, pairs, weights := r.st, r.refPairs, r.refWeights
			seen := map[graph.Pair]bool{}
			for _, row := range st.rows {
				if seen[row.pair] {
					t.Fatalf("%s seed %d: two rows for pair %v", tc.name, seed, row.pair)
				}
				seen[row.pair] = true
			}
			of := instanceRows(st.index)
			used := make([]bool, len(st.rows))
			i := 0
			for li, cov := range st.coverings {
				if cov.Label != pt.SearchFromIndex(li) || !slices.Equal(cov.Pairs, pairs[li]) || !slices.Equal(cov.Weights, weights[li]) {
					t.Fatalf("%s seed %d: label %d covering differs from the reference", tc.name, seed, li)
				}
				for pi, pr := range pairs[li] {
					if i >= len(of) {
						t.Fatalf("%s seed %d: %d instances, reference has more", tc.name, seed, len(of))
					}
					ri := of[i]
					group := rowGroup(pt, li/pt.NumFine())
					if row := st.rows[ri]; row != (pairRow{group: group, pair: pr, weight: weights[li][pi]}) {
						t.Fatalf("%s seed %d: instance %d of label %d has row %+v, want pair %v weight %d", tc.name, seed, i, li, row, pr, weights[li][pi])
					}
					used[ri] = true
					i++
				}
			}
			if i != len(of) || slices.Contains(used, false) {
				t.Fatalf("%s seed %d: %d instances for %d reference pairs, every row used: %v", tc.name, seed, len(of), i, !slices.Contains(used, false))
			}

			abort := tc.params
			abort.WellBalanced = tc.wellBalanced
			r = run(abort, inst, seed)
			var nwb, refNwb *NotWellBalancedError
			if !errors.As(r.err, &nwb) || !errors.As(r.refErr, &refNwb) {
				t.Fatalf("%s seed %d: abort errors %v and %v, want NotWellBalancedError", tc.name, seed, r.err, r.refErr)
			}
			if *nwb != *refNwb || r.got != r.want {
				t.Errorf("%s seed %d: abort %v charging %+v, reference %v charging %+v", tc.name, seed, nwb, r.got, refNwb, r.want)
			}
			if tc.name == "clipped" && nwb.Label != (SearchLabel{U: 0, V: 1}) {
				t.Errorf("clipped seed %d: aborted at %+v, want (0,1,0)", seed, nwb.Label)
			}
		}
	}
}

package triangles

import (
	"cmp"
	"maps"
	"slices"
	"testing"

	"qclique/internal/congest"
	"qclique/internal/graph"
	"qclique/internal/xrand"
)

func placementPair(t *testing.T, n int, seed uint64) (*Partitions, *graph.Undirected) {
	t.Helper()
	pt, err := NewPartitions(n)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(seed)
	g, err := graph.RandomUndirected(n, graph.UndirectedOpts{EdgeProb: 0.5, MinWeight: -10, MaxWeight: 10}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return pt, g
}

// bruteMinLegSum is the reference for placement.minLegSum.
func bruteMinLegSum(pt *Partitions, g *graph.Undirected, w, a, b int) int64 {
	best := graph.Inf
	for _, c := range pt.Fine[w] {
		if c == a || c == b {
			continue
		}
		wa, ok := g.Weight(a, c)
		if !ok {
			continue
		}
		wb, ok := g.Weight(c, b)
		if !ok {
			continue
		}
		if s := graph.SaturatingAdd(wa, wb); s < best {
			best = s
		}
	}
	return best
}

func TestPlacementFullMatchesDirect(t *testing.T) {
	for _, n := range []int{16, 30, 81} {
		pt, g := placementPair(t, n, uint64(n))
		netFull, err := congest.NewNetwork(n)
		if err != nil {
			t.Fatal(err)
		}
		full, err := runPlacement(netFull, pt, g, DataFull, NewScratch())
		if err != nil {
			t.Fatal(err)
		}
		netDirect, err := congest.NewNetwork(n)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := runPlacement(netDirect, pt, g, DataDirect, NewScratch())
		if err != nil {
			t.Fatal(err)
		}
		// Identical round accounting.
		if netFull.Rounds() != netDirect.Rounds() {
			t.Errorf("n=%d: full %d rounds vs direct %d rounds", n, netFull.Rounds(), netDirect.Rounds())
		}
		// Identical leg sums against brute force, across all groups.
		rng := xrand.New(uint64(n) + 7)
		for trial := 0; trial < 200; trial++ {
			u := rng.IntN(pt.NumCoarse())
			v := rng.IntN(pt.NumCoarse())
			w := rng.IntN(pt.NumFine())
			a := pt.Coarse[u][rng.IntN(len(pt.Coarse[u]))]
			b := pt.Coarse[v][rng.IntN(len(pt.Coarse[v]))]
			if a == b {
				continue
			}
			want := bruteMinLegSum(pt, g, w, a, b)
			if got := full.minLegSum(u, v, w, a, b); got != want {
				t.Fatalf("n=%d full: minLegSum(%d,%d,%d,%d,%d) = %d, want %d", n, u, v, w, a, b, got, want)
			}
			if got := direct.minLegSum(u, v, w, a, b); got != want {
				t.Fatalf("n=%d direct: minLegSum = %d, want %d", n, got, want)
			}
		}
	}
}

// TestPlacementLoadListAudit checks that Step 1 charges for exactly the
// data the truth rows read. truthRowInto answers a pair (a ∈ Coarse[u],
// b ∈ Coarse[v]) in fine block w at the node h hosting triple (u,v,w), from
// the legs f(a,c) and f(c,b) for c ∈ Fine[w]. So h must receive one message
// of 3 header words plus |Fine[w]| weights from every x ∈ Coarse[u] and
// again from every x ∈ Coarse[v] (twice from each vertex when u = v),
// except from itself. That multiset is built from the partitions alone and
// compared with the load list the default (charge-only) mode caches, and the
// phase's rounds are recomputed from it by Lemma 1's 2·⌈L/n⌉ rule.
func TestPlacementLoadListAudit(t *testing.T) {
	type load struct {
		src, dst congest.NodeID
		words    int64
	}
	for _, n := range []int{16, 48, 81, 192} {
		pt, g := placementPair(t, n, uint64(n))
		want := make(map[load]int)
		perSrc := make([]int64, n)
		perDst := make([]int64, n)
		var total int64
		var needed int
		for ti := 0; ti < pt.NumTriples(); ti++ {
			tr := pt.TripleFromIndex(ti)
			h := pt.TripleNode(tr)
			words := int64(3 + len(pt.Fine[tr.W]))
			for _, block := range [][]int{pt.Coarse[tr.U], pt.Coarse[tr.V]} {
				for _, x := range block {
					if congest.NodeID(x) == h {
						continue
					}
					want[load{congest.NodeID(x), h, words}]++
					needed++
					perSrc[x] += words
					perDst[h] += words
					total += words
				}
			}
		}

		net, err := congest.NewNetwork(n)
		if err != nil {
			t.Fatal(err)
		}
		sc := NewScratch()
		if _, err := runPlacement(net, pt, g, Options{}.data(), sc); err != nil {
			t.Fatal(err)
		}
		got := make(map[load]int)
		for _, l := range sc.plLoads {
			got[load{l.Src, l.Dst, l.Words}]++
		}
		if !maps.Equal(got, want) {
			var diff []load
			for _, m := range []map[load]int{want, got} {
				for k := range m {
					if got[k] != want[k] && !slices.Contains(diff, k) {
						diff = append(diff, k)
					}
				}
			}
			slices.SortFunc(diff, func(x, y load) int {
				return cmp.Or(cmp.Compare(x.src, y.src), cmp.Compare(x.dst, y.dst), cmp.Compare(x.words, y.words))
			})
			for _, k := range diff[:min(len(diff), 5)] {
				t.Errorf("n=%d: load %d→%d of %d words charged %d times, truth rows need %d",
					n, k.src, k.dst, k.words, got[k], want[k])
			}
			t.Fatalf("n=%d: %d loads charged, %d needed; %d (src, dst, words) entries differ",
				n, len(sc.plLoads), needed, len(diff))
		}

		busiest := max(slices.Max(perSrc), slices.Max(perDst))
		wantRounds := 2 * ((busiest + int64(n) - 1) / int64(n))
		if m := net.Metrics(); m.Rounds != wantRounds || m.Words != total || m.Phases != 1 {
			t.Errorf("n=%d: phase charged %d rounds, %d words in %d phases; want %d rounds (max load %d), %d words, 1 phase",
				n, m.Rounds, m.Words, m.Phases, wantRounds, busiest, total)
		}
	}
}

// TestPromiseZeroDataBuildsNoPayloads pins the default: a promise call with
// the zero Options.Data charges Step 1 from the cached load list and never
// builds the payload path's arenas.
func TestPromiseZeroDataBuildsNoPayloads(t *testing.T) {
	inst := randomInstance(t, 48, 5, 0.4)
	sc := NewScratch()
	if _, err := FindEdgesWithPromise(inst, Options{Seed: 1, Scratch: sc}); err != nil {
		t.Fatal(err)
	}
	if sc.plData != nil || sc.plCells != nil || sc.plMsgs != nil {
		t.Errorf("payload arenas allocated: %d triple tables, %d cells, %d message headers",
			cap(sc.plData), cap(sc.plCells), cap(sc.plMsgs))
	}
	if sc.plLoadsN != 48 || len(sc.plLoads) == 0 {
		t.Errorf("load list not cached: n=%d, %d loads", sc.plLoadsN, len(sc.plLoads))
	}
}

func TestPlacementRoundsScaleAsQuarterPower(t *testing.T) {
	// Step 1 is O(n^{1/4}) rounds: measured rounds at n=16 vs n=256
	// (16× n growth) should grow ≈ 2× (= 16^{1/4}...·const), certainly
	// below 6×.
	rounds := func(n int) int64 {
		pt, g := placementPair(t, n, uint64(n))
		net, err := congest.NewNetwork(n)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := runPlacement(net, pt, g, DataDirect, NewScratch()); err != nil {
			t.Fatal(err)
		}
		return net.Rounds()
	}
	r16 := rounds(16)
	r256 := rounds(256)
	if ratio := float64(r256) / float64(r16); ratio > 6 {
		t.Errorf("placement rounds ratio %f (r16=%d r256=%d) too steep for n^{1/4}", ratio, r16, r256)
	}
}

func TestPlacementShortMessage(t *testing.T) {
	pt, g := placementPair(t, 16, 1)
	net, err := congest.NewNetwork(16)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := runPlacement(net, pt, g, DataFull, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.ingestChecked(congest.Message{Data: []congest.Word{1}}); err == nil {
		t.Error("short message must be rejected")
	}
}

func TestEncodeDecodeWeight(t *testing.T) {
	for _, w := range []int64{0, 1, -1, graph.Inf, graph.NegInf, 123456789, -987654321} {
		if decodeWeight(encodeWeight(w)) != w {
			t.Errorf("weight %d does not roundtrip", w)
		}
	}
}

func TestIndexInBlock(t *testing.T) {
	pt, err := NewPartitions(81)
	if err != nil {
		t.Fatal(err)
	}
	for bi, block := range pt.Coarse {
		for want, v := range block {
			if got := indexInBlock(block, v); got != want {
				t.Fatalf("block %d vertex %d: index %d, want %d", bi, v, got, want)
			}
		}
	}
}

package triangles

import (
	"testing"

	"qclique/internal/congest"
	"qclique/internal/graph"
	"qclique/internal/xrand"
)

// checkPruneExact holds every leg scan the leg-minimum prune guards to a
// plain scan, in both placement modes: placement.legSumBelow (the
// IdentifyClass counts), deltaSize (their exact form) and truthRowInto.
// Legs come from legs, pair weights from g. Each scan is asked three
// bounds per (a, b, w): −f(a,b) when the pair is an edge of g, the plain
// minimum leg sum m (answer false) and m+1 (answer true unless m
// saturates), so a prune that fires one step too early, or a leg minimum
// that misses a vertex, flips an answer. Truth rows take the −f(a,b) bound
// and the m and m+1 bounds of one random block, over a random subset of the
// blocks in random order, so the padding tail is checked too. The class
// lists are symmetric, as IdentifyClass makes them, and each row is
// computed in its group's orientation u ≤ v and held to the plain scans of
// both orientations, since Step 3 shares it between them.
func checkPruneExact(t testing.TB, pt *Partitions, g, legs *graph.Undirected, rng *xrand.Source) {
	t.Helper()
	n, q, s := pt.N(), pt.NumCoarse(), pt.NumFine()
	// plain[(a·n+b)·s+w] is the minimum leg sum through block w, by brute
	// force over the graph's Weight lookups.
	plain := make([]int64, n*n*s)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			for w := 0; w < s; w++ {
				plain[(a*n+b)*s+w] = bruteMinLegSum(pt, legs, w, a, b)
			}
		}
	}
	bounds := func(dst []int64, a, b, w int) []int64 {
		dst = dst[:0]
		if f, ok := g.Weight(a, b); ok {
			dst = append(dst, -f)
		}
		m := plain[(a*n+b)*s+w]
		return append(dst, m, graph.SaturatingAdd(m, 1))
	}
	inst := &Instance{G: g, Legs: legs}
	for _, mode := range []DataMode{DataDirect, DataFull} {
		name := map[DataMode]string{DataDirect: "DataDirect", DataFull: "DataFull"}[mode]
		net, err := congest.NewNetwork(n)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := runPlacement(net, pt, legs, mode, NewScratch())
		if err != nil {
			t.Fatal(err)
		}
		// IdentifyClass gives (u,v,w) and (v,u,w) one class, so the two
		// orientations of a group share one class list.
		lists := make([][]int, q*q)
		for u := 0; u < q; u++ {
			for v := u; v < q; v++ {
				var list []int
				for _, w := range rng.Perm(s) {
					if rng.Bool(0.8) {
						list = append(list, w)
					}
				}
				lists[u*q+v], lists[v*q+u] = list, list
			}
		}
		b := &evalBuilder{pt: pt, pl: pl, spaceSize: s, classLists: lists}
		row := make([]bool, s)
		var bs []int64
		for u := 0; u < q; u++ {
			for v := 0; v < q; v++ {
				group := u*q + v
				for _, a := range pt.Coarse[u] {
					for _, c := range pt.Coarse[v] {
						if a == c {
							continue
						}
						for w := 0; w < s; w++ {
							bs = bounds(bs, a, c, w)
							for _, bound := range bs {
								want := plain[(a*n+c)*s+w] < bound
								if got := pl.legSumBelow(u, v, w, a, c, bound); got != want {
									t.Fatalf("n=%d %s: legSumBelow(w=%d, a=%d, b=%d, bound %d) = %v, plain scan %v (block minima %d, %d)",
										n, name, w, a, c, bound, got, want, pl.blockMin[a*s+w], pl.blockMin[c*s+w])
								}
							}
						}
						// Step 3 computes a pair's row once, in the
						// orientation u ≤ v of its group, for the
						// instances of both orientations: the row must
						// answer the plain scans through a to c and
						// through c to a.
						pr := graph.MakePair(a, c)
						rowGroup := min(u, v)*q + max(u, v)
						bs = bounds(bs, a, c, rng.IntN(s))
						for _, bound := range bs {
							for i := range row {
								row[i] = true // stale marks must not survive
							}
							b.truthRowInto(row, rowGroup, pr, -bound)
							for i, got := range row {
								for _, e := range [2][2]int{{a, c}, {c, a}} {
									want := i < len(lists[group]) && plain[(e[0]*n+e[1])*s+lists[group][i]] < bound
									if got != want {
										t.Fatalf("n=%d %s: truth row of (%d,%d) computed in group (%d,%d) for group (%d,%d), bound %d: entry %d = %v, plain scan %d→%d %v",
											n, name, a, c, rowGroup/q, rowGroup%q, u, v, bound, i, got, e[0], e[1], want)
									}
								}
							}
						}
					}
				}
				for w := 0; w < s; w++ {
					want := 0
					for _, pr := range pt.PairsBetween(u, v) {
						f, ok := g.Weight(pr.U, pr.V)
						if !ok {
							continue
						}
						if plain[(pr.U*n+pr.V)*s+w] < -f {
							want++
						}
					}
					if got := deltaSize(pt, inst, pl, u, v, w); got != want {
						t.Fatalf("n=%d %s: |Δ(%d,%d;%d)| = %d, plain scans count %d", n, name, u, v, w, got, want)
					}
				}
			}
		}
	}
}

// TestLegMinimumPruneExact runs checkPruneExact over random leg graphs at
// four partition shapes, each with small weights, with a third of the
// edges at ±(Inf−1) so sums saturate, and with NegInf legs written through
// SetBipartiteBlock, which does not validate. The edge probability, 0.1,
// 0.35 or 0.6, rotates with n, so every weight regime meets every density.
func TestLegMinimumPruneExact(t *testing.T) {
	densities := []float64{0.1, 0.35, 0.6}
	for ni, n := range []int{16, 48, 81, 192} {
		pt, err := NewPartitions(n)
		if err != nil {
			t.Fatal(err)
		}
		for wi, weights := range []string{"small", "saturating", "unvalidated"} {
			p := densities[(ni+wi)%len(densities)]
			rng := xrand.New(uint64(n)*1000 + uint64(wi))
			g, err := graph.RandomUndirected(n, graph.UndirectedOpts{EdgeProb: p, MinWeight: -10, MaxWeight: 10}, rng)
			if err != nil {
				t.Fatal(err)
			}
			legs, err := graph.RandomUndirected(n, graph.UndirectedOpts{EdgeProb: p, MinWeight: -10, MaxWeight: 10}, rng)
			if err != nil {
				t.Fatal(err)
			}
			switch weights {
			case "saturating":
				for _, h := range []*graph.Undirected{g, legs} {
					for a := 0; a < n; a++ {
						for c := a + 1; c < n; c++ {
							if h.HasEdge(a, c) && rng.Bool(1.0/3) {
								w := graph.Inf - 1
								if rng.Bool(0.5) {
									w = -w
								}
								if err := h.SetEdge(a, c, w); err != nil {
									t.Fatal(err)
								}
							}
						}
					}
				}
			case "unvalidated":
				// NegInf legs between the first fine block and the rest of
				// the first coarse block, mixed with absent legs and the
				// saturating extremes.
				f0 := len(pt.Fine[0])
				nv := len(pt.Coarse[0]) - f0
				block := make([]int64, f0*nv)
				for i := range block {
					block[i] = []int64{graph.NegInf, graph.NoEdge, graph.Inf - 1, -(graph.Inf - 1), -3}[rng.IntN(5)]
				}
				if err := legs.SetBipartiteBlock(0, f0, f0, nv, block); err != nil {
					t.Fatal(err)
				}
			}
			checkPruneExact(t, pt, g, legs, rng)
		}
	}
}

// FuzzTruthRowPrune holds the pruned leg scans to plain scans on fuzzed
// small graphs: each vertex pair takes the next byte of data (cycling) as
// its weight, written unvalidated through SetBipartiteBlock, so legs and
// pair weights mix NoEdge, NegInf, ±(Inf−1) and small values freely. Each
// truth row, computed once for both orientations of its group, is held to
// the plain scans of both.
func FuzzTruthRowPrune(f *testing.F) {
	f.Add(uint8(16), uint64(1), []byte{9, 200, 3, 4, 5, 6, 7, 100, 250, 12})
	f.Add(uint8(3), uint64(2), []byte{2, 2, 2})
	f.Add(uint8(40), uint64(3), []byte{255, 254, 1, 0, 128, 77})
	f.Fuzz(func(t *testing.T, size uint8, seed uint64, data []byte) {
		n := 3 + int(size)%38
		if len(data) == 0 {
			data = []byte{0}
		}
		pt, err := NewPartitions(n)
		if err != nil {
			t.Fatal(err)
		}
		g := graph.NewUndirected(n)
		k := 0
		for a := 0; a < n; a++ {
			for c := a + 1; c < n; c++ {
				v := data[k%len(data)]
				k++
				var w int64
				switch v % 8 {
				case 0, 1:
					w = graph.NoEdge
				case 2:
					w = graph.Inf - 1
				case 3:
					w = -(graph.Inf - 1)
				case 4:
					w = graph.NegInf
				default:
					w = int64(int8(v)) / 8
				}
				if err := g.SetBipartiteBlock(a, 1, c, 1, []int64{w}); err != nil {
					t.Fatal(err)
				}
			}
		}
		checkPruneExact(t, pt, g, g, xrand.New(seed))
	})
}

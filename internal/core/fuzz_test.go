package core

import (
	"errors"
	"math/big"
	"slices"
	"testing"

	"qclique/internal/approx"
	"qclique/internal/engine"
	"qclique/internal/graph"
	"qclique/internal/triangles"
)

// fuzzBases are the weights FuzzSolve's arcs offset by a small delta: zero
// (so small values), the int32-compaction boundary and near-saturation
// values, whose sums saturate.
var fuzzBases = []int64{0, 1 << 29, -(1 << 29), 1 << 30, -(1 << 30), 1 << 31,
	graph.Inf - 1, graph.NegInf + 1, graph.Inf / 2, -(graph.Inf / 2)}

// fuzzDigraph decodes FuzzSolve's input: 1 + n%6 vertices, and per 4
// bytes of arcs the arc b0→b1 (mod the vertex count; self-loops are
// skipped) weighing fuzzBases[b2] plus int8(b3), clamped into the open
// interval (NegInf, Inf). A later arc replaces an earlier one.
func fuzzDigraph(t *testing.T, n uint8, arcs []byte) *graph.Digraph {
	size := 1 + int(n)%6
	g := graph.NewDigraph(size)
	for ; len(arcs) >= 4; arcs = arcs[4:] {
		u, v := int(arcs[0])%size, int(arcs[1])%size
		if u == v {
			continue
		}
		w := fuzzBases[int(arcs[2])%len(fuzzBases)]
		w = min(max(w+int64(int8(arcs[3])), graph.NegInf+1), graph.Inf-1)
		if err := g.SetArc(u, v, w); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// fuzzArcs encodes arcs {u, v, w} as fuzzDigraph decodes them; each w must
// lie within 127 of a base.
func fuzzArcs(arcs ...[3]int64) []byte {
	var b []byte
	for _, a := range arcs {
		for i, base := range fuzzBases {
			if d := a[2] - base; d >= -128 && d <= 127 {
				b = append(b, byte(a[0]), byte(a[1]), byte(i), byte(int8(d)))
				break
			}
		}
	}
	return b
}

// FuzzSolve runs every registered strategy on small digraphs whose weights
// mix small values, zeros, the int32-compaction boundary and
// near-saturation values, against Floyd–Warshall:
//   - an exact strategy answers ErrNegativeCycle where Floyd–Warshall finds
//     a negative cycle, ErrSaturatedDistance where its distances hold −∞,
//     and otherwise its distances bit for bit. On every reachable pair the
//     PathOracle path weighs the distance, summed exactly: a valid path may
//     have a prefix sum beyond Inf;
//   - an approximate strategy (ε = 0.5) answers one of its typed
//     rejections, or Floyd–Warshall's reachability with every distance
//     within its guaranteed stretch;
//   - nothing panics.
//
// The seed corpus runs as a normal unit test.
func FuzzSolve(f *testing.F) {
	// A sum of in-range weights that reaches Inf: 0→2 is unreachable.
	f.Add(uint8(2), uint8(0), fuzzArcs([3]int64{0, 1, graph.Inf - 1}, [3]int64{1, 2, 1}))
	// A sum that saturates at −∞ without a negative cycle.
	f.Add(uint8(2), uint8(0), fuzzArcs([3]int64{0, 1, -(graph.Inf / 2)}, [3]int64{1, 2, graph.NegInf + 1}))
	// −∞ from saturation before the negative 3-cycle shows on the diagonal.
	f.Add(uint8(5), uint8(0), fuzzArcs([3]int64{0, 1, -(graph.Inf / 2) - 10}, [3]int64{1, 2, -(graph.Inf / 2) - 10},
		[3]int64{3, 4, 1}, [3]int64{4, 5, 1}, [3]int64{5, 3, -3}))
	// Symmetric weights too large for the approximate value ladders.
	f.Add(uint8(2), uint8(0), fuzzArcs([3]int64{0, 1, graph.Inf - 1}, [3]int64{1, 0, graph.Inf - 1},
		[3]int64{1, 2, 1}, [3]int64{2, 1, 1}))
	// The path 3→4→0→1 is valid although its prefix 3→4→0 passes Inf.
	f.Add(uint8(4), uint8(0), fuzzArcs([3]int64{3, 4, graph.Inf - 1}, [3]int64{4, 0, 1 << 31}, [3]int64{0, 1, -(graph.Inf / 2)}))
	// Found by this target: one Floyd–Warshall pass in vertex order lost
	// 3→0→1→2, whose prefix 3→0→1 saturates at Inf, and answered
	// d(3,2) = Inf against every exact strategy's Inf−10.
	f.Add(uint8(3), uint8(0), fuzzArcs([3]int64{3, 0, graph.Inf - 1}, [3]int64{0, 1, graph.Inf/2 + 1}, [3]int64{1, 2, -(graph.Inf / 2) - 10}))
	// Found by this target: toward 0, d(4,0) saturates at Inf, so no arc
	// out of 3 was tight although d(3,0) is finite, and the successor walk
	// found no path.
	f.Add(uint8(4), uint8(0), fuzzArcs([3]int64{3, 4, -(graph.Inf / 2) + 48}, [3]int64{4, 1, graph.Inf - 1}, [3]int64{1, 0, 1<<31 + 48}))
	params := triangles.BenchParams()
	f.Fuzz(func(t *testing.T, n, seed uint8, arcs []byte) {
		g := fuzzDigraph(t, n, arcs)
		want, fwErr := graph.FloydWarshall(g)
		for _, st := range engine.Strategies() {
			cfg := Config{Strategy: st.Name(), Params: &params, Seed: uint64(seed), Workers: 1}
			if st.Capabilities().Approximate {
				cfg.Epsilon = 0.5
			}
			res, err := Solve(g, cfg)
			switch {
			case st.Capabilities().Approximate:
				if errors.Is(err, approx.ErrNegativeWeight) || errors.Is(err, approx.ErrAsymmetric) || errors.Is(err, approx.ErrWeightRange) {
					continue
				}
				if err != nil {
					t.Fatalf("%s: %v", st.Name(), err)
				}
				if fwErr != nil {
					t.Fatalf("%s: answered a graph Floyd–Warshall rejects with %v", st.Name(), fwErr)
				}
				checkStretch(t, st.Name(), res, want)
			case fwErr != nil:
				if !errors.Is(err, ErrNegativeCycle) {
					t.Fatalf("%s: err = %v, want ErrNegativeCycle", st.Name(), err)
				}
			case slices.Contains(want, graph.NegInf):
				if !errors.Is(err, ErrSaturatedDistance) {
					t.Fatalf("%s: err = %v, want ErrSaturatedDistance", st.Name(), err)
				}
			default:
				if err != nil {
					t.Fatalf("%s: %v", st.Name(), err)
				}
				for i := 0; i < g.N(); i++ {
					if got, want := res.Dist.RowView(i), want[i*g.N():(i+1)*g.N()]; !slices.Equal(got, want) {
						t.Fatalf("%s: row %d %v, Floyd–Warshall %v", st.Name(), i, got, want)
					}
				}
				checkPaths(t, st.Name(), g, res)
			}
		}
	})
}

// checkPaths holds every PathOracle answer on res to its distance: ErrNoPath
// for an unreachable pair, and otherwise a path of arcs of g from src to
// dst whose exact weight is the distance.
func checkPaths(t *testing.T, name string, g *graph.Digraph, res *Result) {
	t.Helper()
	o, err := NewPathOracle(g, res.Dist)
	if err != nil {
		t.Fatal(err)
	}
	for src := 0; src < g.N(); src++ {
		for dst := 0; dst < g.N(); dst++ {
			d := res.Dist.At(src, dst)
			path, err := o.Path(src, dst)
			if d >= graph.Inf {
				if !errors.Is(err, ErrNoPath) {
					t.Fatalf("%s (%d,%d): unreachable, path %v, err = %v", name, src, dst, path, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s (%d,%d): %v", name, src, dst, err)
			}
			if path[0] != src || path[len(path)-1] != dst {
				t.Fatalf("%s (%d,%d): path %v", name, src, dst, path)
			}
			sum := new(big.Int)
			for i := 0; i+1 < len(path); i++ {
				w, ok := g.Weight(path[i], path[i+1])
				if !ok {
					t.Fatalf("%s (%d,%d): path %v has no arc %d→%d", name, src, dst, path, path[i], path[i+1])
				}
				sum.Add(sum, big.NewInt(w))
			}
			if sum.Cmp(big.NewInt(d)) != 0 {
				t.Fatalf("%s (%d,%d): path %v weighs %v, distance %d", name, src, dst, path, sum, d)
			}
		}
	}
}

// checkStretch holds an approximate result to Floyd–Warshall's distances
// want (row-major): the same reachability, and every estimate between the
// distance and GuaranteedStretch times it, compared exactly.
func checkStretch(t *testing.T, name string, res *Result, want []int64) {
	t.Helper()
	if res.ObservedStretch > res.GuaranteedStretch {
		t.Fatalf("%s: observed stretch %v above the guarantee %v", name, res.ObservedStretch, res.GuaranteedStretch)
	}
	bound := new(big.Rat).SetFloat64(res.GuaranteedStretch)
	for k, d := range want {
		got := res.Dist.At(k/res.Dist.N(), k%res.Dist.N())
		if (d >= graph.Inf) != (got >= graph.Inf) {
			t.Fatalf("%s cell %d: estimate %d, distance %d", name, k, got, d)
		}
		if d >= graph.Inf {
			continue
		}
		hi := new(big.Rat).Mul(bound, new(big.Rat).SetInt64(d))
		if got < d || new(big.Rat).SetInt64(got).Cmp(hi) > 0 {
			t.Fatalf("%s cell %d: estimate %d outside [%d, %v·%d]", name, k, got, d, res.GuaranteedStretch, d)
		}
	}
}

package qclique

// One benchmark per experiment of DESIGN.md §4 (the paper's quantitative
// claims — it has no empirical tables, so these regenerate the measured
// counterpart of each theorem/proposition/lemma). Each benchmark reports
// the simulated CONGEST-CLIQUE round count via ReportMetric("rounds/op")
// alongside the usual wall-clock numbers; cmd/experiments renders the same
// measurements as the tables recorded in EXPERIMENTS.md. Every input comes
// from internal/experiments/workload, so a benchmark here, the cmd/bench
// entry of the same name and the experiment row of the same size solve one
// instance.

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"qclique/internal/congest"
	"qclique/internal/distprod"
	"qclique/internal/experiments/workload"
	"qclique/internal/graph"
	"qclique/internal/matrix"
	"qclique/internal/quantum"
	"qclique/internal/triangles"
	"qclique/internal/xrand"
)

func benchTriangleGraph(b *testing.B, n int) *graph.Undirected {
	b.Helper()
	g, err := workload.TriangleGraph(n)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func benchDigraph(b *testing.B, n int) *graph.Digraph {
	b.Helper()
	g, err := workload.E1Digraph(n, workload.E1W)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// table is the shared workload table in full, built once per process.
var table = sync.OnceValues(func() ([]workload.Entry, error) { return workload.Table(false) })

// benchTable runs one family of the workload table — the configurations
// cmd/bench gates, on the same inputs — as one sub-benchmark per size. The
// table's workers=4 variants stay in cmd/bench, so that
// -bench 'BenchmarkE1APSPQuantum/n=64' still selects exactly one benchmark.
func benchTable(b *testing.B, family string) {
	entries, err := table()
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range entries {
		size, ok := strings.CutPrefix(e.Name, family+"/")
		if !ok || strings.Contains(size, "/") {
			continue
		}
		b.Run(size, func(b *testing.B) {
			b.ReportAllocs()
			var rounds int64
			for i := 0; i < b.N; i++ {
				out, err := e.Run(uint64(i))
				if err != nil {
					b.Fatal(err)
				}
				rounds = out.Rounds
			}
			b.ReportMetric(float64(rounds), "rounds/op")
		})
	}
}

// BenchmarkE1APSPQuantum regenerates E1 (Theorem 1): the full quantum APSP
// pipeline end to end. The n=32 and n=64 cases exist because the hot-path
// overhaul (incremental tripartite reuse, flat link-load accounting,
// parallel node-local phases) brought them into benchmarkable range; n=128
// was unlocked by the allocation-free solve pipeline (per-solve workspace,
// pooled quantum state, zero-copy matrix ping-pong), which cut the memory
// per solve by more than an order of magnitude.
func BenchmarkE1APSPQuantum(b *testing.B) { benchTable(b, "E1APSPQuantum") }

// BenchmarkE2FindEdgesPromise regenerates E2 (Theorem 2): the
// FindEdgesWithPromise sweep for the quantum search.
func BenchmarkE2FindEdgesPromise(b *testing.B) { benchTable(b, "E2FindEdgesPromise") }

// BenchmarkE3MultiSearch regenerates E3 (Theorem 3): m truncated parallel
// searches through a shared evaluation procedure.
func BenchmarkE3MultiSearch(b *testing.B) { benchTable(b, "E3MultiSearch") }

// BenchmarkE4Strategies regenerates E4: the strategy separation on one
// fixed FindEdgesWithPromise workload.
func BenchmarkE4Strategies(b *testing.B) {
	params := triangles.BenchParams()
	g := benchTriangleGraph(b, 81)
	b.Run("quantum", func(b *testing.B) {
		var rounds int64
		for i := 0; i < b.N; i++ {
			rep, err := triangles.FindEdgesWithPromise(triangles.Instance{G: g}, triangles.Options{
				Seed: uint64(i), Params: &params, Data: triangles.DataDirect,
			})
			if err != nil {
				b.Fatal(err)
			}
			rounds = rep.Rounds
		}
		b.ReportMetric(float64(rounds), "rounds/op")
	})
	b.Run("classical-scan", func(b *testing.B) {
		var rounds int64
		for i := 0; i < b.N; i++ {
			rep, err := triangles.FindEdgesWithPromise(triangles.Instance{G: g}, triangles.Options{
				Seed: uint64(i), Params: &params, Data: triangles.DataDirect, Mode: triangles.SearchClassicalScan,
			})
			if err != nil {
				b.Fatal(err)
			}
			rounds = rep.Rounds
		}
		b.ReportMetric(float64(rounds), "rounds/op")
	})
	b.Run("dolev", func(b *testing.B) {
		var rounds int64
		for i := 0; i < b.N; i++ {
			rep, err := triangles.DolevFindEdges(triangles.Instance{G: g}, nil)
			if err != nil {
				b.Fatal(err)
			}
			rounds = rep.Rounds
		}
		b.ReportMetric(float64(rounds), "rounds/op")
	})
}

// BenchmarkE5FindEdgesReduction regenerates E5 (Proposition 1): the
// sampling reduction on a hub workload.
func BenchmarkE5FindEdgesReduction(b *testing.B) {
	params := triangles.BenchParams()
	g, err := workload.HubGraph(96)
	if err != nil {
		b.Fatal(err)
	}
	var rounds int64
	var calls int
	for i := 0; i < b.N; i++ {
		rep, err := triangles.FindEdges(triangles.Instance{G: g}, triangles.Options{
			Seed: uint64(i), Params: &params, Data: triangles.DataDirect,
		})
		if err != nil {
			b.Fatal(err)
		}
		rounds = rep.Rounds
		calls = rep.PromiseCalls
	}
	b.ReportMetric(float64(rounds), "rounds/op")
	b.ReportMetric(float64(calls), "promise-calls/op")
}

// BenchmarkE6DistanceProduct regenerates E6 (Proposition 2): distance
// product via binary search over FindEdges, per weight magnitude.
func BenchmarkE6DistanceProduct(b *testing.B) {
	for _, m := range []int64{8, 128} {
		b.Run(fmt.Sprintf("M=%d", m), func(b *testing.B) {
			x, y := workload.MatrixPair(6, m)
			var steps int
			for i := 0; i < b.N; i++ {
				_, stats, err := distprod.Product(x, y, distprod.Options{Solver: distprod.SolverDolev, Seed: uint64(i)})
				if err != nil {
					b.Fatal(err)
				}
				steps = stats.BinarySearchSteps
			}
			b.ReportMetric(float64(steps), "findedges-calls/op")
		})
	}
}

// BenchmarkE7Squaring regenerates E7 (Proposition 3): repeated min-plus
// squaring.
func BenchmarkE7Squaring(b *testing.B) {
	for _, n := range []int{32, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := benchDigraph(b, n)
			ag := matrix.FromDigraph(g)
			var products int
			for i := 0; i < b.N; i++ {
				_, stats, err := matrix.APSPBySquaring(ag, matrix.DistanceProduct)
				if err != nil {
					b.Fatal(err)
				}
				products = stats.Products
			}
			b.ReportMetric(float64(products), "products/op")
		})
	}
}

// BenchmarkE8Router regenerates E8 (Lemma 1): König-colored two-round
// relay schedules.
func BenchmarkE8Router(b *testing.B) {
	for _, n := range []int{16, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			msgs := workload.RelayMessages(n, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batches, err := congest.BuildRelaySchedule(n, msgs)
				if err != nil {
					b.Fatal(err)
				}
				if err := congest.VerifyRelaySchedule(n, batches); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE9Covering regenerates E9 (Lemma 2): covering construction and
// balance verification.
func BenchmarkE9Covering(b *testing.B) {
	params := triangles.PaperParams()
	for i := 0; i < b.N; i++ {
		st, err := triangles.CoveringTrial(256, params, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		if st.Aborted {
			b.Fatal("unexpected abort")
		}
	}
}

// BenchmarkE10IdentifyClass regenerates E10 (Proposition 5).
func BenchmarkE10IdentifyClass(b *testing.B) {
	params := triangles.PaperParams()
	g, err := workload.ClassGraph(81)
	if err != nil {
		b.Fatal(err)
	}
	var frac float64
	for i := 0; i < b.N; i++ {
		acc, err := triangles.IdentifyClassTrial(g, params, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		if !acc.Aborted {
			frac = float64(acc.Satisfied) / float64(acc.Triples)
		}
	}
	b.ReportMetric(frac, "prop5-satisfied")
}

// BenchmarkE11Congestion regenerates E11: naive versus balanced query
// injection.
func BenchmarkE11Congestion(b *testing.B) {
	params := triangles.BenchParams()
	g := benchTriangleGraph(b, 81)
	var naive, balanced int64
	for i := 0; i < b.N; i++ {
		st, err := triangles.CongestionTrial(g, params, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		naive, balanced = st.NaiveMaxLinkLoad, st.BalancedMaxLinkLoad
	}
	b.ReportMetric(float64(naive), "naive-load")
	b.ReportMetric(float64(balanced), "balanced-load")
}

// BenchmarkE12Grover regenerates E12: the √|X| oracle-call core.
func BenchmarkE12Grover(b *testing.B) {
	for _, n := range []int{64, 1024} {
		b.Run(fmt.Sprintf("X=%d", n), func(b *testing.B) {
			rng := xrand.New(uint64(n))
			var calls int64
			for i := 0; i < b.N; i++ {
				target := rng.IntN(n)
				res := quantum.Search(n, func(x int) bool { return x == target }, rng.SplitN("i", i))
				if !res.Found {
					b.Fatal("search failed")
				}
				calls = res.OracleCalls()
			}
			b.ReportMetric(float64(calls), "oracle-calls/op")
		})
	}
}

// BenchmarkPublicAPISolve exercises the public façade end to end.
func BenchmarkPublicAPISolve(b *testing.B) {
	g := toPublicDigraph(b, benchDigraph(b, 12))
	var rounds int64
	for i := 0; i < b.N; i++ {
		res, err := SolveAPSP(g, WithStrategy(Quantum), WithParams(ScaledConstants), WithSeed(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		rounds = res.Rounds
	}
	b.ReportMetric(float64(rounds), "rounds/op")
}

// BenchmarkSolverAmortizedQueries demonstrates the serving layer's
// amortization: answering 100 mixed ShortestPath/SSSP queries through a
// Solver (one pipeline run, batched projection against the cached result)
// versus paying a full SolveAPSP per query. The acceptance bar for the
// service layer is ≥10x between these two.
func BenchmarkSolverAmortizedQueries(b *testing.B) {
	const n = 8
	const numQueries = 100
	g := toPublicDigraph(b, benchDigraph(b, n))
	opts := []Option{WithStrategy(Quantum), WithParams(ScaledConstants), WithSeed(1)}
	var queries []PathQuery
	for i := 0; i < numQueries; i++ {
		queries = append(queries, PathQuery{Src: i % n, Dst: (i*3 + 1) % n})
	}

	b.Run("independent", func(b *testing.B) {
		// The pre-service cost model: every query pays the full pipeline.
		for i := 0; i < b.N; i++ {
			for q := 0; q < numQueries; q++ {
				res, err := SolveAPSP(g, opts...)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := ShortestPath(g, res, queries[q].Src, queries[q].Dst); err != nil && !errors.Is(err, ErrNoPath) {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("solver-batched", func(b *testing.B) {
		// One pipeline run per op (fresh solver), then the whole query
		// batch is projection against the cached result.
		for i := 0; i < b.N; i++ {
			s := NewSolver(opts...)
			answers, _, err := s.PathsBatch(g, queries)
			if err != nil {
				b.Fatal(err)
			}
			for _, a := range answers {
				if a.Err != nil && !errors.Is(a.Err, ErrNoPath) {
					b.Fatal(a.Err)
				}
			}
		}
	})
}

// BenchmarkSolverCachedResolve measures a cache-hit re-solve of an
// unchanged graph: content hash plus LRU lookup, zero simulator rounds.
func BenchmarkSolverCachedResolve(b *testing.B) {
	const n = 16
	g := toPublicDigraph(b, benchDigraph(b, n))
	s := NewSolver(WithStrategy(Quantum), WithParams(ScaledConstants), WithSeed(1))
	if _, err := s.Solve(g); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Solve(g)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Cached {
			b.Fatal("re-solve missed the cache")
		}
	}
}

// --- Ablations (DESIGN.md §5): measure the design choices in isolation.

// BenchmarkAblationRouting charges one skewed load, in which every node
// sources about 4n single words, and reports two costs for it. "direct" is
// the hottest link's word count, read from the phase's MaxLinkLoad: the
// rounds that sending every word straight to its destination would take.
// "lemma1-balanced" is the Lemma 1 relay charge, 2·⌈max per-node load / n⌉.
// On this load direct sending is the cheaper of the two.
func BenchmarkAblationRouting(b *testing.B) {
	const n = 64
	rng := xrand.New(1)
	var loads []congest.Load
	for s := 0; s < n; s++ {
		// Skewed destinations: half the traffic concentrates on a few
		// nodes, as block-aligned gathers do.
		for i := 0; i < 4*n; i++ {
			d := rng.IntN(n / 8)
			if rng.Bool(0.5) {
				d = rng.IntN(n)
			}
			if d == s {
				continue
			}
			loads = append(loads, congest.Load{Src: congest.NodeID(s), Dst: congest.NodeID(d), Words: 1})
		}
	}
	b.Run("direct", func(b *testing.B) {
		var rounds int64
		for i := 0; i < b.N; i++ {
			nw, err := congest.NewNetwork(n)
			if err != nil {
				b.Fatal(err)
			}
			if err := nw.ChargeBalanced("ablation", loads); err != nil {
				b.Fatal(err)
			}
			rounds = nw.Metrics().MaxLinkLoad
		}
		b.ReportMetric(float64(rounds), "rounds/op")
	})
	b.Run("lemma1-balanced", func(b *testing.B) {
		var rounds int64
		for i := 0; i < b.N; i++ {
			nw, err := congest.NewNetwork(n)
			if err != nil {
				b.Fatal(err)
			}
			if err := nw.ChargeBalanced("ablation", loads); err != nil {
				b.Fatal(err)
			}
			rounds = nw.Rounds()
		}
		b.ReportMetric(float64(rounds), "rounds/op")
	})
}

// BenchmarkAblationConstants compares the paper's verbatim protocol
// constants against the scaled preset on the same FindEdgesWithPromise
// workload: same asymptotics, ~3× the message volume.
func BenchmarkAblationConstants(b *testing.B) {
	g := benchTriangleGraph(b, 81)
	presets := map[string]triangles.Params{
		"paper":  triangles.PaperParams(),
		"scaled": triangles.BenchParams(),
	}
	for name := range presets {
		params := presets[name]
		b.Run(name, func(b *testing.B) {
			var rounds, words int64
			for i := 0; i < b.N; i++ {
				rep, err := triangles.FindEdgesWithPromise(triangles.Instance{G: g}, triangles.Options{
					Seed: uint64(i), Params: &params, Data: triangles.DataDirect,
				})
				if err != nil {
					b.Fatal(err)
				}
				rounds = rep.Rounds
				words = rep.Metrics.Words
			}
			b.ReportMetric(float64(rounds), "rounds/op")
			b.ReportMetric(float64(words), "words/op")
		})
	}
}

// BenchmarkAblationDataMode compares payload-carrying placement (DataFull)
// against charge-only accounting (DataDirect): identical rounds by
// construction, different wall-clock and memory.
func BenchmarkAblationDataMode(b *testing.B) {
	g := benchTriangleGraph(b, 81)
	params := triangles.BenchParams()
	for _, mode := range []struct {
		name string
		m    triangles.DataMode
	}{{"full", triangles.DataFull}, {"direct", triangles.DataDirect}} {
		b.Run(mode.name, func(b *testing.B) {
			var rounds int64
			for i := 0; i < b.N; i++ {
				rep, err := triangles.FindEdgesWithPromise(triangles.Instance{G: g}, triangles.Options{
					Seed: uint64(i), Params: &params, Data: mode.m,
				})
				if err != nil {
					b.Fatal(err)
				}
				rounds = rep.Rounds
			}
			b.ReportMetric(float64(rounds), "rounds/op")
		})
	}
}

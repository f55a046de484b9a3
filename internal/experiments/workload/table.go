package workload

import (
	"fmt"

	"qclique/internal/congest"
	"qclique/internal/core"
	"qclique/internal/engine"
	"qclique/internal/graph"
	"qclique/internal/qsearch"
	"qclique/internal/triangles"
	"qclique/internal/xrand"
)

// Out is one run's deterministic measurements: the simulated round count,
// the observed stretch (0 for exact workloads) and — for APSP workloads
// that run through the engine — the per-stage round breakdown, whose sum
// cmd/bench pins to the round total.
type Out struct {
	Rounds  int64
	Stretch float64
	Stages  []engine.StageStat
}

// Entry is one named, measurable configuration: Run executes the workload
// once under a protocol seed; every Out field is deterministic
// seed-for-seed. Names are the keys of cmd/bench's committed baseline.
type Entry struct {
	Name string
	Run  func(seed uint64) (Out, error)
}

// solveRun adapts a core solve into an entry. reportStretch selects
// whether the observed stretch becomes the accuracy column (the
// approximate configurations) or stays 0 (exact workloads, where accuracy
// is not a variable).
func solveRun(g *graph.Digraph, cfg core.Config, reportStretch bool) func(seed uint64) (Out, error) {
	return func(seed uint64) (Out, error) {
		c := cfg
		c.Seed = seed
		res, err := core.Solve(g, c)
		if err != nil {
			return Out{}, err
		}
		out := Out{Rounds: res.Rounds, Stages: res.Stages}
		if reportStretch {
			out.Stretch = res.ObservedStretch
		}
		return out, nil
	}
}

// E1Sizes are the E1 sizes; quick mode drops the slow tail.
func E1Sizes(quick bool) []int {
	if quick {
		return []int{8, 16}
	}
	return []int{8, 16, 32, 64, 128}
}

// Table assembles the named workload matrix: E1–E4 plus the gossip
// baseline. Quick mode keeps the configurations that finish in seconds.
func Table(quick bool) ([]Entry, error) {
	var entries []Entry
	params := triangles.BenchParams()

	// E1: full quantum APSP pipeline (Theorem 1).
	for _, n := range E1Sizes(quick) {
		g, err := E1Digraph(n, E1W)
		if err != nil {
			return nil, err
		}
		entries = append(entries, Entry{
			Name: fmt.Sprintf("E1APSPQuantum/n=%d", n),
			Run:  solveRun(g, core.Config{Strategy: core.StrategyQuantum, Params: &params}, false),
		})
	}

	// E1 with host parallelism: the same pipeline at a fixed Workers > 1,
	// so every report carries multi-worker evidence regardless of the
	// host's core count (rounds are worker-invariant by construction — the
	// gate checks that too).
	if !quick {
		for _, n := range []int{32, 64} {
			g, err := E1Digraph(n, E1W)
			if err != nil {
				return nil, err
			}
			entries = append(entries, Entry{
				Name: fmt.Sprintf("E1APSPQuantum/n=%d/workers=4", n),
				Run:  solveRun(g, core.Config{Strategy: core.StrategyQuantum, Params: &params, Workers: 4}, false),
			})
		}
	}

	// E2: FindEdgesWithPromise sweep (Theorem 2).
	for _, n := range []int{16, 81, 256} {
		g, err := TriangleGraph(n)
		if err != nil {
			return nil, err
		}
		entries = append(entries, Entry{
			Name: fmt.Sprintf("E2FindEdgesPromise/n=%d", n),
			Run: func(seed uint64) (Out, error) {
				r, err := triangles.FindEdgesWithPromise(triangles.Instance{G: g}, triangles.Options{
					Seed: seed, Params: &params, Data: triangles.DataDirect,
				})
				if err != nil {
					return Out{}, err
				}
				return Out{Rounds: r.Rounds}, nil
			},
		})
	}

	// E4: the approximate-APSP frontier. Exact quantum and the (1+ε)
	// approximate chain run on the same nonnegative graph so rounds/op is
	// an apples-to-apples comparison (cmd/bench additionally requires the
	// approximate chain to win); the (2+ε) skeleton runs on its symmetric
	// workload. ε = 0.5 throughout.
	const e4Epsilon = 0.5
	e4Sizes := []int{32, 64, 128}
	if quick {
		e4Sizes = []int{32}
	}
	for _, n := range e4Sizes {
		g, err := NonnegDigraph(n)
		if err != nil {
			return nil, err
		}
		gs, err := SymmetricDigraph(n)
		if err != nil {
			return nil, err
		}
		entries = append(entries,
			Entry{
				Name: fmt.Sprintf("E4APSPQuantumNonneg/n=%d", n),
				Run:  solveRun(g, core.Config{Strategy: core.StrategyQuantum, Params: &params}, false),
			},
			Entry{
				Name: fmt.Sprintf("E4APSPApproxQuantum/n=%d/eps=0.5", n),
				Run:  solveRun(g, core.Config{Strategy: core.StrategyApproxQuantum, Params: &params, Epsilon: e4Epsilon}, true),
			},
			Entry{
				Name: fmt.Sprintf("E4APSPApproxSkeleton/n=%d/eps=0.5", n),
				Run:  solveRun(gs, core.Config{Strategy: core.StrategyApproxSkeleton, Epsilon: e4Epsilon}, true),
			},
		)
	}

	// E3: truncated parallel multi-search (Theorem 3). m must be large
	// enough relative to |X| that the Theorem 3 deviation bound is
	// negligible; below ~m=2000 with |X|=8 the injected truncation failure
	// fires with visible probability (by design).
	for _, m := range []int{4000, 8000} {
		const size = 8
		tables := SearchTables(m, size)
		beta := 8*float64(m)/size + 64
		base := xrand.New(uint64(m))
		entries = append(entries, Entry{
			Name: fmt.Sprintf("E3MultiSearch/m=%d", m),
			Run: func(seed uint64) (Out, error) {
				nw, err := congest.NewNetwork(size)
				if err != nil {
					return Out{}, err
				}
				res, err := qsearch.MultiSearch(nw, qsearch.Spec{
					SpaceSize: size, Instances: m, Eval: qsearch.LocalEval(tables, 1), Beta: beta,
				}, base.SplitN("i", int(seed)))
				if err != nil {
					return Out{}, err
				}
				if !res.AllFound() {
					return Out{}, fmt.Errorf("search failed")
				}
				return Out{Rounds: nw.Rounds()}, nil
			},
		})
	}

	// Gossip: the O(n)-round baseline the serving planner picks for exact
	// auto solves, i.e. apspd's cache-miss path. Its cost is the min-plus
	// layer: the node-local squaring chain. The E1 graph reaches the
	// chain's fixed point after a few squarings; the directed path needs
	// every squaring of the ⌈log₂ n⌉ budget.
	if !quick {
		const n = 256
		g, err := E1Digraph(n, E1W)
		if err != nil {
			return nil, err
		}
		path := graph.NewDigraph(n)
		for i := 0; i+1 < n; i++ {
			if err := path.SetArc(i, i+1, 1); err != nil {
				return nil, err
			}
		}
		entries = append(entries,
			Entry{
				Name: fmt.Sprintf("GossipAPSP/n=%d", n),
				Run:  solveRun(g, core.Config{Strategy: core.StrategyGossip}, false),
			},
			Entry{
				Name: fmt.Sprintf("GossipAPSP/path/n=%d", n),
				Run:  solveRun(path, core.Config{Strategy: core.StrategyGossip}, false),
			},
		)
	}
	return entries, nil
}

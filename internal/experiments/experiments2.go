package experiments

import (
	"fmt"
	"math"

	"qclique/internal/congest"
	"qclique/internal/distprod"
	"qclique/internal/experiments/workload"
	"qclique/internal/expfit"
	"qclique/internal/graph"
	"qclique/internal/matrix"
	"qclique/internal/qsearch"
	"qclique/internal/quantum"
	"qclique/internal/triangles"
	"qclique/internal/xrand"
)

// ---------------------------------------------------------------- E3

func runE3(cfg Config) (*Result, error) {
	rng := xrand.New(cfg.Seed)
	// Compliant (m, |X|) regimes: |X| < m/(36 log m), β > 8m/|X|.
	type regime struct{ m, x int }
	regimes := []regime{{2000, 4}, {4000, 8}, {8000, 8}}
	if cfg.Quick {
		regimes = regimes[:2]
	}
	tab := expfit.NewTable("m", "|X|", "β", "preconds", "runs all-found", "2/m² bound", "Lemma5 mass", "measured dev bound")
	ok := true
	for _, rg := range regimes {
		beta := 8*float64(rg.m)/float64(rg.x) + 64
		const runs = 5
		allFound := 0
		var devBound float64
		preconds := quantum.Theorem3Preconditions(rg.m, rg.x, beta)
		tables := workload.SearchTables(rg.m, rg.x)
		for run := 0; run < runs; run++ {
			nw, err := congest.NewNetwork(8)
			if err != nil {
				return nil, err
			}
			res, err := qsearch.MultiSearch(nw, qsearch.Spec{
				SpaceSize: rg.x, Instances: rg.m,
				Eval: qsearch.LocalEval(tables, 1),
				Beta: beta,
			}, rng.SplitN("run", rg.m*100+run))
			if err != nil {
				return nil, err
			}
			if res.AllFound() {
				allFound++
			}
			devBound = res.TruncationErrorBound
		}
		bound := 2.0 / (float64(rg.m) * float64(rg.m))
		mass := quantum.Lemma5MassBound(rg.m, rg.x)
		if allFound < runs || !preconds || devBound > bound {
			ok = false
		}
		tab.AddF(rg.m, rg.x, fmt.Sprintf("%.0f", beta), preconds,
			fmt.Sprintf("%d/%d", allFound, runs),
			fmt.Sprintf("%.2e", bound), fmt.Sprintf("%.2e", mass), fmt.Sprintf("%.2e", devBound))
	}
	// Exact vs Chernoff typicality mass on a uniform product state.
	m, x := 400, 8
	uni := make([][]float64, m)
	for i := range uni {
		row := make([]float64, x)
		for j := range row {
			row[j] = 1 / float64(x)
		}
		uni[i] = row
	}
	beta := 8 * m / x
	exact := quantum.AtypicalMass(uni, beta, true)
	chern := quantum.AtypicalMass(uni, beta, false)
	out := &Result{
		PaperClaim: "Theorem 3: m truncated searches succeed w.p. ≥ 1−2/m²; Lemma 5: atypical mass ≤ |X|·exp(−2m/9|X|)",
		Output: tab.String() + fmt.Sprintf(
			"\nΥβ mass check (m=%d, |X|=%d, β=%d): exact Poisson-binomial %.3e ≤ Chernoff %.3e ≤ Lemma 5 %.3e\n",
			m, x, beta, exact, chern, quantum.Lemma5MassBound(m, x)),
		OK: ok && exact <= chern,
	}
	out.Summary = fmt.Sprintf("all compliant regimes succeed within the 2/m² bound: %v", ok)
	return out, nil
}

// ---------------------------------------------------------------- E5

func runE5(cfg Config) (*Result, error) {
	params := triangles.BenchParams()
	sizes := []int{48, 96}
	if !cfg.Quick {
		sizes = append(sizes, 256)
	}
	tab := expfit.NewTable("n", "promise calls", "1+⌈log₂(n/(c·ln n))⌉ bound", "max Γ", "exact")
	ok := true
	for _, n := range sizes {
		g, err := workload.HubGraph(n)
		if err != nil {
			return nil, err
		}
		rep, err := triangles.FindEdges(triangles.Instance{G: g}, triangles.Options{
			Seed: cfg.Seed, Params: &params,
		})
		if err != nil {
			return nil, err
		}
		want := graph.EdgesInNegativeTriangles(g)
		exact := len(rep.Edges) == len(want)
		for p := range want {
			if !rep.Edges[p] {
				exact = false
			}
		}
		// Loop levels: while Reduction·2^i·ln n ≤ n, plus the final call.
		levels := 0
		for params.Reduction*math.Pow(2, float64(levels))*math.Log(float64(n)) <= float64(n) {
			levels++
		}
		bound := levels + 1
		if rep.PromiseCalls != bound || !exact {
			ok = false
		}
		tab.AddF(n, rep.PromiseCalls, bound, graph.MaxGamma(g), exact)
	}
	out := &Result{
		PaperClaim: "Proposition 1: FindEdges reduces to O(log n) FindEdgesWithPromise instances via leg sampling",
		Output:     tab.String(),
		OK:         ok,
		Summary:    fmt.Sprintf("call counts match the log-level schedule and outputs are exact: %v", ok),
	}
	return out, nil
}

// ---------------------------------------------------------------- E6

func runE6(cfg Config) (*Result, error) {
	ms := []int64{4, 32, 256}
	if !cfg.Quick {
		ms = append(ms, 2048)
	}
	tab := expfit.NewTable("M", "binary-search steps", "1+⌈log₂(4M+2)⌉", "exact")
	ok := true
	for _, m := range ms {
		a, b := workload.MatrixPair(6, m)
		want, err := matrix.DistanceProduct(a, b)
		if err != nil {
			return nil, err
		}
		got, stats, err := distprod.Product(a, b, distprod.Options{Solver: distprod.SolverDolev, Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		exact := got.Equal(want)
		bound := 1 + int(math.Ceil(math.Log2(float64(4*stats.MaxAbs+2))))
		if !exact || stats.BinarySearchSteps > bound {
			ok = false
		}
		tab.AddF(m, stats.BinarySearchSteps, bound, exact)
	}
	out := &Result{
		PaperClaim: "Proposition 2 (Vassilevska Williams–Williams): distance product via O(log M) FindEdges calls",
		Output:     tab.String(),
		OK:         ok,
		Summary:    fmt.Sprintf("step counts within 1+⌈log₂(4M+2)⌉ and products exact: %v", ok),
	}
	return out, nil
}

// ---------------------------------------------------------------- E7

func runE7(cfg Config) (*Result, error) {
	sizes := []int{4, 8, 16, 32, 64, 128}
	if cfg.Quick {
		sizes = []int{4, 16, 64}
	}
	tab := expfit.NewTable("n", "products", "⌈log₂ n⌉", "exact vs Floyd–Warshall")
	ok := true
	for _, n := range sizes {
		g, err := workload.E1Digraph(n, 10)
		if err != nil {
			return nil, err
		}
		got, stats, err := matrix.APSPBySquaring(matrix.FromDigraph(g), matrix.DistanceProduct)
		if err != nil {
			return nil, err
		}
		exact, err := exactAPSP(got, g)
		if err != nil {
			return nil, err
		}
		bound := int(math.Ceil(math.Log2(float64(n))))
		if stats.Products > bound || !exact {
			ok = false
		}
		tab.AddF(n, stats.Products, bound, exact)
	}
	out := &Result{
		PaperClaim: "Proposition 3: APSP = ⌈log₂ n⌉ distance products (repeated squaring)",
		Output:     tab.String(),
		OK:         ok,
		Summary:    fmt.Sprintf("squaring counts ≤ ⌈log₂ n⌉ and all distances exact: %v", ok),
	}
	return out, nil
}

// ---------------------------------------------------------------- E9

func runE9(cfg Config) (*Result, error) {
	params := triangles.PaperParams()
	sizes := []int{81, 256}
	if cfg.Quick {
		sizes = sizes[:1]
	}
	tab := expfit.NewTable("n", "trials", "aborts", "full coverage", "max/vertex", "balance bound")
	ok := true
	for _, n := range sizes {
		const trials = 10
		aborts, fullCover := 0, 0
		maxPer, bound := 0, 0
		for tr := 0; tr < trials; tr++ {
			st, err := triangles.CoveringTrial(n, params, cfg.Seed+uint64(n*100+tr))
			if err != nil {
				return nil, err
			}
			if st.Aborted {
				aborts++
			}
			if st.CoveredFraction >= 1 {
				fullCover++
			}
			if st.MaxPerVertex > maxPer {
				maxPer = st.MaxPerVertex
			}
			bound = st.Bound
		}
		// Lemma 2: both conditions hold w.p. ≥ 1−2/n; with 10 trials we
		// demand zero aborts and full coverage throughout.
		if aborts > 0 || fullCover < trials {
			ok = false
		}
		tab.AddF(n, trials, aborts, fmt.Sprintf("%d/%d", fullCover, trials), maxPer, bound)
	}
	out := &Result{
		PaperClaim: "Lemma 2: coverings are well-balanced and cover P(u,v) w.p. ≥ 1−2/n",
		Output:     tab.String(),
		OK:         ok,
		Summary:    fmt.Sprintf("no aborts, full coverage in all trials: %v", ok),
	}
	return out, nil
}

// ---------------------------------------------------------------- E10

func runE10(cfg Config) (*Result, error) {
	params := triangles.PaperParams()
	sizes := []int{81, 160}
	if cfg.Quick {
		sizes = sizes[:1]
	}
	tab := expfit.NewTable("n", "triples", "within Prop-5 interval", "max class", "aborted")
	ok := true
	for _, n := range sizes {
		g, err := workload.ClassGraph(n)
		if err != nil {
			return nil, err
		}
		acc, err := triangles.IdentifyClassTrial(g, params, cfg.Seed+uint64(n))
		if err != nil {
			return nil, err
		}
		if acc.Aborted {
			tab.AddF(n, 0, "-", "-", true)
			continue
		}
		frac := float64(acc.Satisfied) / float64(acc.Triples)
		// Proposition 5 holds w.p. ≥ 1−2/n over ALL triples jointly; we
		// demand at least 98% of triples inside their interval.
		if frac < 0.98 {
			ok = false
		}
		tab.AddF(n, acc.Triples, fmt.Sprintf("%d (%.1f%%)", acc.Satisfied, 100*frac), acc.MaxClass, false)
	}
	out := &Result{
		PaperClaim: "Proposition 5: class α brackets |Δ(u,v;w)| in [2^{α−3}n, 2^{α+1}n] w.p. ≥ 1−2/n",
		Output:     tab.String(),
		OK:         ok,
		Summary:    fmt.Sprintf("classification intervals satisfied: %v", ok),
	}
	return out, nil
}

// ---------------------------------------------------------------- E11

func runE11(cfg Config) (*Result, error) {
	params := triangles.BenchParams()
	sizes := []int{81, 256}
	if cfg.Quick {
		sizes = sizes[:1]
	}
	tab := expfit.NewTable("n", "instances", "naive max-link load", "balanced max-link load", "slot cap", "reduction")
	ok := true
	for _, n := range sizes {
		g, err := workload.TriangleGraph(n)
		if err != nil {
			return nil, err
		}
		st, err := triangles.CongestionTrial(g, params, cfg.Seed)
		if err != nil {
			return nil, err
		}
		if st.NaiveMaxLinkLoad <= st.BalancedMaxLinkLoad {
			ok = false
		}
		ratio := float64(st.NaiveMaxLinkLoad) / float64(max(st.BalancedMaxLinkLoad, 1))
		tab.AddF(n, st.Instances, st.NaiveMaxLinkLoad, st.BalancedMaxLinkLoad, st.SlotCap,
			fmt.Sprintf("%.1fx", ratio))
	}
	out := &Result{
		PaperClaim: "Section 4.2: naive parallel searches congest a link (Θ̃(n^{3/2}) worst case); the balanced schedule caps per-link load at Õ(√n)",
		Output:     tab.String(),
		OK:         ok,
		Summary:    fmt.Sprintf("balanced schedule strictly reduces the hottest link: %v", ok),
	}
	return out, nil
}

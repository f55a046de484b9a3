// Package experiments reproduces the paper's quantitative claims. The
// paper is a theory paper — its "evaluation" is Theorems 1–3, Propositions
// 1–5 and Lemmas 1–4, and its five figures are algorithms — so each
// experiment measures one claim inside the CONGEST-CLIQUE simulator and
// reports paper-claim versus measured. cmd/experiments and
// examples/scalingstudy drive this package. Inputs come from its workload
// subpackage, fixed per size, so an experiment row and the cmd/bench entry
// of the same size measure one instance.
package experiments

import (
	"fmt"
	"math"
	"strings"

	"qclique/internal/congest"
	"qclique/internal/core"
	"qclique/internal/experiments/workload"
	"qclique/internal/expfit"
	"qclique/internal/graph"
	"qclique/internal/matrix"
	"qclique/internal/quantum"
	"qclique/internal/triangles"
	"qclique/internal/xrand"
)

// Config tunes an experiment run.
type Config struct {
	// Quick shrinks the sweeps for CI-speed runs.
	Quick bool
	// Seed drives protocol randomness only: the inputs are package
	// workload's, fixed per size, so at seed 0 the E1 and E2 rows reproduce
	// cmd/bench's pinned rounds.
	Seed uint64
}

// Result is one experiment's outcome.
type Result struct {
	ID         string
	Title      string
	PaperClaim string
	// Output is the rendered measurement (tables / series).
	Output string
	// Summary is a one-line paper-vs-measured verdict.
	Summary string
	// OK reports whether the measured behaviour is consistent with the
	// claim's shape.
	OK bool
}

type experiment struct {
	id, title string
	run       func(Config) (*Result, error)
}

func registry() []experiment {
	return []experiment{
		{"e1", "Theorem 1: quantum APSP end-to-end", runE1},
		{"e2", "Theorem 2: FindEdgesWithPromise rounds vs n", runE2},
		{"e3", "Theorem 3: truncated multi-search success", runE3},
		{"e4", "Quantum vs classical separation", runE4},
		{"e5", "Proposition 1: FindEdges via promise instances", runE5},
		{"e6", "Proposition 2: distance product via binary search", runE6},
		{"e7", "Proposition 3: APSP via repeated squaring", runE7},
		{"e8", "Lemma 1: two-round routing", runE8},
		{"e9", "Lemma 2: covering balance and coverage", runE9},
		{"e10", "Proposition 5: IdentifyClass accuracy", runE10},
		{"e11", "Congestion: naive vs load-balanced searches", runE11},
		{"e12", "Grover core: √|X| oracle calls", runE12},
	}
}

// IDs lists the experiment identifiers in order.
func IDs() []string {
	var out []string
	for _, e := range registry() {
		out = append(out, e.id)
	}
	return out
}

// Run executes one experiment by ID.
func Run(id string, cfg Config) (*Result, error) {
	for _, e := range registry() {
		if e.id == id {
			res, err := e.run(cfg)
			if err != nil {
				return nil, fmt.Errorf("experiment %s: %w", id, err)
			}
			res.ID = e.id
			res.Title = e.title
			return res, nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown id %q (have %s)", id, strings.Join(IDs(), ", "))
}

// ---------------------------------------------------------------- E1

func runE1(cfg Config) (*Result, error) {
	sizes := []int{8, 12, 16, 24, 32}
	if cfg.Quick {
		sizes = []int{8, 16}
	}
	params := triangles.BenchParams()
	tab := expfit.NewTable("n", "W", "rounds", "products", "findedges-calls", "exact")
	var pts []expfit.Point
	allExact := true
	for _, n := range sizes {
		g, err := workload.E1Digraph(n, workload.E1W)
		if err != nil {
			return nil, err
		}
		res, err := core.Solve(g, core.Config{Strategy: core.StrategyQuantum, Params: &params, Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		exact, err := exactAPSP(res.Dist, g)
		if err != nil {
			return nil, err
		}
		allExact = allExact && exact
		tab.AddF(n, workload.E1W, res.Rounds, res.Products, res.FindEdgesCalls, exact)
		pts = append(pts, expfit.Point{N: n, Value: float64(res.Rounds)})
	}
	// log W scaling at fixed n.
	wSweep := []int64{4, 32, 256}
	if cfg.Quick {
		wSweep = []int64{4, 64}
	}
	wTab := expfit.NewTable("W", "rounds", "findedges-calls")
	var callPts []expfit.Point
	for _, w := range wSweep {
		g, err := workload.E1Digraph(12, w)
		if err != nil {
			return nil, err
		}
		res, err := core.Solve(g, core.Config{Strategy: core.StrategyQuantum, Params: &params, Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		wTab.AddF(w, res.Rounds, res.FindEdgesCalls)
		callPts = append(callPts, expfit.Point{N: int(w), Value: float64(res.FindEdgesCalls)})
	}
	fit, _ := expfit.FitExponent(pts)
	// FindEdges calls should grow like log W: fitting calls vs W must give
	// an exponent well below linear (a power-law fit of log growth lands
	// near 0).
	wFit, _ := expfit.FitExponent(callPts)
	out := &Result{
		PaperClaim: "Theorem 1: exact APSP in Õ(n^{1/4}·log W) rounds, success 1−Õ(logW/n)",
		Output: "Rounds vs n (W=8):\n" + tab.String() +
			fmt.Sprintf("raw power-law fit: exponent %.3f (R²=%.3f); polylog factors dominate at simulable n — see E2/E4 for the component exponents\n\n", fit.Exponent, fit.R2) +
			"Rounds vs W (n=12):\n" + wTab.String() +
			fmt.Sprintf("FindEdges-calls vs W power-law exponent: %.3f (log-growth ⇒ ≈0)\n", wFit.Exponent),
		OK: allExact && wFit.Exponent < 0.5,
	}
	out.Summary = fmt.Sprintf("all distances exact=%v; calls grow sub-polynomially in W (exp %.2f)", allExact, wFit.Exponent)
	return out, nil
}

// exactAPSP reports whether d is g's Floyd–Warshall distance matrix.
func exactAPSP(d *matrix.Matrix, g *graph.Digraph) (bool, error) {
	want, err := graph.FloydWarshall(g)
	if err != nil {
		return false, err
	}
	n := g.N()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if d.At(i, j) != want[i*n+j] {
				return false, nil
			}
		}
	}
	return true, nil
}

// ---------------------------------------------------------------- E2

func runE2(cfg Config) (*Result, error) {
	sizes := []int{16, 81, 256}
	if !cfg.Quick {
		sizes = append(sizes, 625)
	}
	params := triangles.BenchParams()
	tab := expfit.NewTable("n", "rounds", "eval-calls(α=0)", "eval-rounds", "output-edges", "exact")
	var roundPts, callPts []expfit.Point
	allExact := true
	for _, n := range sizes {
		g, err := workload.TriangleGraph(n)
		if err != nil {
			return nil, err
		}
		rep, err := triangles.FindEdgesWithPromise(triangles.Instance{G: g}, triangles.Options{
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
		allExact = allExact && exact
		var calls, evalRounds int64
		if len(rep.Classes) > 0 {
			calls = rep.Classes[0].EvalCalls
			evalRounds = rep.Classes[0].EvalRounds
		}
		tab.AddF(n, rep.Rounds, calls, evalRounds, len(rep.Edges), exact)
		roundPts = append(roundPts, expfit.Point{N: n, Value: float64(rep.Rounds)})
		callPts = append(callPts, expfit.Point{N: n, Value: float64(calls)})
	}
	rFit, _ := expfit.FitExponent(roundPts)
	cFit, _ := expfit.FitExponent(callPts)
	adj, _ := expfit.PolylogAdjustedFit(roundPts, 2)
	out := &Result{
		PaperClaim: "Theorem 2: FindEdgesWithPromise in Õ(n^{1/4}) rounds, success 1−O(1/n)",
		Output: tab.String() + fmt.Sprintf(
			"raw rounds exponent %.3f (R²=%.3f); log²-adjusted %.3f; oracle-call exponent %.3f (schedule is Õ(√|X|)=Õ(n^{1/4}))\n",
			rFit.Exponent, rFit.R2, adj.Exponent, cFit.Exponent),
		OK: allExact && rFit.Exponent < 0.75,
	}
	out.Summary = fmt.Sprintf("exact=%v; rounds exponent %.2f raw / %.2f log²-adjusted (target 0.25+o(1))", allExact, rFit.Exponent, adj.Exponent)
	return out, nil
}

// ---------------------------------------------------------------- E4

func runE4(cfg Config) (*Result, error) {
	sizes := []int{16, 81, 256}
	if !cfg.Quick {
		sizes = append(sizes, 625)
	}
	params := triangles.BenchParams()
	var quantum, classical, dolev expfit.Series
	quantum.Name, classical.Name, dolev.Name = "quantum", "classical-scan", "dolev-n^{1/3}"
	var qCalls, cCalls []expfit.Point
	callTab := expfit.NewTable("n", "|X|=√n", "quantum eval-calls", "classical eval-calls")
	for _, n := range sizes {
		g, err := workload.TriangleGraph(n)
		if err != nil {
			return nil, err
		}
		q, err := triangles.FindEdgesWithPromise(triangles.Instance{G: g}, triangles.Options{
			Seed: cfg.Seed, Params: &params,
		})
		if err != nil {
			return nil, err
		}
		c, err := triangles.FindEdgesWithPromise(triangles.Instance{G: g}, triangles.Options{
			Seed: cfg.Seed, Params: &params, Mode: triangles.SearchClassicalScan,
		})
		if err != nil {
			return nil, err
		}
		d, err := triangles.DolevFindEdges(triangles.Instance{G: g}, nil)
		if err != nil {
			return nil, err
		}
		quantum.Points = append(quantum.Points, expfit.Point{N: n, Value: float64(q.Rounds)})
		classical.Points = append(classical.Points, expfit.Point{N: n, Value: float64(c.Rounds)})
		dolev.Points = append(dolev.Points, expfit.Point{N: n, Value: float64(d.Rounds)})
		var qc, cc int64
		for _, st := range q.Classes {
			qc += st.EvalCalls
		}
		for _, st := range c.Classes {
			cc += st.EvalCalls
		}
		callTab.AddF(n, int(math.Sqrt(float64(n))), qc, cc)
		qCalls = append(qCalls, expfit.Point{N: n, Value: float64(qc)})
		cCalls = append(cCalls, expfit.Point{N: n, Value: float64(cc)})
	}
	qFit, _ := expfit.FitExponent(quantum.Points)
	cFit, _ := expfit.FitExponent(classical.Points)
	qCallFit, _ := expfit.FitExponent(qCalls)
	cCallFit, _ := expfit.FitExponent(cCalls)
	out := &Result{
		PaperClaim: "Quantum Õ(n^{1/4}) beats classical search Õ(√n) and the Õ(n^{1/3}) barrier; the speedup mechanism is Grover's √|X| oracle calls",
		Output: "FindEdgesWithPromise rounds by strategy (figure F-series):\n" + expfit.RenderSeries([]expfit.Series{quantum, classical, dolev}) +
			"\nOracle-call comparison (the quadratic-speedup mechanism):\n" + callTab.String() +
			fmt.Sprintf("call exponents: quantum %.3f vs classical %.3f (classical scans |X| = n^{1/2} exactly; quantum pays Õ(n^{1/4}))\n", qCallFit.Exponent, cCallFit.Exponent) +
			fmt.Sprintf("round exponents: quantum %.3f vs classical %.3f — the quantum curve is flatter; its larger polylog constants put the absolute crossover beyond simulable n, as expected for Õ(·) bounds\n", qFit.Exponent, cFit.Exponent),
		OK: qFit.Exponent < cFit.Exponent && qCallFit.Exponent < cCallFit.Exponent,
	}
	out.Summary = fmt.Sprintf("round-exponents quantum %.2f < classical %.2f; call-exponents %.2f vs %.2f", qFit.Exponent, cFit.Exponent, qCallFit.Exponent, cCallFit.Exponent)
	return out, nil
}

// ---------------------------------------------------------------- E8

func runE8(cfg Config) (*Result, error) {
	tab := expfit.NewTable("n", "words/node", "rounds", "lemma-1 bound", "schedule valid")
	ok := true
	sizes := []int{8, 16, 32}
	if cfg.Quick {
		sizes = []int{8, 16}
	}
	for _, n := range sizes {
		for _, mult := range []int{1, 3} {
			net, err := congest.NewNetwork(n, congest.WithScheduleValidation())
			if err != nil {
				return nil, err
			}
			_, err = net.ExchangeBalanced("e8", workload.RelayMessages(n, mult))
			valid := err == nil
			bound := int64(2 * mult)
			if net.Rounds() > bound || !valid {
				ok = false
			}
			tab.AddF(n, mult*n, net.Rounds(), bound, valid)
		}
	}
	out := &Result{
		PaperClaim: "Lemma 1 (Dolev et al.): ≤n-per-source/destination message sets deliver in 2 rounds (k·n loads in 2k)",
		Output:     tab.String(),
		OK:         ok,
		Summary:    fmt.Sprintf("all schedules within the 2·⌈load/n⌉ bound and König-validated: %v", ok),
	}
	return out, nil
}

// ---------------------------------------------------------------- E12

func runE12(cfg Config) (*Result, error) {
	rng := xrand.New(cfg.Seed)
	sizes := []int{16, 64, 256, 1024}
	if !cfg.Quick {
		sizes = append(sizes, 4096)
	}
	tab := expfit.NewTable("|X|", "avg oracle calls", "π/4·√|X|", "found rate")
	var pts []expfit.Point
	ok := true
	for _, n := range sizes {
		const trials = 40
		var calls int64
		found := 0
		for tr := 0; tr < trials; tr++ {
			r := rng.SplitN("t", n*1000+tr)
			target := r.IntN(n)
			res := quantum.Search(n, func(x int) bool { return x == target }, r)
			if res.Found {
				found++
				calls += res.OracleCalls()
			}
		}
		avg := float64(calls) / float64(max(found, 1))
		ideal := math.Pi / 4 * math.Sqrt(float64(n))
		tab.AddF(n, avg, ideal, fmt.Sprintf("%d/%d", found, trials))
		pts = append(pts, expfit.Point{N: n, Value: avg})
		if found < trials*9/10 {
			ok = false
		}
	}
	fit, _ := expfit.FitExponent(pts)
	if fit.Exponent > 0.65 || fit.Exponent < 0.3 {
		ok = false
	}
	out := &Result{
		PaperClaim: "Grover (framework of Section 4.1): a solution is found with O(√|X|) oracle calls",
		Output:     tab.String() + fmt.Sprintf("call exponent %.3f (R²=%.3f), target 0.5\n", fit.Exponent, fit.R2),
		OK:         ok,
		Summary:    fmt.Sprintf("oracle-call exponent %.2f ≈ 1/2", fit.Exponent),
	}
	return out, nil
}

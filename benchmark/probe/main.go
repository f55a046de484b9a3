// Command probe times single layers of the program under test by calling
// their exported functions directly, and prints one JSON report of the
// medians. It runs after a traced workload, outside its measured window.
//
//	probe -seed 0
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"time"

	"qclique"
	"qclique/benchmark/inputs"
	"qclique/benchmark/report"
	"qclique/internal/congest"
	"qclique/internal/core"
	"qclique/internal/distprod"
	"qclique/internal/graph"
	"qclique/internal/matrix"
	"qclique/internal/par"
	"qclique/internal/qsearch"
	"qclique/internal/quantum"
	"qclique/internal/serve"
	"qclique/internal/triangles"
	"qclique/internal/xrand"
)

// e2Rounds pins the rounds of FindEdgesWithPromise on the E2 n=256
// instance at seed 0 (BENCH_1.json, E2FindEdgesPromise/n=256).
const e2Rounds = 1277

func main() {
	seed := flag.Uint64("seed", 0, "input seed")
	flag.Parse()
	out, err := run(*seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "probe:", err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "probe:", err)
		os.Exit(1)
	}
}

// prober collects the probes.
type prober struct{ probes []report.Probe }

// timeCalls calls fn k times and returns the median call time and when the
// calls began and ended.
func timeCalls(k int, fn func(i int) error) (med float64, start, end time.Time, err error) {
	walls := make([]float64, 0, k)
	start = time.Now()
	for i := 0; i < k; i++ {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return 0, start, time.Now(), err
		}
		walls = append(walls, float64(time.Since(t0)))
	}
	sort.Float64s(walls)
	med = walls[k/2]
	if k%2 == 0 {
		med = (walls[k/2-1] + walls[k/2]) / 2
	}
	return med, start, time.Now(), nil
}

// time records the median of k calls of fn in unit, "ms" or "us".
func (p *prober) time(name, unit string, k int, fn func(i int) error) error {
	med, start, end, err := timeCalls(k, fn)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	scale := map[string]float64{"ms": 1e6, "us": 1e3}[unit]
	p.add(report.Probe{Name: name, Unit: unit, Value: med / scale, Calls: k, StartUnixNs: start.UnixNano(), EndUnixNs: end.UnixNano()})
	return nil
}

func (p *prober) add(pr report.Probe) { p.probes = append(p.probes, pr) }

// check marks the latest probe failed when err is non-nil: its calls ran,
// but an answer was wrong.
func (p *prober) check(err error) {
	if err != nil {
		p.probes[len(p.probes)-1].Err = err.Error()
	}
}

// ratio records a/b of two earlier probes.
func (p *prober) ratio(name, a, b string) {
	var va, vb float64
	for _, pr := range p.probes {
		switch pr.Name {
		case a:
			va = pr.Value
		case b:
			vb = pr.Value
		}
	}
	p.add(report.Probe{Name: name, Unit: "ratio", Value: va / vb})
}

func run(seed uint64) ([]report.Probe, error) {
	p := &prober{}
	nproc := runtime.GOMAXPROCS(0)
	bench := triangles.BenchParams()
	for _, probe := range []func(*prober, uint64, int, *triangles.Params) error{
		probeDistprod, probeTriangles, probeQsearch, probeCongest, probePar, probeMatrix, probeServe, probeHTTP,
	} {
		if err := probe(p, seed, nproc, &bench); err != nil {
			return nil, err
		}
	}
	return p.probes, nil
}

func digraph(g inputs.Graph) (*graph.Digraph, error) {
	d := graph.NewDigraph(g.N)
	for _, a := range g.Arcs {
		if err := d.SetArc(a.U, a.V, a.W); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// probeDistprod times one distance product of A_G for theorem1's first
// graph, and that graph's theorem1 solve at one worker against nproc
// workers.
func probeDistprod(p *prober, seed uint64, nproc int, bench *triangles.Params) error {
	g := inputs.Theorem1Graph(seed, 0)
	d, err := digraph(g)
	if err != nil {
		return err
	}
	ag := matrix.FromDigraph(d)
	c := matrix.New(ag.N())
	if err := p.time("distprod.product_ms", "ms", 3, func(int) error {
		_, err := distprod.ProductInto(c, ag, ag, distprod.Options{Solver: distprod.SolverQuantum, Params: bench})
		return err
	}); err != nil {
		return err
	}
	pub := qclique.NewDigraph(g.N)
	for _, a := range g.Arcs {
		if err := pub.SetArc(a.U, a.V, a.W); err != nil {
			return err
		}
	}
	var walls [2]float64
	var start, end time.Time
	for i, w := range []int{1, nproc} {
		var t0 time.Time
		walls[i], t0, end, err = timeCalls(1, func(int) error {
			_, err := qclique.SolveAPSP(pub, qclique.WithParams(qclique.ScaledConstants), qclique.WithWorkers(w))
			return err
		})
		if err != nil {
			return fmt.Errorf("par.theorem1_speedup: %w", err)
		}
		if i == 0 {
			start = t0
		}
	}
	p.add(report.Probe{Name: "par.theorem1_speedup", Unit: "ratio", Value: walls[0] / walls[1], Calls: 2,
		StartUnixNs: start.UnixNano(), EndUnixNs: end.UnixNano()})
	return nil
}

// probeTriangles times FindEdgesWithPromise on the E2 n=256 instance.
func probeTriangles(p *prober, _ uint64, _ int, bench *triangles.Params) error {
	const n = 256
	rng := xrand.New(n)
	g, err := graph.RandomUndirected(n, graph.UndirectedOpts{EdgeProb: 0.15, MinWeight: 1, MaxWeight: 40}, rng)
	if err != nil {
		return err
	}
	if _, err := graph.PlantNegativeTriangles(g, 1+n/16, 30, rng.Split("p")); err != nil {
		return err
	}
	var bad error
	err = p.time("triangles.promise_ms", "ms", 5, func(int) error {
		rep, err := triangles.FindEdgesWithPromise(triangles.Instance{G: g}, triangles.Options{Seed: 0, Params: bench, Data: triangles.DataDirect})
		if err == nil && rep.Rounds != e2Rounds {
			bad = fmt.Errorf("triangles.promise_ms: %d rounds, want %d", rep.Rounds, e2Rounds)
		}
		return err
	})
	if err == nil {
		p.check(bad)
	}
	return err
}

// probeQsearch times MultiSearch (E3, m=8000) and one Grover search.
func probeQsearch(p *prober, _ uint64, _ int, _ *triangles.Params) error {
	const m, size = 8000, 8
	rng := xrand.New(m)
	tables := make([][]bool, m)
	for i := range tables {
		tables[i] = make([]bool, size)
		tables[i][rng.IntN(size)] = true
	}
	var bad error
	if err := p.time("qsearch.multisearch_ms", "ms", 15, func(i int) error {
		nw, err := congest.NewNetwork(8)
		if err != nil {
			return err
		}
		res, err := qsearch.MultiSearch(nw, qsearch.Spec{
			SpaceSize: size, Instances: m, Eval: qsearch.LocalEval(tables, 1), Beta: 8*float64(m)/size + 64,
		}, rng.SplitN("i", i))
		if err == nil && !res.AllFound() {
			bad = errors.New("qsearch.multisearch_ms: a search found nothing")
		}
		return err
	}); err != nil {
		return err
	}
	p.check(bad)
	const x = 1024
	qrng := xrand.New(x)
	if err := p.time("quantum.search_us", "us", 200, func(i int) error {
		target := qrng.IntN(x)
		if res := quantum.Search(x, func(v int) bool { return v == target }, qrng.SplitN("i", i)); !res.Found || res.X != target {
			bad = errors.New("quantum.search_us: a search missed its target")
		}
		return nil
	}); err != nil {
		return err
	}
	p.check(bad)
	return nil
}

// probeCongest times Lemma 1 balanced delivery and charging of the skewed
// AblationRouting load on 192 nodes.
func probeCongest(p *prober, _ uint64, _ int, _ *triangles.Params) error {
	const n = 192
	rng := xrand.New(1)
	var loads []congest.Load
	var msgs []congest.Message
	for s := 0; s < n; s++ {
		for i := 0; i < 4*n; i++ {
			d := rng.IntN(n / 8)
			if rng.Bool(0.5) {
				d = rng.IntN(n)
			}
			if d == s {
				continue
			}
			loads = append(loads, congest.Load{Src: congest.NodeID(s), Dst: congest.NodeID(d), Words: 1})
			msgs = append(msgs, congest.Message{Src: congest.NodeID(s), Dst: congest.NodeID(d)})
		}
	}
	if err := p.time("congest.exchange_balanced_ms", "ms", 10, func(int) error {
		nw, err := congest.NewNetwork(n)
		if err != nil {
			return err
		}
		_, err = nw.ExchangeBalanced("probe", msgs)
		return err
	}); err != nil {
		return err
	}
	return p.time("congest.charge_balanced_ms", "ms", 10, func(int) error {
		nw, err := congest.NewNetwork(n)
		if err != nil {
			return err
		}
		return nw.ChargeBalanced("probe", loads)
	})
}

// probePar times the dispatch of 192 no-op items over nproc workers.
func probePar(p *prober, _ uint64, nproc int, _ *triangles.Params) error {
	return p.time("par.for_us", "us", 2000, func(int) error {
		par.For(nproc, 192, func(int) {})
		return nil
	})
}

// probeMatrix times the n=256 min-plus product at nproc workers and at one.
func probeMatrix(p *prober, seed uint64, nproc int, _ *triangles.Params) error {
	d, err := digraph(inputs.E1Digraph(256, inputs.RNG(inputs.Derive(seed, "probe/minplus", 0))))
	if err != nil {
		return err
	}
	a := matrix.FromDigraph(d)
	dst := matrix.New(a.N())
	for _, w := range []struct {
		name    string
		workers int
	}{{"matrix.minplus_ms", nproc}, {"matrix.minplus_w1_ms", 1}} {
		if err := p.time(w.name, "ms", 10, func(int) error { return matrix.MulMinPlusInto(dst, a, a, w.workers) }); err != nil {
			return err
		}
	}
	p.ratio("par.minplus_speedup", "matrix.minplus_w1_ms", "matrix.minplus_ms")
	return nil
}

// newService returns the service as apspd configures it by default.
func newService(nproc int) *serve.Service {
	return serve.New(serve.Config{CacheSize: 64, MaxGraphs: 1024, MaxInflight: nproc, QueueDepth: 64, DefaultStrategy: core.StrategyAuto})
}

// freshGraphs draws k n=256 serve graphs the service has not seen.
func freshGraphs(seed uint64, label string, k int) []inputs.Graph {
	gs := make([]inputs.Graph, k)
	for i := range gs {
		gs[i] = inputs.E1Digraph(256, inputs.RNG(inputs.Derive(seed, label, i)))
	}
	return gs
}

// probeServe times the service in process: uploads, cache-missing and
// cache-hitting solves, and a batch of path queries.
func probeServe(p *prober, seed uint64, nproc int, _ *triangles.Params) error {
	svc := newService(nproc)
	gs := freshGraphs(seed, "probe/serve", 5)
	ids := make([]string, len(gs))
	if err := p.time("serve.put_graph_ms", "ms", len(gs), func(i int) error {
		d, err := digraph(gs[i])
		if err != nil {
			return err
		}
		ids[i], err = svc.PutGraph(d)
		return err
	}); err != nil {
		return err
	}
	if err := p.time("serve.miss_ms", "ms", len(ids), func(i int) error {
		_, err := svc.Solve(ids[i], serve.SolveSpec{})
		return err
	}); err != nil {
		return err
	}
	var bad error
	if err := p.time("serve.hit_us", "us", 500, func(i int) error {
		res, err := svc.Solve(ids[i%len(ids)], serve.SolveSpec{})
		if err == nil && !res.Cached {
			bad = errors.New("serve.hit_us: a solve missed the cache")
		}
		return err
	}); err != nil {
		return err
	}
	p.check(bad)
	rng := inputs.RNG(inputs.Derive(seed, "probe/queries", 0))
	queries := make([]serve.PathQuery, 16)
	for i := range queries {
		queries[i] = serve.PathQuery{Src: rng.IntN(256), Dst: rng.IntN(256)}
	}
	return p.time("serve.paths_batch_us", "us", 200, func(i int) error {
		_, _, err := svc.PathsBatch(ids[i%len(ids)], serve.SolveSpec{}, queries)
		return err
	})
}

// probeHTTP times the HTTP surface in process over httptest.
func probeHTTP(p *prober, seed uint64, nproc int, _ *triangles.Params) error {
	srv := httptest.NewServer(serve.NewHandler(newService(nproc)))
	defer srv.Close()
	c := srv.Client()
	get := func(path string) error {
		resp, err := c.Get(srv.URL + path)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		return nil
	}
	gs := freshGraphs(seed, "probe/http", 5)
	bodies := make([][]byte, len(gs))
	for i, g := range gs {
		bodies[i] = g.JSON()
	}
	var id string
	if err := p.time("http.put_graph_ms", "ms", len(gs), func(i int) error {
		req, err := http.NewRequest("PUT", srv.URL+"/v1/graphs", bytes.NewReader(bodies[i]))
		if err != nil {
			return err
		}
		resp, err := c.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		var out struct {
			ID string `json:"id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return err
		}
		id = out.ID
		return nil
	}); err != nil {
		return err
	}
	if err := p.time("http.healthz_us", "us", 500, func(int) error { return get("/v1/healthz") }); err != nil {
		return err
	}
	if err := get("/v1/graphs/" + id + "/dist"); err != nil { // solves, so the probe reads hits
		return err
	}
	return p.time("http.dist_full_ms", "ms", 10, func(int) error { return get("/v1/graphs/" + id + "/dist") })
}

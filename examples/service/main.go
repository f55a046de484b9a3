// Service example: the two ways to amortize APSP solves across a query
// workload.
//
// Library path: qclique.NewSolver gives a handle whose cache, singleflight
// dedup and worker pool make repeated and concurrent queries against the
// same graph charge the Õ(n^{1/4}·log W) pipeline once.
//
// Daemon path: the same layer over HTTP — this example launches the real
// cmd/apspd daemon on a free port and drives it exactly as an external
// client would (upload by content hash, solve, batched path queries,
// metrics). It exits nonzero unless the daemon's solve charges the same
// rounds as the library handle and its re-solve is a cache hit. The client
// half uses nothing but net/http and encoding/json, so it can be copied
// verbatim into code outside this module.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"qclique"
)

func main() {
	const n = 24
	g := qclique.NewDigraph(n)
	for i := 0; i < n; i++ {
		if err := g.SetArc(i, (i+1)%n, 2); err != nil {
			log.Fatal(err)
		}
		if i%3 == 0 {
			if err := g.SetArc(i, (i+7)%n, -1); err != nil {
				log.Fatal(err)
			}
		}
	}

	// --- Library path: a cached, deduplicated solver handle.
	solver := qclique.NewSolver(
		qclique.WithStrategy(qclique.Quantum),
		qclique.WithParams(qclique.ScaledConstants),
		qclique.WithSeed(42),
		qclique.WithCacheSize(16),
	)
	res, err := solver.Solve(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fresh solve: %d simulated rounds (cached=%v)\n", res.Rounds, res.Cached)

	// 100 path queries against the one cached result: zero further
	// simulator rounds, per-destination reconstruction shared.
	var queries []qclique.PathQuery
	for i := 0; i < 100; i++ {
		queries = append(queries, qclique.PathQuery{Src: i % n, Dst: (i*7 + 3) % n})
	}
	answers, shared, err := solver.PathsBatch(g, queries)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("batched %d path queries against the cached solve (cached=%v)\n", len(answers), shared.Cached)
	fmt.Printf("example: %d→%d dist %d via %v\n", answers[0].Src, answers[0].Dst, answers[0].Dist, answers[0].Path)
	st := solver.Stats()
	fmt.Printf("solver stats: %d simulator runs, %d cache hits, %d rounds charged\n\n",
		st.Strategies["quantum"].Solves, st.Strategies["quantum"].CacheHits, st.Strategies["quantum"].RoundsCharged)

	// --- Daemon path: launch the real apspd and talk HTTP/JSON to it.
	addr, stop, err := startDaemon()
	if err != nil {
		log.Fatal(err)
	}
	defer stop()
	base := "http://" + addr
	client := &http.Client{Timeout: 60 * time.Second}

	call := func(method, path string, body any, out any) {
		var buf bytes.Buffer
		if body != nil {
			if err := json.NewEncoder(&buf).Encode(body); err != nil {
				log.Fatal(err)
			}
		}
		req, err := http.NewRequest(method, base+path, &buf)
		if err != nil {
			log.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			log.Fatalf("%s %s: status %d", method, path, resp.StatusCode)
		}
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				log.Fatal(err)
			}
		}
	}

	gj := map[string]any{"n": n}
	var arcs []map[string]any
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if w, ok := g.Weight(u, v); ok {
				arcs = append(arcs, map[string]any{"u": u, "v": v, "w": w})
			}
		}
	}
	gj["arcs"] = arcs

	var put struct {
		ID string `json:"id"`
	}
	call(http.MethodPut, "/v1/graphs", gj, &put)
	fmt.Printf("uploaded graph, content id %.24s…\n", put.ID)

	solveBody := map[string]any{"strategy": "quantum", "preset": "scaled", "seed": 42}
	var s1, s2 struct {
		Rounds int64 `json:"rounds"`
		Cached bool  `json:"cached"`
	}
	call(http.MethodPost, "/v1/graphs/"+put.ID+"/solve", solveBody, &s1)
	call(http.MethodPost, "/v1/graphs/"+put.ID+"/solve", solveBody, &s2)
	fmt.Printf("daemon solve: %d rounds (cached=%v), re-solve cached=%v\n", s1.Rounds, s1.Cached, s2.Cached)
	// The daemon runs the same pipeline as the library: same graph, seed and
	// preset, same rounds; and the identical re-solve is a cache hit.
	if s1.Rounds != res.Rounds {
		log.Fatalf("daemon solve charged %d rounds, the library Solver %d", s1.Rounds, res.Rounds)
	}
	if !s2.Cached {
		log.Fatal("daemon re-solve was not served from the cache")
	}

	batch := map[string]any{
		"strategy": "quantum", "preset": "scaled", "seed": 42,
		"queries": []map[string]int{{"src": 0, "dst": 13}, {"src": 3, "dst": 1}},
	}
	var batchResp struct {
		Results []struct {
			Src  int    `json:"src"`
			Dst  int    `json:"dst"`
			Dist *int64 `json:"dist"`
			Path []int  `json:"path"`
		} `json:"results"`
	}
	call(http.MethodPost, "/v1/graphs/"+put.ID+"/paths:batch", batch, &batchResp)
	for _, r := range batchResp.Results {
		fmt.Printf("daemon path %d→%d: dist %d via %v\n", r.Src, r.Dst, *r.Dist, r.Path)
	}

	var metrics struct {
		Graphs        int `json:"graphs"`
		CachedResults int `json:"cached_results"`
		Strategies    map[string]struct {
			Solves    int64 `json:"solves"`
			CacheHits int64 `json:"cache_hits"`
		} `json:"strategies"`
	}
	call(http.MethodGet, "/v1/metrics", nil, &metrics)
	fmt.Printf("daemon metrics: %d graphs, %d cached results, quantum solves=%d cache_hits=%d\n",
		metrics.Graphs, metrics.CachedResults,
		metrics.Strategies["quantum"].Solves, metrics.Strategies["quantum"].CacheHits)
}

// startDaemon builds cmd/apspd into a temp dir, launches it on a free
// localhost port and waits for /v1/readyz to answer 200. Running the built
// binary directly (rather than `go run`) ensures stop() kills the actual
// daemon, not a wrapper that would orphan it.
func startDaemon() (addr string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	addr = ln.Addr().String()
	ln.Close()

	dir, err := os.MkdirTemp("", "apspd")
	if err != nil {
		return "", nil, err
	}
	bin := filepath.Join(dir, "apspd")
	build := exec.Command("go", "build", "-o", bin, "qclique/cmd/apspd")
	if out, err := build.CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		return "", nil, fmt.Errorf("building apspd (run from inside the module): %w\n%s", err, out)
	}

	cmd := exec.Command(bin, "-addr", addr)
	if err := cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return "", nil, err
	}
	stop = func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		os.RemoveAll(dir)
	}

	client := &http.Client{Timeout: time.Second}
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(100 * time.Millisecond) {
		resp, err := client.Get("http://" + addr + "/v1/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return addr, stop, nil
			}
		}
	}
	stop()
	return "", nil, fmt.Errorf("apspd did not become ready on %s", addr)
}

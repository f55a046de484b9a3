package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"qclique/internal/core"
	"qclique/internal/graph"
	"qclique/internal/triangles"
)

func doJSON(t *testing.T, srv *httptest.Server, method, path string, body any, out any) *http.Response {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, srv.URL+path, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode: %v", method, path, err)
		}
	}
	return resp
}

// graphJSON lists g's arcs as an upload body, in row-major order.
func graphJSON(g *graph.Digraph) GraphJSON {
	gj := GraphJSON{N: g.N()}
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if w, ok := g.Weight(u, v); ok {
				gj.Arcs = append(gj.Arcs, ArcJSON{U: u, V: v, W: w})
			}
		}
	}
	return gj
}

// TestHTTPEndToEnd drives the full API against an in-process server and
// cross-checks every response with a direct core.Solve.
func TestHTTPEndToEnd(t *testing.T) {
	g := testDigraph(t, 10, 42)
	want, err := core.Solve(g, core.Config{Strategy: core.StrategyGossip})
	if err != nil {
		t.Fatal(err)
	}

	svc := New(Config{})
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	// PUT /v1/graphs
	gj := graphJSON(g)
	var put struct {
		ID   string `json:"id"`
		N    int    `json:"n"`
		Arcs int    `json:"arcs"`
	}
	if resp := doJSON(t, srv, http.MethodPut, "/v1/graphs", gj, &put); resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT /v1/graphs: status %d", resp.StatusCode)
	}
	if put.ID != HashDigraph(g) || put.N != g.N() || put.Arcs != g.ArcCount() {
		t.Fatalf("PUT response %+v inconsistent with graph", put)
	}

	// POST solve — fresh, then cached.
	solvePath := "/v1/graphs/" + put.ID + "/solve"
	var first, second SolveJSON
	if resp := doJSON(t, srv, http.MethodPost, solvePath, solveParamsJSON{Strategy: "gossip"}, &first); resp.StatusCode != http.StatusOK {
		t.Fatalf("POST solve: status %d", resp.StatusCode)
	}
	if first.Cached || first.Rounds != want.Rounds {
		t.Fatalf("first solve = %+v, want fresh with rounds %d", first, want.Rounds)
	}
	doJSON(t, srv, http.MethodPost, solvePath, solveParamsJSON{Strategy: "gossip"}, &second)
	if !second.Cached || second.Rounds != first.Rounds {
		t.Fatalf("second solve = %+v, want cached bit-identical", second)
	}

	// GET dist for every pair, then the full-matrix form.
	checkDist := func(form string, src, dst int, got *int64) {
		t.Helper()
		w := want.Dist.At(src, dst)
		switch {
		case w >= graph.Inf:
			if got != nil {
				t.Fatalf("%s d(%d,%d) = %d, want null", form, src, dst, *got)
			}
		case got == nil:
			t.Fatalf("%s d(%d,%d) = null, want %d", form, src, dst, w)
		case *got != w:
			t.Fatalf("%s d(%d,%d) = %d, want %d", form, src, dst, *got, w)
		}
	}
	for src := 0; src < g.N(); src++ {
		for dst := 0; dst < g.N(); dst++ {
			var one struct {
				Dist *int64 `json:"dist"`
			}
			path := fmt.Sprintf("/v1/graphs/%s/dist?strategy=gossip&src=%d&dst=%d", put.ID, src, dst)
			if resp := doJSON(t, srv, http.MethodGet, path, nil, &one); resp.StatusCode != http.StatusOK {
				t.Fatalf("GET dist: status %d", resp.StatusCode)
			}
			checkDist("pair", src, dst, one.Dist)
		}
	}
	var full struct {
		N    int        `json:"n"`
		Dist [][]*int64 `json:"dist"`
	}
	doJSON(t, srv, http.MethodGet, "/v1/graphs/"+put.ID+"/dist?strategy=gossip", nil, &full)
	if full.N != g.N() || len(full.Dist) != g.N() {
		t.Fatalf("full dist: n=%d rows=%d", full.N, len(full.Dist))
	}
	for src, row := range full.Dist {
		if len(row) != g.N() {
			t.Fatalf("full dist row %d has %d entries, want %d", src, len(row), g.N())
		}
		for dst, got := range row {
			checkDist("full", src, dst, got)
		}
	}

	// POST paths:batch.
	batch := batchRequestJSON{solveParamsJSON: solveParamsJSON{Strategy: "gossip"}}
	for src := 0; src < g.N(); src++ {
		for dst := 0; dst < g.N(); dst++ {
			batch.Queries = append(batch.Queries, PathQuery{Src: src, Dst: dst})
		}
	}
	var batchResp struct {
		Cached  bool       `json:"cached"`
		Results []PathJSON `json:"results"`
	}
	if resp := doJSON(t, srv, http.MethodPost, "/v1/graphs/"+put.ID+"/paths:batch", batch, &batchResp); resp.StatusCode != http.StatusOK {
		t.Fatalf("POST paths:batch: status %d", resp.StatusCode)
	}
	if !batchResp.Cached {
		t.Fatal("batch against a solved graph must be served from cache")
	}
	for _, r := range batchResp.Results {
		w := want.Dist.At(r.Src, r.Dst)
		if w >= graph.Inf {
			if r.Error == "" {
				t.Fatalf("(%d,%d): want a no-path error", r.Src, r.Dst)
			}
			continue
		}
		if r.Dist == nil || *r.Dist != w {
			t.Fatalf("(%d,%d): dist %v, want %d", r.Src, r.Dst, r.Dist, w)
		}
		pw, err := core.PathWeight(g, r.Path)
		if err != nil || pw != w {
			t.Fatalf("(%d,%d): path %v weight %d (%v), want %d", r.Src, r.Dst, r.Path, pw, err, w)
		}
	}

	// GET /v1/metrics.
	var stats Stats
	if resp := doJSON(t, srv, http.MethodGet, "/v1/metrics", nil, &stats); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/metrics: status %d", resp.StatusCode)
	}
	gs := stats.Strategies["gossip"]
	if gs.Solves != 1 {
		t.Fatalf("metrics: %d solves, want exactly 1 across the whole flow", gs.Solves)
	}
	if stats.PathQueries != int64(len(batch.Queries)) {
		t.Fatalf("metrics: %d path queries, want %d", stats.PathQueries, len(batch.Queries))
	}

	// A quantum solve honours the preset and the seed: its rounds equal a
	// direct core.Solve under the same constants and seed. Gossip's rounds
	// depend on neither, so the legs above cannot catch a dropped field.
	scaled := triangles.BenchParams()
	wantQuantum, err := core.Solve(g, core.Config{Strategy: core.StrategyQuantum, Params: &scaled, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	var quantum SolveJSON
	if resp := doJSON(t, srv, http.MethodPost, solvePath, map[string]any{"strategy": "quantum", "preset": "scaled", "seed": 42}, &quantum); resp.StatusCode != http.StatusOK {
		t.Fatalf("quantum solve: status %d", resp.StatusCode)
	}
	if quantum.Rounds != wantQuantum.Rounds {
		t.Fatalf("quantum solve charged %d rounds, core.Solve %d", quantum.Rounds, wantQuantum.Rounds)
	}

	// An auto solve echoes the planner's decision, and an explicit request
	// for the planned strategy is served from the entry it cached.
	var planned, explicit SolveJSON
	if resp := doJSON(t, srv, http.MethodPost, solvePath, map[string]any{"strategy": "auto", "seed": 4242}, &planned); resp.StatusCode != http.StatusOK {
		t.Fatalf("auto solve: status %d", resp.StatusCode)
	}
	if planned.PlannedStrategy == "" || planned.PlannedStrategy != planned.Strategy ||
		planned.PlannerReason == "" || planned.PredictedRounds <= 0 || planned.PredictedWallNs <= 0 {
		t.Fatalf("auto solve decision telemetry: %+v", planned)
	}
	doJSON(t, srv, http.MethodPost, solvePath, map[string]any{"strategy": planned.PlannedStrategy, "seed": 4242}, &explicit)
	if !explicit.Cached || explicit.Rounds != planned.Rounds {
		t.Fatalf("explicit %s re-solve = %+v, want cached with rounds %d", planned.PlannedStrategy, explicit, planned.Rounds)
	}

	// GET /v1/strategies lists every registered strategy with its guarantee.
	var catalog struct {
		Strategies []CatalogEntry `json:"strategies"`
	}
	if resp := doJSON(t, srv, http.MethodGet, "/v1/strategies", nil, &catalog); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/strategies: status %d", resp.StatusCode)
	}
	guarantees := make(map[string]string, len(catalog.Strategies))
	for _, e := range catalog.Strategies {
		guarantees[e.Name] = e.Guarantee
	}
	for _, name := range []string{"quantum", "classical-search", "dolev", "gossip", "approx-quantum", "approx-skeleton"} {
		if guarantees[name] == "" {
			t.Errorf("catalog %v: %q missing or without a guarantee", guarantees, name)
		}
	}
}

// TestHTTPStrategiesKeyOrder pins the wire form of a GET /v1/strategies
// row: the name and guarantee, the capability fields, then the live
// telemetry, in that order.
func TestHTTPStrategiesKeyOrder(t *testing.T) {
	svc := New(Config{})
	id, err := svc.PutGraph(symDigraph(t, 6))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Solve(id, SolveSpec{Strategy: core.StrategyApproxSkeleton, Epsilon: 0.5}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()
	var catalog struct {
		Strategies []json.RawMessage `json:"strategies"`
	}
	doJSON(t, srv, http.MethodGet, "/v1/strategies", nil, &catalog)
	want := []string{"name", "guarantee", "approximate", "rejects_negative", "needs_symmetric",
		"min_epsilon", "max_epsilon", "solves", "mean_wall_ns", "mean_rounds"}
	for _, row := range catalog.Strategies {
		if !bytes.Contains(row, []byte(`"name":"approx-skeleton"`)) {
			continue
		}
		at := -1
		for _, k := range want {
			i := bytes.Index(row, []byte(`"`+k+`":`))
			if i <= at || bytes.Count(row, []byte(`":`)) != len(want) {
				t.Fatalf("approx-skeleton row %s: want exactly the keys %v, in order", row, want)
			}
			at = i
		}
		return
	}
	t.Fatal("no approx-skeleton row in the catalog")
}

// TestHTTPErrors pins the failure statuses.
func TestHTTPErrors(t *testing.T) {
	svc := New(Config{})
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	if resp := doJSON(t, srv, http.MethodPost, "/v1/graphs/sha256:nope/solve", solveParamsJSON{}, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown graph: status %d, want 404", resp.StatusCode)
	}
	if resp := doJSON(t, srv, http.MethodPut, "/v1/graphs", GraphJSON{N: 2, Arcs: []ArcJSON{{U: 0, V: 0, W: 1}}}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("self-loop: status %d, want 400", resp.StatusCode)
	}
	if resp := doJSON(t, srv, http.MethodPost, "/v1/graphs/x/solve", solveParamsJSON{Strategy: "warp"}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad strategy: status %d, want 400", resp.StatusCode)
	}

	// A huge vertex count must be rejected before the n² allocation, not
	// OOM the daemon.
	if resp := doJSON(t, srv, http.MethodPut, "/v1/graphs", GraphJSON{N: 200000}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized n: status %d, want 400", resp.StatusCode)
	}

	// A weight outside (−Inf, Inf) is a sentinel, not a weight: it would
	// store −∞ or an absent arc, or overflow the planner's cost model.
	for _, w := range []int64{math.MinInt64, math.MaxInt64, graph.NoEdge} {
		if resp := doJSON(t, srv, http.MethodPut, "/v1/graphs", GraphJSON{N: 3, Arcs: []ArcJSON{{0, 1, w}, {1, 2, 1}}}, nil); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("weight %d: status %d, want 400", w, resp.StatusCode)
		}
	}

	// Negative cycle → 422.
	cyc := GraphJSON{N: 3, Arcs: []ArcJSON{{0, 1, -2}, {1, 2, -2}, {2, 0, 1}}}
	var put struct {
		ID string `json:"id"`
	}
	doJSON(t, srv, http.MethodPut, "/v1/graphs", cyc, &put)
	if resp := doJSON(t, srv, http.MethodPost, "/v1/graphs/"+put.ID+"/solve", solveParamsJSON{Strategy: "gossip"}, nil); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("negative cycle: status %d, want 422", resp.StatusCode)
	}

	// dst without src → 400, and malformed dist requests must be rejected
	// before the solve runs (no rounds charged, no cache slot taken).
	requestsBefore := svc.Stats().Strategies["gossip"].Requests
	ok := GraphJSON{N: 2, Arcs: []ArcJSON{{0, 1, 1}}}
	doJSON(t, srv, http.MethodPut, "/v1/graphs", ok, &put)
	if resp := doJSON(t, srv, http.MethodGet, "/v1/graphs/"+put.ID+"/dist?strategy=gossip&dst=1", nil, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("dst without src: status %d, want 400", resp.StatusCode)
	}
	if resp := doJSON(t, srv, http.MethodGet, "/v1/graphs/"+put.ID+"/dist?strategy=gossip&src=99", nil, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("src out of range: status %d, want 400", resp.StatusCode)
	}
	if got := svc.Stats().Strategies["gossip"].Requests; got != requestsBefore {
		t.Fatalf("malformed dist requests triggered %d solve request(s)", got-requestsBefore)
	}
}

// TestHTTPPathsBatchRejectsOutOfRange: a paths:batch query endpoint outside
// [0, n) answers 400 invalid_spec before the solve runs, as GET dist does,
// rather than a solve followed by a per-query error.
func TestHTTPPathsBatchRejectsOutOfRange(t *testing.T) {
	svc := New(Config{})
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()
	id, err := svc.PutGraph(testDigraph(t, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []map[string]int{
		{"src": 0, "dst": 7},
		{"src": 3, "dst": 0},
		{"src": -1, "dst": 1},
		{"src": 0, "dst": -1},
	} {
		var e struct {
			Error ErrorJSON `json:"error"`
		}
		resp := doJSON(t, srv, http.MethodPost, "/v1/graphs/"+id+"/paths:batch", map[string]any{
			"queries": []map[string]int{{"src": 0, "dst": 1}, q},
		}, &e)
		if resp.StatusCode != http.StatusBadRequest || e.Error.Code != "invalid_spec" {
			t.Errorf("query %v: status %d code %q, want 400 invalid_spec", q, resp.StatusCode, e.Error.Code)
		}
	}
	for name, st := range svc.Stats().Strategies {
		if st.Solves != 0 {
			t.Errorf("%s: %d solve(s) for rejected batches, want 0", name, st.Solves)
		}
	}
}

// TestHTTPTimeoutMSBound: a timeout_ms whose time.Duration would overflow
// is a 400 invalid_spec on both solve endpoints, not a retryable 503 that
// no retry can turn into a success; the largest representable value, and a
// merely large one, still solve.
func TestHTTPTimeoutMSBound(t *testing.T) {
	svc := New(Config{})
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()
	id, err := svc.PutGraph(testDigraph(t, 6, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		timeoutMS int64
		want      int
	}{
		{10_000_000_000_000, http.StatusBadRequest},
		{maxTimeoutMS + 1, http.StatusBadRequest},
		{maxTimeoutMS, http.StatusOK},
		{1_000_000_000_000, http.StatusOK},
	} {
		for _, req := range []struct {
			method, path string
			body         any
		}{
			{http.MethodPost, "/v1/graphs/" + id + "/solve", solveParamsJSON{Strategy: "gossip", TimeoutMS: tc.timeoutMS}},
			{http.MethodGet, fmt.Sprintf("/v1/graphs/%s/dist?strategy=gossip&timeout_ms=%d", id, tc.timeoutMS), nil},
		} {
			var e struct {
				Error ErrorJSON `json:"error"`
			}
			resp := doJSON(t, srv, req.method, req.path, req.body, &e)
			if resp.StatusCode != tc.want {
				t.Errorf("%s timeout_ms=%d: status %d (%+v), want %d", req.method, tc.timeoutMS, resp.StatusCode, e.Error, tc.want)
			}
			if tc.want == http.StatusBadRequest && e.Error.Code != "invalid_spec" {
				t.Errorf("%s timeout_ms=%d: code %q, want invalid_spec", req.method, tc.timeoutMS, e.Error.Code)
			}
		}
	}
}

// TestSolveBodyRejectsUnknownKeys: POST …/solve refuses a key the API does
// not define (here the removed "faults") with 400 invalid_spec instead of
// answering as if it were absent. The empty body stays valid.
func TestSolveBodyRejectsUnknownKeys(t *testing.T) {
	srv := httptest.NewServer(NewHandler(New(Config{})))
	defer srv.Close()
	var put struct {
		ID string `json:"id"`
	}
	doJSON(t, srv, http.MethodPut, "/v1/graphs", graphJSON(testDigraph(t, 6, 1)), &put)
	path := "/v1/graphs/" + put.ID + "/solve"
	var e struct {
		Error ErrorJSON `json:"error"`
	}
	resp := doJSON(t, srv, http.MethodPost, path, json.RawMessage(`{"strategy":"gossip","faults":{"seed":7,"corrupt_rate":1}}`), &e)
	if resp.StatusCode != http.StatusBadRequest || e.Error.Code != "invalid_spec" {
		t.Errorf("unknown key: status %d, envelope %+v; want 400 invalid_spec", resp.StatusCode, e.Error)
	}
	if resp := doJSON(t, srv, http.MethodPost, path, json.RawMessage(`{}`), nil); resp.StatusCode != http.StatusOK {
		t.Errorf("empty body: status %d, want 200", resp.StatusCode)
	}
}

// TestPathsBatchBodyRejectsUnknownKeys: POST …/paths:batch refuses an
// unknown key with 400 invalid_spec; a body of queries alone stays valid.
func TestPathsBatchBodyRejectsUnknownKeys(t *testing.T) {
	srv := httptest.NewServer(NewHandler(New(Config{})))
	defer srv.Close()
	var put struct {
		ID string `json:"id"`
	}
	doJSON(t, srv, http.MethodPut, "/v1/graphs", graphJSON(testDigraph(t, 6, 1)), &put)
	path := "/v1/graphs/" + put.ID + "/paths:batch"
	var e struct {
		Error ErrorJSON `json:"error"`
	}
	resp := doJSON(t, srv, http.MethodPost, path, json.RawMessage(`{"queries":[{"src":0,"dst":1}],"faults":{"drop_rate":0.5}}`), &e)
	if resp.StatusCode != http.StatusBadRequest || e.Error.Code != "invalid_spec" {
		t.Errorf("unknown key: status %d, envelope %+v; want 400 invalid_spec", resp.StatusCode, e.Error)
	}
	if resp := doJSON(t, srv, http.MethodPost, path, json.RawMessage(`{"queries":[{"src":0,"dst":1}]}`), nil); resp.StatusCode != http.StatusOK {
		t.Errorf("queries-only body: status %d, want 200", resp.StatusCode)
	}
}

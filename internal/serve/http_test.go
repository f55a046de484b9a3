package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"qclique/internal/core"
	"qclique/internal/graph"
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
	gj := GraphJSON{N: g.N()}
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if w, ok := g.Weight(u, v); ok {
				gj.Arcs = append(gj.Arcs, ArcJSON{U: u, V: v, W: w})
			}
		}
	}
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

	// GET dist for every pair.
	for src := 0; src < g.N(); src++ {
		for dst := 0; dst < g.N(); dst++ {
			var one struct {
				Dist *int64 `json:"dist"`
			}
			path := fmt.Sprintf("/v1/graphs/%s/dist?strategy=gossip&src=%d&dst=%d", put.ID, src, dst)
			if resp := doJSON(t, srv, http.MethodGet, path, nil, &one); resp.StatusCode != http.StatusOK {
				t.Fatalf("GET dist: status %d", resp.StatusCode)
			}
			w := want.Dist.At(src, dst)
			if w >= graph.Inf {
				if one.Dist != nil {
					t.Fatalf("d(%d,%d) = %d, want null", src, dst, *one.Dist)
				}
			} else if one.Dist == nil || *one.Dist != w {
				t.Fatalf("d(%d,%d) = %v, want %d", src, dst, one.Dist, w)
			}
		}
	}
	// Full-matrix form.
	var full struct {
		N    int        `json:"n"`
		Dist [][]*int64 `json:"dist"`
	}
	doJSON(t, srv, http.MethodGet, "/v1/graphs/"+put.ID+"/dist?strategy=gossip", nil, &full)
	if full.N != g.N() || len(full.Dist) != g.N() {
		t.Fatalf("full dist: n=%d rows=%d", full.N, len(full.Dist))
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

package serve

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"qclique/internal/approx"
	"qclique/internal/core"
	"qclique/internal/graph"
)

// TestHTTPNegativeCycle422 is the HTTP leg of the −∞ probe: a negative
// 2-cycle must yield 422 (with an error body) on every solve-bearing
// endpoint — no fabricated distances, no fabricated paths.
func TestHTTPNegativeCycle422(t *testing.T) {
	s := New(Config{})
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	var put struct {
		ID string `json:"id"`
	}
	body := map[string]any{"n": 2, "arcs": []map[string]any{
		{"u": 0, "v": 1, "w": -1}, {"u": 1, "v": 0, "w": 0},
	}}
	if resp := doJSON(t, srv, http.MethodPut, "/v1/graphs", body, &put); resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: status %d", resp.StatusCode)
	}
	solve := map[string]any{"strategy": "gossip"}
	for _, probe := range []struct {
		method, path string
		body         any
	}{
		{http.MethodPost, "/v1/graphs/" + put.ID + "/solve", solve},
		{http.MethodGet, "/v1/graphs/" + put.ID + "/dist?strategy=gossip", nil},
		{http.MethodPost, "/v1/graphs/" + put.ID + "/paths:batch",
			map[string]any{"strategy": "gossip", "queries": []map[string]int{{"src": 0, "dst": 1}}}},
	} {
		var e struct {
			Error ErrorJSON `json:"error"`
		}
		resp := doJSON(t, srv, probe.method, probe.path, probe.body, &e)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("%s %s: status %d, want 422", probe.method, probe.path, resp.StatusCode)
		}
		if e.Error.Message == "" || e.Error.Code != "unprocessable" {
			t.Errorf("%s %s: envelope %+v, want unprocessable with message", probe.method, probe.path, e.Error)
		}
	}
}

// TestHTTPSaturatingNegativeCycle422: a negative cycle whose sums saturate
// to −∞ (0→1 at NegInf+1, 1→0 at −1) answers 422 from every exact
// strategy, as the README's error table promises, not 500.
func TestHTTPSaturatingNegativeCycle422(t *testing.T) {
	s := New(Config{})
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	var put struct {
		ID string `json:"id"`
	}
	body := GraphJSON{N: 3, Arcs: []ArcJSON{{0, 1, graph.NegInf + 1}, {1, 0, -1}}}
	if resp := doJSON(t, srv, http.MethodPut, "/v1/graphs", body, &put); resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: status %d", resp.StatusCode)
	}
	for _, strategy := range []string{"gossip", "dolev", "classical-search", "quantum"} {
		var e struct {
			Error ErrorJSON `json:"error"`
		}
		resp := doJSON(t, srv, http.MethodPost, "/v1/graphs/"+put.ID+"/solve", solveParamsJSON{Strategy: strategy}, &e)
		if resp.StatusCode != http.StatusUnprocessableEntity || e.Error.Code != "unprocessable" {
			t.Errorf("%s: status %d, envelope %+v; want 422 unprocessable", strategy, resp.StatusCode, e.Error)
		}
	}
}

// TestSaturatedDistance422: 0→1 at −(Inf/2) and 1→2 at NegInf+1 sum below
// −∞ on a graph without a negative cycle. Every exact strategy answers
// ErrSaturatedDistance, in the library and as a 422 over HTTP, instead of
// a −∞ distance (gossip) or an untyped 500 (the search pipelines, whose
// next distance product refuses the −∞ entry).
func TestSaturatedDistance422(t *testing.T) {
	body := GraphJSON{N: 3, Arcs: []ArcJSON{{0, 1, -(graph.Inf / 2)}, {1, 2, graph.NegInf + 1}}}
	g, err := body.Digraph()
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{})
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()
	var put struct {
		ID string `json:"id"`
	}
	if resp := doJSON(t, srv, http.MethodPut, "/v1/graphs", body, &put); resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: status %d", resp.StatusCode)
	}
	for _, strategy := range []string{core.StrategyGossip, core.StrategyDolev, core.StrategyClassicalSearch, core.StrategyQuantum} {
		t.Run(strategy, func(t *testing.T) {
			if _, err := core.Solve(g, core.Config{Strategy: strategy, Seed: 2}); !errors.Is(err, core.ErrSaturatedDistance) {
				t.Errorf("library: err = %v, want ErrSaturatedDistance", err)
			}
			var e struct {
				Error ErrorJSON `json:"error"`
			}
			resp := doJSON(t, srv, http.MethodPost, "/v1/graphs/"+put.ID+"/solve", solveParamsJSON{Strategy: strategy}, &e)
			if resp.StatusCode != http.StatusUnprocessableEntity || e.Error.Code != "unprocessable" {
				t.Errorf("HTTP: status %d, envelope %+v; want 422 unprocessable", resp.StatusCode, e.Error)
			}
		})
	}
}

// TestApproxWeightRange422: a symmetric graph with 0↔1 at Inf−1 and 1↔2
// at 1 uploads, but its weights leave the approximate strategies no room
// for their value ladders. Both answer approx.ErrWeightRange, in the
// library and as a 422 over HTTP, instead of an untyped 500.
func TestApproxWeightRange422(t *testing.T) {
	body := GraphJSON{N: 3, Arcs: []ArcJSON{{0, 1, graph.Inf - 1}, {1, 0, graph.Inf - 1}, {1, 2, 1}, {2, 1, 1}}}
	g, err := body.Digraph()
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{})
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()
	var put struct {
		ID string `json:"id"`
	}
	if resp := doJSON(t, srv, http.MethodPut, "/v1/graphs", body, &put); resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: status %d", resp.StatusCode)
	}
	for _, strategy := range []string{core.StrategyApproxQuantum, core.StrategyApproxSkeleton} {
		if _, err := core.Solve(g, core.Config{Strategy: strategy, Epsilon: 0.5}); !errors.Is(err, approx.ErrWeightRange) {
			t.Errorf("%s library: err = %v, want ErrWeightRange", strategy, err)
		}
		var e struct {
			Error ErrorJSON `json:"error"`
		}
		resp := doJSON(t, srv, http.MethodPost, "/v1/graphs/"+put.ID+"/solve", solveParamsJSON{Strategy: strategy, Epsilon: 0.5}, &e)
		if resp.StatusCode != http.StatusUnprocessableEntity || e.Error.Code != "unprocessable" {
			t.Errorf("%s HTTP: status %d, envelope %+v; want 422 unprocessable", strategy, resp.StatusCode, e.Error)
		}
	}
}

// TestHTTPEpsilonValidation: epsilon/strategy mismatches are client errors
// (400), detected before any pipeline runs.
func TestHTTPEpsilonValidation(t *testing.T) {
	s := New(Config{})
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	var put struct {
		ID string `json:"id"`
	}
	body := map[string]any{"n": 3, "arcs": []map[string]any{{"u": 0, "v": 1, "w": 2}}}
	doJSON(t, srv, http.MethodPut, "/v1/graphs", body, &put)

	for _, tc := range []struct {
		name string
		path string
		body any
	}{
		{"epsilon on exact", "/v1/graphs/" + put.ID + "/solve", map[string]any{"strategy": "gossip", "epsilon": 0.5}},
		{"approx without epsilon", "/v1/graphs/" + put.ID + "/solve", map[string]any{"strategy": "approx-quantum"}},
		{"dist epsilon on exact", "/v1/graphs/" + put.ID + "/dist?strategy=gossip&epsilon=0.5", nil},
		{"dist bad epsilon", "/v1/graphs/" + put.ID + "/dist?epsilon=nope", nil},
	} {
		method := http.MethodPost
		if tc.body == nil {
			method = http.MethodGet
		}
		resp := doJSON(t, srv, method, tc.path, tc.body, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
}

// TestHTTPApproxSolve: the approximate strategies work end-to-end over
// HTTP, echo their stretch contract, and reject inputs outside their class
// with 422.
func TestHTTPApproxSolve(t *testing.T) {
	s := New(Config{})
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	var put struct {
		ID string `json:"id"`
	}
	// An 8-cycle plus the isolated vertex 8, so some pairs are unreachable.
	const n = 9
	g := graph.NewDigraph(n)
	arcs := []map[string]any{}
	for i := 0; i < 8; i++ {
		w := int64(2 + i%3)
		if err := g.SetArc(i, (i+1)%8, w); err != nil {
			t.Fatal(err)
		}
		arcs = append(arcs, map[string]any{"u": i, "v": (i + 1) % 8, "w": w})
	}
	doJSON(t, srv, http.MethodPut, "/v1/graphs", map[string]any{"n": n, "arcs": arcs}, &put)

	var solve SolveJSON
	resp := doJSON(t, srv, http.MethodPost, "/v1/graphs/"+put.ID+"/solve",
		map[string]any{"strategy": "approx-quantum", "preset": "scaled", "epsilon": 0.5}, &solve)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("approx solve: status %d", resp.StatusCode)
	}
	if solve.Epsilon != 0.5 || solve.GuaranteedStretch != 1.5 {
		t.Errorf("solve echoed epsilon=%v guarantee=%v", solve.Epsilon, solve.GuaranteedStretch)
	}
	if solve.ObservedStretch < 1 || solve.ObservedStretch > solve.GuaranteedStretch {
		t.Errorf("observed stretch %v outside [1, %v]", solve.ObservedStretch, solve.GuaranteedStretch)
	}

	// Every distance GET dist answers lies in [exact, 1.5·exact], and the
	// unreachable pairs are null.
	exact, err := graph.FloydWarshall(g)
	if err != nil {
		t.Fatal(err)
	}
	var dist struct {
		Dist [][]*int64 `json:"dist"`
	}
	resp = doJSON(t, srv, http.MethodGet, "/v1/graphs/"+put.ID+"/dist?strategy=approx-quantum&preset=scaled&epsilon=0.5", nil, &dist)
	if resp.StatusCode != http.StatusOK || len(dist.Dist) != n {
		t.Fatalf("approx dist: status %d, %d rows", resp.StatusCode, len(dist.Dist))
	}
	for i, row := range dist.Dist {
		if len(row) != n {
			t.Fatalf("approx dist row %d has %d entries, want %d", i, len(row), n)
		}
		for j, got := range row {
			w := exact[i*n+j]
			switch {
			case w >= graph.Inf:
				if got != nil {
					t.Errorf("approx d(%d,%d) = %d, want null", i, j, *got)
				}
			case got == nil:
				t.Errorf("approx d(%d,%d) = null, want a value in [%d, %v]", i, j, w, 1.5*float64(w))
			case *got < w || float64(*got) > 1.5*float64(w):
				t.Errorf("approx d(%d,%d) = %d outside [%d, %v]", i, j, *got, w, 1.5*float64(w))
			}
		}
	}

	// The skeleton strategy rejects this (asymmetric) graph with 422.
	var e struct {
		Error ErrorJSON `json:"error"`
	}
	resp = doJSON(t, srv, http.MethodPost, "/v1/graphs/"+put.ID+"/solve",
		map[string]any{"strategy": "approx-skeleton", "preset": "scaled", "epsilon": 0.5}, &e)
	if resp.StatusCode != http.StatusUnprocessableEntity || e.Error.Message == "" {
		t.Errorf("skeleton on asymmetric graph: status %d body %+v, want 422", resp.StatusCode, e.Error)
	}

	// Path queries under an approximate strategy are a client error:
	// snapped distances cannot be walked into tight-successor paths.
	resp = doJSON(t, srv, http.MethodPost, "/v1/graphs/"+put.ID+"/paths:batch",
		map[string]any{"strategy": "approx-quantum", "preset": "scaled", "epsilon": 0.5,
			"queries": []map[string]int{{"src": 0, "dst": 1}}}, &e)
	if resp.StatusCode != http.StatusBadRequest || e.Error.Message == "" {
		t.Errorf("paths:batch under approx strategy: status %d body %+v, want 400", resp.StatusCode, e.Error)
	}
}

// TestHTTPBatchPerQueryErrors: unreachable pairs inside a batch answer
// per-query with an error body while the rest of the batch succeeds.
func TestHTTPBatchPerQueryErrors(t *testing.T) {
	s := New(Config{})
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	// 0 → 1, and 2 isolated: (0,1) answers, (0,2) is a per-query no-path.
	var put struct {
		ID string `json:"id"`
	}
	doJSON(t, srv, http.MethodPut, "/v1/graphs", map[string]any{
		"n": 3, "arcs": []map[string]any{{"u": 0, "v": 1, "w": 5}},
	}, &put)

	var batch struct {
		Results []PathJSON `json:"results"`
	}
	resp := doJSON(t, srv, http.MethodPost, "/v1/graphs/"+put.ID+"/paths:batch", map[string]any{
		"strategy": "gossip",
		"queries":  []map[string]int{{"src": 0, "dst": 1}, {"src": 0, "dst": 2}},
	}, &batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d", resp.StatusCode)
	}
	if len(batch.Results) != 2 {
		t.Fatalf("got %d results", len(batch.Results))
	}
	ok, missing := batch.Results[0], batch.Results[1]
	if ok.Error != "" || ok.Dist == nil || *ok.Dist != 5 || len(ok.Path) != 2 {
		t.Errorf("reachable query answered %+v", ok)
	}
	if missing.Error == "" || missing.Dist != nil || missing.Path != nil {
		t.Errorf("unreachable query answered %+v, want per-query no-path error", missing)
	}
}

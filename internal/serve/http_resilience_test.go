package serve

// HTTP surface of the resilience features: degradation over the wire,
// Retry-After plus a retryable marker on every 503, and the
// degraded-response shape clients key on.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"qclique/internal/matrix"
)

// TestHTTPDeadlineRungDegrades: over the wire, a primary rung that overruns
// its share of timeout_ms answers 200 from the approx-quantum rung, marked
// degraded with reason "deadline", with distances within that rung's
// stretch and the degradation counted in /v1/metrics. Under strategy=auto
// the response names the planned strategy as the one it degraded from.
func TestHTTPDeadlineRungDegrades(t *testing.T) {
	svc := New(Config{})
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()
	holdRungs(t, exactRung)

	g := asymDigraph(t, 8)
	var put struct {
		ID string `json:"id"`
	}
	if resp := doJSON(t, srv, http.MethodPut, "/v1/graphs", graphJSON(g), &put); resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: %d", resp.StatusCode)
	}
	timeoutMS := ladderTimeout.Milliseconds()

	var sj SolveJSON
	resp := doJSON(t, srv, http.MethodPost, "/v1/graphs/"+put.ID+"/solve", solveParamsJSON{
		Strategy: "quantum", Degrade: true, TimeoutMS: timeoutMS,
	}, &sj)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded solve: %d", resp.StatusCode)
	}
	if !sj.Degraded || sj.DegradedFrom != "quantum" || sj.DegradeReason != "deadline" {
		t.Fatalf("degradation fields: %+v", sj)
	}
	if sj.Strategy != "approx-quantum" || sj.GuaranteedStretch != 1+plannerDefaultEpsilon {
		t.Fatalf("degraded rung reporting: strategy=%q stretch=%v", sj.Strategy, sj.GuaranteedStretch)
	}

	// The rung cached its answer under its own spec, so the distances the
	// degraded solve returned are read back without another run.
	var dist struct {
		Cached bool       `json:"cached"`
		Dist   [][]*int64 `json:"dist"`
	}
	path := fmt.Sprintf("/v1/graphs/%s/dist?strategy=approx-quantum&epsilon=%g", put.ID, plannerDefaultEpsilon)
	if resp := doJSON(t, srv, http.MethodGet, path, nil, &dist); resp.StatusCode != http.StatusOK || !dist.Cached {
		t.Fatalf("approx-quantum distances: status %d, cached %v; want the degraded solve's cached answer", resp.StatusCode, dist.Cached)
	}
	got := matrix.New(g.N())
	for i, row := range dist.Dist {
		for j, d := range row {
			if d == nil {
				t.Fatalf("dist[%d][%d] unreachable on a strongly connected ring", i, j)
			}
			got.Set(i, j, *d)
		}
	}
	checkStretch(t, g, got, sj.GuaranteedStretch)

	var stats Stats
	if resp := doJSON(t, srv, http.MethodGet, "/v1/metrics", nil, &stats); resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	if d := stats.Strategies["quantum"].Degraded; d != 1 {
		t.Errorf("quantum degraded = %d, want 1", d)
	}

	var auto SolveJSON
	resp = doJSON(t, srv, http.MethodPost, "/v1/graphs/"+put.ID+"/solve", solveParamsJSON{
		Strategy: "auto", Degrade: true, TimeoutMS: timeoutMS,
	}, &auto)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded auto solve: %d", resp.StatusCode)
	}
	if !auto.Degraded || auto.PlannedStrategy == "" || auto.DegradedFrom != auto.PlannedStrategy || auto.DegradeReason != "deadline" {
		t.Fatalf("degraded auto solve: degraded=%v degraded_from=%q planned_strategy=%q reason=%q, want degraded from the planned strategy on its deadline",
			auto.Degraded, auto.DegradedFrom, auto.PlannedStrategy, auto.DegradeReason)
	}
}

func TestHTTPDeadline503CarriesRetryAfter(t *testing.T) {
	svc := New(Config{})
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	g := testDigraph(t, 24, 5)
	id, err := svc.PutGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	var fail struct {
		Error ErrorJSON `json:"error"`
	}
	// A 1ms deadline expires inside the pipeline; the 503 must advertise a
	// retry.
	resp := doJSON(t, srv, http.MethodPost, "/v1/graphs/"+id+"/solve", solveParamsJSON{
		Strategy: "quantum", TimeoutMS: 1,
	}, &fail)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("deadline solve: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" || !fail.Error.Retryable {
		t.Errorf("deadline 503 missing Retry-After/retryable: header=%q body=%+v",
			resp.Header.Get("Retry-After"), fail.Error)
	}
}

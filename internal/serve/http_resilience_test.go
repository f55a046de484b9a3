package serve

// HTTP surface of the resilience features: fault plans and degradation
// over the wire, Retry-After plus a retryable marker on every 503, and the
// degraded-response shape clients key on.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"qclique/internal/congest"
	"qclique/internal/core"
)

func TestHTTPFaultInjectionAndDegradation(t *testing.T) {
	svc := New(Config{})
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	g := symDigraph(t, 8)
	var put struct {
		ID string `json:"id"`
	}
	gj := graphJSON(g)
	if resp := doJSON(t, srv, http.MethodPut, "/v1/graphs", gj, &put); resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: %d", resp.StatusCode)
	}

	// A recovered-faults plan over the wire: success with fault counters
	// and a retry count in the body.
	var sj SolveJSON
	resp := doJSON(t, srv, http.MethodPost, "/v1/graphs/"+put.ID+"/solve", solveParamsJSON{
		Strategy: "quantum",
		Faults:   &congest.FaultPlan{Seed: 9, DropRate: 1},
	}, &sj)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered-fault solve: %d", resp.StatusCode)
	}
	if sj.Faults == nil || sj.Faults.Dropped == 0 {
		t.Errorf("fault counters missing from response: %+v", sj.Faults)
	}
	if sj.Degraded {
		t.Error("recovered faults reported as degradation")
	}

	// An outage with degradation enabled: 200 with the degraded marker and
	// the rung that answered.
	resp = doJSON(t, srv, http.MethodPost, "/v1/graphs/"+put.ID+"/solve", solveParamsJSON{
		Strategy: "quantum",
		Degrade:  true,
		Faults:   &congest.FaultPlan{Seed: 7, CorruptRate: 1, MaxFaults: 5},
	}, &sj)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded solve: %d", resp.StatusCode)
	}
	if !sj.Degraded || sj.DegradedFrom != "quantum" || sj.DegradeReason != "retries-exhausted" {
		t.Fatalf("degradation fields: %+v", sj)
	}
	if sj.Strategy != "approx-quantum" || sj.GuaranteedStretch != 1+plannerDefaultEpsilon {
		t.Errorf("degraded rung reporting: strategy=%q stretch=%v", sj.Strategy, sj.GuaranteedStretch)
	}

	// The same outage under an auto solve: the response names the planned
	// strategy as the one it degraded from.
	var auto SolveJSON
	resp = doJSON(t, srv, http.MethodPost, "/v1/graphs/"+put.ID+"/solve", solveParamsJSON{
		Strategy: "auto",
		Degrade:  true,
		Faults:   &congest.FaultPlan{Seed: 7, CorruptRate: 1, MaxFaults: 5},
	}, &auto)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded auto solve: %d", resp.StatusCode)
	}
	if !auto.Degraded || auto.PlannedStrategy == "" || auto.DegradedFrom != auto.PlannedStrategy {
		t.Fatalf("degraded auto solve: degraded=%v degraded_from=%q planned_strategy=%q, want degraded from the planned strategy",
			auto.Degraded, auto.DegradedFrom, auto.PlannedStrategy)
	}

	// The same outage without degradation: 503 with Retry-After, the
	// retryable envelope, and the partial fault telemetry.
	var fail struct {
		Error ErrorJSON `json:"error"`
	}
	resp = doJSON(t, srv, http.MethodPost, "/v1/graphs/"+put.ID+"/solve", solveParamsJSON{
		Strategy: "quantum",
		Faults:   &congest.FaultPlan{Seed: 7, CorruptRate: 1, MaxFaults: 5},
	}, &fail)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("exhausted solve: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After header")
	}
	if !fail.Error.Retryable || fail.Error.RetryAfterMS <= 0 {
		t.Errorf("503 envelope missing retryable/retry_after_ms: %+v", fail.Error)
	}
	if fail.Error.Code != "fault_exhausted" {
		t.Errorf("503 code = %q, want fault_exhausted", fail.Error.Code)
	}
	if fail.Error.Faults == nil || fail.Error.Faults.Injected() == 0 {
		t.Errorf("503 without fault telemetry: %+v", fail.Error)
	}

	// The same plan as raw request text: the wire keys, not the Go field
	// names, must arm the outage.
	var raw struct {
		Error ErrorJSON `json:"error"`
	}
	resp = doJSON(t, srv, http.MethodPost, "/v1/graphs/"+put.ID+"/solve",
		json.RawMessage(`{"strategy":"quantum","faults":{"seed":7,"corrupt_rate":1,"max_faults":5}}`), &raw)
	if resp.StatusCode != http.StatusServiceUnavailable || raw.Error.Code != "fault_exhausted" {
		t.Fatalf("raw-text plan: %d %q, want 503 fault_exhausted", resp.StatusCode, raw.Error.Code)
	}
	if raw.Error.Faults == nil || *raw.Error.Faults != *fail.Error.Faults {
		t.Errorf("raw-text plan injected %+v, want %+v", raw.Error.Faults, fail.Error.Faults)
	}

	// A malformed plan is a 400, not a 503.
	resp = doJSON(t, srv, http.MethodPost, "/v1/graphs/"+put.ID+"/solve", solveParamsJSON{
		Faults: &congest.FaultPlan{DropRate: 1.5},
	}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed plan: %d, want 400", resp.StatusCode)
	}
	// So is a delay bound that could overflow the round counter.
	var delay struct {
		Error ErrorJSON `json:"error"`
	}
	resp = doJSON(t, srv, http.MethodPost, "/v1/graphs/"+put.ID+"/solve",
		json.RawMessage(`{"faults":{"delay_rate":1,"max_delay_rounds":65537}}`), &delay)
	if resp.StatusCode != http.StatusBadRequest || delay.Error.Code != "invalid_spec" {
		t.Errorf("max_delay_rounds above the cap: %d %q, want 400 invalid_spec", resp.StatusCode, delay.Error.Code)
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

// TestFaultPlanStaysInItsRequest: a fault plan is one request's chaos
// input. A client that exhausts its plan's retry budget again and again
// must not change what another client's fault-free solve gets: the
// requested strategy, undegraded, at the rounds a fresh service charges.
func TestFaultPlanStaysInItsRequest(t *testing.T) {
	svc := New(Config{})
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	idA, err := svc.PutGraph(symDigraph(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		var fail struct {
			Error ErrorJSON `json:"error"`
		}
		resp := doJSON(t, srv, http.MethodPost, "/v1/graphs/"+idA+"/solve",
			json.RawMessage(`{"strategy":"quantum","faults":{"seed":3,"corrupt_rate":1}}`), &fail)
		if resp.StatusCode != http.StatusServiceUnavailable || fail.Error.Code != "fault_exhausted" {
			t.Fatalf("client A solve %d: %d %q, want 503 fault_exhausted", i+1, resp.StatusCode, fail.Error.Code)
		}
	}

	gB := symDigraph(t, 12)
	fresh, err := New(Config{}).SolveGraph(gB, SolveSpec{Strategy: core.StrategyQuantum})
	if err != nil {
		t.Fatal(err)
	}
	idB, err := svc.PutGraph(gB)
	if err != nil {
		t.Fatal(err)
	}
	for _, degrade := range []bool{false, true} {
		var sj SolveJSON
		resp := doJSON(t, srv, http.MethodPost, "/v1/graphs/"+idB+"/solve",
			solveParamsJSON{Strategy: "quantum", Degrade: degrade}, &sj)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("client B solve (degrade=%v): %d, want 200", degrade, resp.StatusCode)
		}
		if sj.Strategy != "quantum" || sj.Degraded || sj.Rounds != fresh.Res.Rounds {
			t.Fatalf("client B solve (degrade=%v): strategy=%q degraded=%v (%q) rounds=%d, want quantum, not degraded, rounds=%d",
				degrade, sj.Strategy, sj.Degraded, sj.DegradeReason, sj.Rounds, fresh.Res.Rounds)
		}
	}
}

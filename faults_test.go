package qclique

// Public resilience surface: fault plans through SolveAPSP and Solver,
// degradation via WithDegradation, the typed errors, and the stats rollup.

import (
	"errors"
	"testing"
)

// buildSymDigraph returns a weight-symmetric nonnegative graph — the input
// class every degradation-ladder rung accepts.
func buildSymDigraph(t *testing.T, n int) *Digraph {
	t.Helper()
	d := NewDigraph(n)
	set := func(u, v int, w int64) {
		if err := d.SetArc(u, v, w); err != nil {
			t.Fatal(err)
		}
		if err := d.SetArc(v, u, w); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		set(i, (i+1)%n, int64(1+i%3))
	}
	for i := 0; i+3 < n; i += 3 {
		set(i, i+3, 7)
	}
	return d
}

func TestSolveAPSPWithRecoveredFaults(t *testing.T) {
	d := buildRandomDigraph(t, 10, 21)
	clean, err := SolveAPSP(d, WithSeed(3), WithParams(ScaledConstants))
	if err != nil {
		t.Fatal(err)
	}
	armed, err := SolveAPSP(d, WithSeed(3), WithParams(ScaledConstants),
		WithFaultPlan(FaultPlan{Seed: 5, DropRate: 0.5, DupRate: 0.25, DelayRate: 0.25, MaxDelayRounds: 2}))
	if err != nil {
		t.Fatal(err)
	}
	for i := range clean.Dist {
		for j := range clean.Dist[i] {
			if clean.Dist[i][j] != armed.Dist[i][j] {
				t.Fatalf("dist[%d][%d]: clean %d vs armed %d", i, j, clean.Dist[i][j], armed.Dist[i][j])
			}
		}
	}
	if armed.Rounds <= clean.Rounds {
		t.Errorf("retransmission surcharge missing: %d vs clean %d", armed.Rounds, clean.Rounds)
	}
	if armed.Faults.Injected() == 0 || armed.Faults.Dropped == 0 {
		t.Errorf("fault counters not reported: %+v", armed.Faults)
	}
	if clean.Faults.Injected() != 0 {
		t.Errorf("unarmed solve reports faults: %+v", clean.Faults)
	}
}

func TestSolveAPSPFaultExhaustion(t *testing.T) {
	d := buildSymDigraph(t, 8)
	_, err := SolveAPSP(d, WithFaultPlan(FaultPlan{Seed: 7, CorruptRate: 1}))
	var fx *FaultExhaustedError
	if !errors.As(err, &fx) {
		t.Fatalf("want FaultExhaustedError, got %v", err)
	}
	if fx.Faults.Corrupted == 0 {
		t.Errorf("exhaustion error without counters: %+v", fx.Faults)
	}
	if fx.Unwrap() == nil {
		t.Error("exhaustion error has no cause chain")
	}
	var sum int64
	for _, sg := range fx.Stages {
		sum += sg.Rounds
	}
	if fx.Rounds <= 0 || sum != fx.Rounds {
		t.Errorf("exhaustion telemetry: stage rounds sum %d, Rounds %d, want equal and > 0", sum, fx.Rounds)
	}

	// The one-shot entry point has no ladder: WithDegradation is rejected,
	// not ignored.
	if _, err := SolveAPSP(d, WithDegradation()); err == nil {
		t.Error("SolveAPSP accepted WithDegradation")
	}
}

func TestSolverDegradationLadder(t *testing.T) {
	d := buildSymDigraph(t, 8)
	s := NewSolver(WithStrategy(Quantum))
	// The quantum stage-retry budget absorbs 5 unrecovered faults per run;
	// a 5-fault outage exhausts exactly the primary rung and the fallback
	// runs on the remaining (empty) budget.
	res, err := s.Solve(d, WithDegradation(),
		WithFaultPlan(FaultPlan{Seed: 7, CorruptRate: 1, MaxFaults: 5}))
	if err != nil {
		t.Fatalf("ladder did not absorb the outage: %v", err)
	}
	if !res.Degraded || res.DegradedFrom != Quantum || res.DegradeReason != "retries-exhausted" {
		t.Fatalf("degradation not reported: %+v", res)
	}
	if res.Strategy != ApproxQuantum || res.GuaranteedStretch != 1.5 {
		t.Errorf("fallback rung: strategy=%v stretch=%v", res.Strategy, res.GuaranteedStretch)
	}
	st := s.Stats().Strategies
	if st["quantum"].FaultFailures != 1 || st["quantum"].Degraded != 1 || st["quantum"].Faults.Corrupted != 5 {
		t.Errorf("quantum stats: %+v", st["quantum"])
	}

	// Without degradation the same outage is the typed error.
	s2 := NewSolver(WithStrategy(Quantum))
	_, err = s2.Solve(d, WithFaultPlan(FaultPlan{Seed: 7, CorruptRate: 1, MaxFaults: 5}))
	var fx *FaultExhaustedError
	if !errors.As(err, &fx) {
		t.Fatalf("want FaultExhaustedError, got %v", err)
	}
}

func TestSolverRetryTelemetry(t *testing.T) {
	d := buildSymDigraph(t, 8)
	s := NewSolver(WithStrategy(Quantum))
	clean, err := s.Solve(d)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(d, WithFaultPlan(FaultPlan{Seed: 7, CorruptRate: 1, MaxFaults: 1}))
	if err != nil {
		t.Fatalf("1-fault outage not absorbed by retry: %v", err)
	}
	if res.Degraded {
		t.Error("retry recovery reported as degraded")
	}
	for i := range clean.Dist {
		for j := range clean.Dist[i] {
			if clean.Dist[i][j] != res.Dist[i][j] {
				t.Fatalf("retried solve diverged at [%d][%d]", i, j)
			}
		}
	}
	var retries int
	for _, sg := range res.Stages {
		retries += sg.Retries
	}
	if retries != 1 {
		t.Errorf("stage retries = %d, want 1", retries)
	}
	if got := s.Stats().Strategies["quantum"]; got.Retries != 1 || got.Faults.Corrupted != 1 {
		t.Errorf("retry rollup: %+v", got)
	}
}

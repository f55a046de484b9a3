package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"qclique/internal/congest"
	"qclique/internal/graph"
	"qclique/internal/xrand"
)

func cancelTestGraph(t *testing.T, n int) *graph.Digraph {
	t.Helper()
	g, err := graph.RandomDigraph(n, graph.DigraphOpts{
		ArcProb: 0.4, MinWeight: -4, MaxWeight: 8, NoNegativeCycles: true,
	}, xrand.New(uint64(n)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSolveContextCancelledReturnsCancelledError(t *testing.T) {
	svc := New(Config{})
	g := cancelTestGraph(t, 32)
	id, err := svc.PutGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	spec := SolveSpec{Preset: PresetScaled}

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Millisecond)
	defer cancel()
	_, err = svc.SolveContext(ctx, id, spec)
	var ce *CancelledError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v (%T), want *CancelledError", err, err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("CancelledError must wrap the context error, got %v", err)
	}

	// Nothing cached; the next solve runs fresh and matches an independent
	// service's answer exactly (the cancelled run left no state behind).
	res, err := svc.Solve(id, spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Fatal("solve after a cancelled attempt reported cached")
	}
	ref, err := New(Config{}).SolveGraph(g, spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Res.Rounds != ref.Res.Rounds || !res.Res.Dist.Equal(ref.Res.Dist) {
		t.Fatal("solve after cancellation differs from an independent fresh solve")
	}

	st := svc.Stats().Strategies["quantum"]
	if st.Cancelled != 1 {
		t.Fatalf("stats.Cancelled = %d, want 1", st.Cancelled)
	}
	if st.Solves != 1 {
		t.Fatalf("stats.Solves = %d, want 1 (the cancelled attempt is not a solve)", st.Solves)
	}
}

// TestFollowerDoesNotInheritLeaderCancellation: a caller with no deadline
// that deduplicates onto a leader whose deadline expires must not be
// handed the leader's CancelledError — it retries under its own context
// and succeeds.
func TestFollowerDoesNotInheritLeaderCancellation(t *testing.T) {
	svc := New(Config{})
	g := cancelTestGraph(t, 32)
	id, err := svc.PutGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	spec := SolveSpec{Preset: PresetScaled}

	leaderCtx, cancelLeader := context.WithTimeout(context.Background(), 3*time.Millisecond)
	defer cancelLeader()
	leaderErr := make(chan error, 1)
	go func() {
		_, err := svc.SolveContext(leaderCtx, id, spec)
		leaderErr <- err
	}()
	// Give the leader a head start so the follower usually joins its
	// flight; whichever interleaving the scheduler picks, the follower's
	// contract is the same — it must succeed.
	time.Sleep(1 * time.Millisecond)
	res, err := svc.Solve(id, spec)
	if err != nil {
		t.Fatalf("deadline-free follower failed: %v", err)
	}
	if res.Res.Dist == nil {
		t.Fatal("follower got no distances")
	}
	if err := <-leaderErr; err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("leader err = %v, want nil or DeadlineExceeded", err)
	}
}

// TestFollowerHonorsItsOwnDeadline: a deduplicated follower blocked on a
// slow leader must abandon the wait when its own deadline fires — 503
// promptly, not a success long after the deadline — while the leader
// finishes unaffected.
func TestFollowerHonorsItsOwnDeadline(t *testing.T) {
	svc := New(Config{})
	g := cancelTestGraph(t, 48)
	id, err := svc.PutGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	spec := SolveSpec{Preset: PresetScaled}

	leaderDone := make(chan error, 1)
	go func() {
		_, err := svc.Solve(id, spec)
		leaderDone <- err
	}()
	time.Sleep(2 * time.Millisecond) // let the leader claim the flight
	followerCtx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = svc.SolveContext(followerCtx, id, spec)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("follower err = %v, want DeadlineExceeded", err)
	}
	var ce *CancelledError
	if !errors.As(err, &ce) {
		t.Fatalf("follower err = %v (%T), want *CancelledError", err, err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("follower waited %v past its 5ms deadline", elapsed)
	}
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader failed: %v", err)
	}
}

// TestCancelledSolvesDoNotLeakGoroutines snapshots the goroutine count
// before a burst of cancelled solves through the service and demands it
// settles back afterwards, with retries to absorb scheduler noise; on
// failure it dumps the stacks so the leak is attributable.
func TestCancelledSolvesDoNotLeakGoroutines(t *testing.T) {
	svc := New(Config{})
	g := cancelTestGraph(t, 32)
	id, err := svc.PutGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	spec := SolveSpec{Preset: PresetScaled}

	before := requestGoroutines()
	for i := 0; i < 8; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i+1)*time.Millisecond)
		if _, err := svc.SolveContext(ctx, id, spec); err == nil {
			cancel()
			t.Fatal("expected the deadline to cancel the solve")
		}
		cancel()
	}

	// Per-solve goroutines exit once their work drains; give the scheduler
	// a bounded window to reap them. The par pool's idle workers are not
	// counted.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		after := requestGoroutines()
		if after <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines before=%d after=%d; stacks:\n%s", before, after, buf[:n])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestHTTPDeadlineAnswers503WithPartialStages(t *testing.T) {
	svc := New(Config{})
	handler := NewHandler(svc)
	g := cancelTestGraph(t, 32)
	id, err := svc.PutGraph(g)
	if err != nil {
		t.Fatal(err)
	}

	body, _ := json.Marshal(map[string]any{"strategy": "quantum", "preset": "scaled", "timeout_ms": 2})
	req := httptest.NewRequest(http.MethodPost, "/v1/graphs/"+id+"/solve", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 (body %s)", rec.Code, rec.Body.String())
	}
	var out struct {
		Error ErrorJSON `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("503 body is not JSON: %v (%s)", err, rec.Body.String())
	}
	if out.Error.Message == "" || out.Error.Code != "cancelled" {
		t.Fatalf("503 envelope missing message/code: %+v", out.Error)
	}

	// Without the deadline the same request succeeds, uncached, and its
	// stage breakdown sums to the reported rounds.
	body, _ = json.Marshal(map[string]any{"strategy": "quantum", "preset": "scaled"})
	req = httptest.NewRequest(http.MethodPost, "/v1/graphs/"+id+"/solve", bytes.NewReader(body))
	rec = httptest.NewRecorder()
	handler.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("retry status = %d, want 200 (body %s)", rec.Code, rec.Body.String())
	}
	var solved struct {
		Rounds int64 `json:"rounds"`
		Cached bool  `json:"cached"`
		Stages []struct {
			Name   string `json:"name"`
			Rounds int64  `json:"rounds"`
		} `json:"stages"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &solved); err != nil {
		t.Fatal(err)
	}
	if solved.Cached {
		t.Fatal("retry after a timed-out solve must be a cache miss")
	}
	if len(solved.Stages) == 0 {
		t.Fatal("solve response missing the stage breakdown")
	}
	var sum int64
	for _, sg := range solved.Stages {
		sum += sg.Rounds
	}
	if sum != solved.Rounds {
		t.Fatalf("stage rounds sum %d != rounds %d", sum, solved.Rounds)
	}
}

func TestHTTPAlreadyCancelledRequestAnswers503(t *testing.T) {
	svc := New(Config{})
	handler := NewHandler(svc)
	g := cancelTestGraph(t, 64)
	id, err := svc.PutGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	body, _ := json.Marshal(map[string]any{"strategy": "quantum", "preset": "scaled"})
	req := httptest.NewRequest(http.MethodPost, "/v1/graphs/"+id+"/solve", bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	start := time.Now()
	handler.ServeHTTP(rec, req)
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("already-cancelled request took %v, want < 100ms", elapsed)
	}
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", rec.Code)
	}
}

func TestParseStrategyEnumeratesRegistry(t *testing.T) {
	for name, want := range map[string]string{
		"":                 "quantum",
		"quantum":          "quantum",
		"classical":        "classical-search",
		"classical-search": "classical-search",
		"dolev":            "dolev",
		"dolev-listing":    "dolev",
		"gossip":           "gossip",
		"approx-quantum":   "approx-quantum",
		"skeleton":         "approx-skeleton",
		"approx-skeleton":  "approx-skeleton",
	} {
		s, err := ParseStrategy(name)
		if err != nil {
			t.Errorf("ParseStrategy(%q): %v", name, err)
			continue
		}
		if s != want {
			t.Errorf("ParseStrategy(%q) = %v, want %s", name, s, want)
		}
	}
	if _, err := ParseStrategy("no-such-pipeline"); err == nil {
		t.Error("unknown strategy accepted")
	} else if want := "registered:"; !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Errorf("unknown-strategy error %q should enumerate the registry", err)
	}
}

// TestMetricsRollUpStageRounds pins the /v1/metrics rollup: per-stage rounds
// accumulated per strategy must sum to RoundsCharged, and both cover the
// completed solves only: a fault-exhausted run charges nothing.
func TestMetricsRollUpStageRounds(t *testing.T) {
	svc := New(Config{})
	var completed int64
	for _, n := range []int{8, 12} {
		g := cancelTestGraph(t, n)
		res, err := svc.SolveGraph(g, SolveSpec{Preset: PresetScaled})
		if err != nil {
			t.Fatal(err)
		}
		completed += res.Res.Rounds
	}
	armed := SolveSpec{Preset: PresetScaled, Faults: congest.FaultPlan{Seed: 3, CorruptRate: 1}}
	var fx *FaultExhaustedError
	if _, err := svc.SolveGraph(cancelTestGraph(t, 8), armed); !errors.As(err, &fx) || fx.Rounds == 0 {
		t.Fatalf("armed solve: want a FaultExhaustedError that ran rounds, got %v", err)
	}
	st := svc.Stats().Strategies["quantum"]
	if st.Solves != 2 || st.FaultFailures != 1 {
		t.Fatalf("solves = %d, fault failures = %d, want 2 and 1", st.Solves, st.FaultFailures)
	}
	if st.RoundsCharged != completed {
		t.Fatalf("rounds charged %d != completed solves' rounds %d", st.RoundsCharged, completed)
	}
	if len(st.Stages) == 0 {
		t.Fatal("no per-stage metrics recorded")
	}
	var sum int64
	for name, agg := range st.Stages {
		if agg.Runs == 0 {
			t.Errorf("stage %q recorded with zero runs", name)
		}
		sum += agg.Rounds
	}
	if sum != st.RoundsCharged {
		t.Fatalf("stage rollup %d != rounds charged %d", sum, st.RoundsCharged)
	}
}

package serve

// Overload-resilience tests: admission saturation under -race, FIFO queue
// fairness, shed accounting, deadline-aware shedding, drain lifecycle,
// degradable requests under pressure, and panic recovery. The
// package-private solveTestHook makes the timing deterministic — tests hold
// execution slots (or inject panics) at exactly the point a real pipeline
// would run.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qclique/internal/graph"
	"qclique/internal/par"
)

// overloadTestGraph is a small nonnegative symmetric graph: fast to solve
// exactly, and viable for every degradation rung (approx-quantum needs
// nonnegative weights, approx-skeleton additionally symmetry).
func overloadTestGraph(t *testing.T, n int) *graph.Digraph {
	t.Helper()
	g := graph.NewDigraph(n)
	for i := 0; i < n; i++ {
		for _, off := range []int{1, 3} {
			j := (i + off) % n
			w := int64(1 + (i+j)%7)
			if err := g.SetArc(i, j, w); err != nil {
				t.Fatal(err)
			}
			if err := g.SetArc(j, i, w); err != nil {
				t.Fatal(err)
			}
		}
	}
	return g
}

// setSolveHook installs a solveTestHook for the duration of the test.
func setSolveHook(t *testing.T, hook func(SolveSpec)) {
	t.Helper()
	solveTestHook = hook
	t.Cleanup(func() { solveTestHook = nil })
}

// requestGoroutines counts the live goroutines other than the par pool's
// idle workers, those parked on their job channel between jobs. Pool
// workers are spawned on first need and never exit, by design, so a test
// that happens to be the first to need one more would otherwise read it as
// a leak. A worker that is running, or stuck inside, a job is still counted.
func requestGoroutines() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	for _, stack := range bytes.Split(buf, []byte("\n\n")) {
		header, frames, _ := bytes.Cut(stack, []byte("\n"))
		idle := bytes.Contains(header, []byte("[chan receive")) &&
			bytes.HasPrefix(frames, []byte("qclique/internal/par.(*poolWorker).loop("))
		if !idle {
			count++
		}
	}
	return count
}

// TestRequestGoroutinesCountsBusyPoolWorkers: the leak count skips only
// idle pool workers. While a dispatch is blocked inside its job, both its
// dispatching goroutine and the pool worker running the other chunk count,
// so the count drops by two once the job ends and the worker parks again.
func TestRequestGoroutinesCountsBusyPoolWorkers(t *testing.T) {
	started := make(chan struct{}, 2)
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Two single-index chunks: each executor claims one and blocks in
		// it, so the caller and one pool worker are both inside the job.
		par.For(2, 2, func(int) {
			started <- struct{}{}
			<-release
		})
	}()
	<-started
	<-started
	busy := requestGoroutines()
	close(release)
	<-done

	deadline := time.Now().Add(5 * time.Second)
	for {
		after := requestGoroutines()
		if after <= busy-2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("requestGoroutines = %d during a blocked dispatch and %d after it, want a drop of 2 (dispatcher + busy worker)", busy, after)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitAdmission polls the admission gauges until ok or the deadline.
func waitAdmission(t *testing.T, svc *Service, what string, ok func(AdmissionStats) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := svc.admit.snapshot()
		if ok(st) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("gave up waiting for %s (inflight=%d queued_now=%d)", what, st.Inflight, st.QueuedNow)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmissionSaturation is the end-to-end saturation invariant: with
// MaxInflight=3 and far more concurrent cache-missing solves, never more
// than 3 executions run at once, the excess queues (Queued and QueueWaitNs
// land in the stats), every request eventually completes, and no goroutines
// leak. Run under -race this also pins the controller's synchronization.
func TestAdmissionSaturation(t *testing.T) {
	before := requestGoroutines()
	const cap = 3
	const total = 10
	svc := New(Config{MaxInflight: cap, QueueDepth: 16})
	g := overloadTestGraph(t, 12)
	id, err := svc.PutGraph(g)
	if err != nil {
		t.Fatal(err)
	}

	var cur, max atomic.Int64
	gate := make(chan struct{})
	setSolveHook(t, func(SolveSpec) {
		c := cur.Add(1)
		defer cur.Add(-1)
		for {
			m := max.Load()
			if c <= m || max.CompareAndSwap(m, c) {
				break
			}
		}
		<-gate
	})

	var wg sync.WaitGroup
	errs := make([]error, total)
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = svc.Solve(id, SolveSpec{Preset: PresetScaled, Seed: uint64(i + 1)})
		}(i)
	}
	// Genuine saturation before anyone is released: the cap held and the
	// rest queued.
	waitAdmission(t, svc, "saturation", func(st AdmissionStats) bool {
		return st.Inflight == cap && st.QueuedNow == total-cap
	})
	close(gate)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("solve %d: %v", i, err)
		}
	}
	if got := max.Load(); got > cap {
		t.Fatalf("observed %d concurrent executions, cap is %d", got, cap)
	}
	st := svc.Stats().Admission
	if st.Queued < total-cap {
		t.Fatalf("Queued = %d, want >= %d", st.Queued, total-cap)
	}
	if st.QueueWaitNs <= 0 {
		t.Fatalf("QueueWaitNs = %d, want > 0", st.QueueWaitNs)
	}
	if st.Inflight != 0 || st.QueuedNow != 0 {
		t.Fatalf("gauges not drained: %+v", st)
	}

	// No goroutine may outlive its request.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if requestGoroutines() <= before+1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: before=%d now=%d", before, requestGoroutines())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAdmissionFIFOOrder: queued solves execute in arrival order.
func TestAdmissionFIFOOrder(t *testing.T) {
	svc := New(Config{MaxInflight: 1, QueueDepth: 8})
	g := overloadTestGraph(t, 12)
	id, err := svc.PutGraph(g)
	if err != nil {
		t.Fatal(err)
	}

	const occupier = uint64(100)
	var mu sync.Mutex
	var order []uint64
	gate := make(chan struct{})
	setSolveHook(t, func(spec SolveSpec) {
		mu.Lock()
		order = append(order, spec.Seed)
		mu.Unlock()
		if spec.Seed == occupier {
			<-gate
		}
	})

	var wg sync.WaitGroup
	launch := func(seed uint64) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := svc.Solve(id, SolveSpec{Preset: PresetScaled, Seed: seed}); err != nil {
				t.Errorf("seed %d: %v", seed, err)
			}
		}()
	}
	launch(occupier)
	waitAdmission(t, svc, "the occupier to hold the slot", func(st AdmissionStats) bool { return st.Inflight == 1 })
	want := []uint64{occupier}
	for seed := uint64(1); seed <= 5; seed++ {
		depth := int(seed)
		launch(seed)
		// Confirm each enqueue before issuing the next: arrival order is
		// then unambiguous.
		waitAdmission(t, svc, "enqueue", func(st AdmissionStats) bool { return st.QueuedNow == depth })
		want = append(want, seed)
	}
	close(gate)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(order) != len(want) {
		t.Fatalf("executed %d solves, want %d (%v)", len(order), len(want), order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("execution order %v, want FIFO %v", order, want)
		}
	}
}

// TestQueueOverflowSheds: past the queue bound a request is refused with a
// typed OverloadError — counted in Shed, never in Cancelled, never cached.
func TestQueueOverflowSheds(t *testing.T) {
	svc := New(Config{MaxInflight: 1, QueueDepth: 1})
	g := overloadTestGraph(t, 12)
	id, err := svc.PutGraph(g)
	if err != nil {
		t.Fatal(err)
	}

	gate := make(chan struct{})
	setSolveHook(t, func(spec SolveSpec) {
		if spec.Seed == 1 {
			<-gate
		}
	})
	var wg sync.WaitGroup
	launch := func(seed uint64) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := svc.Solve(id, SolveSpec{Preset: PresetScaled, Seed: seed}); err != nil {
				t.Errorf("seed %d: %v", seed, err)
			}
		}()
	}
	// Sequence the occupancy: the slot must be held before the queue seat
	// is taken, or the second solve would just run.
	launch(1)
	waitAdmission(t, svc, "the occupier to hold the slot", func(st AdmissionStats) bool { return st.Inflight == 1 })
	launch(2)
	waitAdmission(t, svc, "the queue seat to fill", func(st AdmissionStats) bool { return st.QueuedNow == 1 })

	_, err = svc.Solve(id, SolveSpec{Preset: PresetScaled, Seed: 3})
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("overflow solve returned %v (%T), want *OverloadError", err, err)
	}
	if oe.Reason != "queue-full" {
		t.Fatalf("shed reason %q, want queue-full", oe.Reason)
	}
	if oe.RetryAfter < time.Second {
		t.Fatalf("RetryAfter = %v, want >= 1s", oe.RetryAfter)
	}
	close(gate)
	wg.Wait()

	st := svc.Stats()
	if st.Admission.Shed != 1 {
		t.Fatalf("Shed = %d, want 1", st.Admission.Shed)
	}
	if c := st.Strategies["quantum"].Cancelled; c != 0 {
		t.Fatalf("Cancelled = %d, want 0 — a shed is not a cancellation", c)
	}
	// The shed request computed nothing and cached nothing: re-solving its
	// spec runs fresh.
	res, err := svc.Solve(id, SolveSpec{Preset: PresetScaled, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Fatal("re-solve of the shed spec reported cached; a shed must leave no cache entry")
	}
}

// TestShedOverHTTP: the wire contract of a shed — 503, code "overloaded",
// retryable marker, Retry-After in header and body.
func TestShedOverHTTP(t *testing.T) {
	svc := New(Config{MaxInflight: 1, QueueDepth: 1})
	g := overloadTestGraph(t, 12)
	id, err := svc.PutGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	setSolveHook(t, func(spec SolveSpec) {
		if spec.Seed == 1 {
			<-gate
		}
	})
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	var wg sync.WaitGroup
	launch := func(seed uint64) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := fmt.Sprintf(`{"preset":"scaled","seed":%d}`, seed)
			resp, err := http.Post(srv.URL+"/v1/graphs/"+id+"/solve", "application/json", bytes.NewBufferString(body))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
		}()
	}
	launch(1)
	waitAdmission(t, svc, "the occupier to hold the slot", func(st AdmissionStats) bool { return st.Inflight == 1 })
	launch(2)
	waitAdmission(t, svc, "the queue seat to fill", func(st AdmissionStats) bool { return st.QueuedNow == 1 })

	readyz := func() (int, Readiness) {
		t.Helper()
		var rd Readiness
		resp := doJSON(t, srv, http.MethodGet, "/v1/readyz", nil, &rd)
		return resp.StatusCode, rd
	}
	if status, rd := readyz(); status != http.StatusServiceUnavailable || rd.Reason != "queue-saturated" {
		close(gate)
		wg.Wait()
		t.Fatalf("saturated readyz = %d %+v, want 503 queue-saturated", status, rd)
	}

	resp, err := http.Post(srv.URL+"/v1/graphs/"+id+"/solve", "application/json",
		bytes.NewBufferString(`{"preset":"scaled","seed":3}`))
	if err != nil {
		t.Fatal(err)
	}
	var envelope struct {
		Error ErrorJSON `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	close(gate)
	wg.Wait()
	if status, rd := readyz(); status != http.StatusOK {
		t.Fatalf("readyz after the gate opened = %d %+v, want 200", status, rd)
	}

	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed status = %d, want 503", resp.StatusCode)
	}
	if envelope.Error.Code != "overloaded" || !envelope.Error.Retryable {
		t.Fatalf("shed envelope %+v, want code overloaded and retryable", envelope.Error)
	}
	if envelope.Error.RetryAfterMS <= 0 {
		t.Fatalf("retry_after_ms = %d, want > 0", envelope.Error.RetryAfterMS)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed 503 without a Retry-After header")
	}
}

// TestDeadlineShed: a request that would queue, whose remaining deadline
// cannot cover the strategy's estimated service time, is shed immediately —
// reason "deadline" — instead of burning queue residency.
func TestDeadlineShed(t *testing.T) {
	svc := New(Config{MaxInflight: 1, QueueDepth: 8})
	g := overloadTestGraph(t, 24)
	id, err := svc.PutGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the estimate: one completed execution gives the strategy a mean
	// wall time (a full n=24 pipeline runs far longer than the 1ms budget
	// below).
	if _, err := svc.Solve(id, SolveSpec{Preset: PresetScaled, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if svc.stats.estimate("quantum") <= time.Millisecond {
		t.Skipf("warm-up solve finished in %v; too fast to distinguish from the shed budget", svc.stats.estimate("quantum"))
	}

	gate := make(chan struct{})
	setSolveHook(t, func(spec SolveSpec) {
		if spec.Seed == 2 {
			<-gate
		}
	})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := svc.Solve(id, SolveSpec{Preset: PresetScaled, Seed: 2}); err != nil {
			t.Errorf("occupier: %v", err)
		}
	}()
	waitAdmission(t, svc, "the occupier to hold the slot", func(st AdmissionStats) bool { return st.Inflight == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, err = svc.SolveContext(ctx, id, SolveSpec{Preset: PresetScaled, Seed: 3})
	close(gate)
	wg.Wait()

	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("hopeless-deadline solve returned %v (%T), want *OverloadError", err, err)
	}
	if oe.Reason != "deadline" {
		t.Fatalf("shed reason %q, want deadline", oe.Reason)
	}
	st := svc.Stats()
	if st.Admission.Shed != 1 {
		t.Fatalf("Shed = %d, want 1", st.Admission.Shed)
	}
	if c := st.Strategies["quantum"].Cancelled; c != 0 {
		t.Fatalf("Cancelled = %d, want 0", c)
	}
}

// TestColdGossipPriorAdmits: before any gossip solve has completed,
// admission prices a queued gossip request with the strategy's cost prior.
// At n=256 the solve takes well under a second, so under a 2 s deadline the
// queued request must be admitted once the slot frees, not shed with a
// 503. The admitted request cancels itself in the solve hook, which pins
// the admission decision without timing the solve.
func TestColdGossipPriorAdmits(t *testing.T) {
	svc := New(Config{MaxInflight: 1, QueueDepth: 4})
	occupierID, err := svc.PutGraph(overloadTestGraph(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	queuedID, err := svc.PutGraph(overloadTestGraph(t, 256))
	if err != nil {
		t.Fatal(err)
	}
	prior := svc.estimateFor("gossip", graph.Features{N: 256}, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	gate := make(chan struct{})
	admitted := false
	setSolveHook(t, func(spec SolveSpec) {
		switch spec.Seed {
		case 1:
			<-gate
		case 2:
			admitted = true
			cancel()
		}
	})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := svc.Solve(occupierID, SolveSpec{Strategy: "gossip", Seed: 1}); err != nil {
			t.Errorf("occupier: %v", err)
		}
	}()
	waitAdmission(t, svc, "the occupier to hold the slot", func(st AdmissionStats) bool { return st.Inflight == 1 })

	queued := make(chan error, 1)
	go func() {
		_, err := svc.SolveContext(ctx, queuedID, SolveSpec{Strategy: "gossip", Seed: 2})
		queued <- err
	}()
	waitAdmission(t, svc, "the n=256 request to queue or shed", func(st AdmissionStats) bool {
		return st.QueuedNow == 1 || st.Shed > 0
	})
	close(gate)
	wg.Wait()
	err = <-queued

	var oe *OverloadError
	if errors.As(err, &oe) {
		t.Fatalf("queued n=256 gossip solve shed (%s) on the cold prior %v", oe.Reason, prior)
	}
	if !admitted {
		t.Fatalf("queued n=256 gossip solve never reached execution: %v", err)
	}
	if st := svc.Stats().Admission; st.Shed != 0 || st.Queued != 1 {
		t.Fatalf("admission stats %+v, want one queued request and no shed", st)
	}
}

// TestDrainLifecycle: BeginDrain flips readiness, sheds the queue with
// reason "draining", refuses new work — and lets the in-flight solve finish.
func TestDrainLifecycle(t *testing.T) {
	svc := New(Config{MaxInflight: 1, QueueDepth: 4})
	g := overloadTestGraph(t, 12)
	id, err := svc.PutGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	if rd := svc.Readiness(); !rd.Ready {
		t.Fatalf("fresh service not ready: %+v", rd)
	}

	gate := make(chan struct{})
	setSolveHook(t, func(spec SolveSpec) {
		if spec.Seed == 1 {
			<-gate
		}
	})
	var wg sync.WaitGroup
	var inflightErr, queuedErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, inflightErr = svc.Solve(id, SolveSpec{Preset: PresetScaled, Seed: 1})
	}()
	waitAdmission(t, svc, "the occupier to hold the slot", func(st AdmissionStats) bool { return st.Inflight == 1 })
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, queuedErr = svc.Solve(id, SolveSpec{Preset: PresetScaled, Seed: 2})
	}()
	waitAdmission(t, svc, "a queued waiter", func(st AdmissionStats) bool { return st.QueuedNow == 1 })

	svc.BeginDrain()
	if rd := svc.Readiness(); rd.Ready || rd.Reason != "draining" {
		t.Fatalf("draining readiness = %+v, want not ready with reason draining", rd)
	}
	// New work is refused...
	_, err = svc.Solve(id, SolveSpec{Preset: PresetScaled, Seed: 3})
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Reason != "draining" {
		t.Fatalf("solve during drain returned %v, want *OverloadError draining", err)
	}
	// ...the in-flight solve finishes, the queued one was shed.
	close(gate)
	wg.Wait()
	if inflightErr != nil {
		t.Fatalf("in-flight solve failed during drain: %v", inflightErr)
	}
	if !errors.As(queuedErr, &oe) || oe.Reason != "draining" {
		t.Fatalf("queued solve returned %v, want *OverloadError draining", queuedErr)
	}
}

// TestReadyzEndpoints: healthz is unconditionally live; readyz mirrors the
// drain state over the wire with a 503.
func TestReadyzEndpoints(t *testing.T) {
	svc := New(Config{MaxInflight: 1})
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	for _, path := range []string{"/v1/healthz", "/v1/readyz"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d, want 200", path, resp.StatusCode)
		}
	}
	svc.BeginDrain()
	resp, err := http.Get(srv.URL + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var rd Readiness
	if err := json.NewDecoder(resp.Body).Decode(&rd); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || rd.Ready || rd.Reason != "draining" {
		t.Fatalf("draining readyz = %d %+v, want 503 draining", resp.StatusCode, rd)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining readyz without a Retry-After header")
	}
	resp, err = http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz during drain = %d, want 200 (a draining daemon is alive)", resp.StatusCode)
	}
}

// holdPressure builds overload pressure the way production load does, on a
// service configured with MaxInflight 1 and QueueDepth 2: a solve of
// holdSeed holds the only slot inside the solve hook, and a solve of
// queueSeed waits behind it, half-filling the queue. The returned release
// frees the slot and waits for both solves; it also runs at cleanup, so a
// failing test does not leave them blocked.
func holdPressure(t *testing.T, svc *Service, id string, holdSeed, queueSeed uint64) (release func()) {
	t.Helper()
	gate := make(chan struct{})
	setSolveHook(t, func(spec SolveSpec) {
		if spec.Seed == holdSeed {
			<-gate
		}
	})
	var wg sync.WaitGroup
	launch := func(seed uint64) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := svc.Solve(id, SolveSpec{Preset: PresetScaled, Seed: seed}); err != nil {
				t.Errorf("pressure solve seed %d: %v", seed, err)
			}
		}()
	}
	var once sync.Once
	release = func() {
		once.Do(func() {
			close(gate)
			wg.Wait()
		})
	}
	t.Cleanup(release)
	launch(holdSeed)
	waitAdmission(t, svc, "the occupier to hold the slot", func(st AdmissionStats) bool { return st.Inflight == 1 })
	launch(queueSeed)
	waitAdmission(t, svc, "the queue seat to fill", func(st AdmissionStats) bool { return st.QueuedNow == 1 })
	if st := svc.Stats().Admission; st.Inflight != st.MaxInflight || st.QueuedNow < st.QueueDepth/2 {
		t.Fatalf("admission %+v: want every slot held and the queue at least half full", st)
	}
	return release
}

// TestOverloadDegrade: pressure alone never degrades. With a held slot and
// a queued solve, a degradable exact request waits its turn in the queue
// and, once the slot frees, answers on the strategy it asked for — the
// ladder steps down only on retry exhaustion or a rung deadline.
func TestOverloadDegrade(t *testing.T) {
	svc := New(Config{MaxInflight: 1, QueueDepth: 2})
	g := overloadTestGraph(t, 12)
	id, err := svc.PutGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	spec := SolveSpec{Preset: PresetScaled, Seed: 5, Degrade: true}
	release := holdPressure(t, svc, id, 1, 2)
	var res *SolveResult
	done := make(chan error, 1)
	go func() {
		var err error
		res, err = svc.Solve(id, spec)
		done <- err
	}()
	waitAdmission(t, svc, "the degradable solve to queue", func(st AdmissionStats) bool { return st.QueuedNow == 2 })
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if res.Degraded || res.DegradeReason != "" || res.Cached {
		t.Fatalf("pressured solve = degraded:%v reason:%q cached:%v, want a fresh undegraded answer", res.Degraded, res.DegradeReason, res.Cached)
	}
	if got := res.Res.Strategy; got != "quantum" {
		t.Fatalf("pressured solve ran %q, want the requested quantum", got)
	}
	if d := svc.Stats().Strategies["quantum"].Degraded; d != 0 {
		t.Fatalf("quantum.Degraded = %d, want 0", d)
	}
}

// TestOverloadDegradeCacheBypass: under pressure, a degradable request whose
// exact answer is already cached is the plain hit — it neither queues nor
// degrades.
func TestOverloadDegradeCacheBypass(t *testing.T) {
	svc := New(Config{MaxInflight: 1, QueueDepth: 2})
	g := overloadTestGraph(t, 12)
	id, err := svc.PutGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	spec := SolveSpec{Preset: PresetScaled, Seed: 6}
	if _, err := svc.Solve(id, spec); err != nil {
		t.Fatal(err)
	}
	spec.Degrade = true
	release := holdPressure(t, svc, id, 1, 2)
	res, err := svc.Solve(id, spec)
	release()
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded || !res.Cached {
		t.Fatalf("cached exact answer under pressure = degraded:%v cached:%v, want the plain hit", res.Degraded, res.Cached)
	}
}

// TestPanicRecovery is the regression for a pipeline panicking mid-solve:
// the caller gets a typed *PanicError (500 "internal" over the wire),
// PanicsRecovered increments, and the panic leaves nothing behind that a
// later solve reads — the follow-up solve is bit-identical to one from a
// fresh service.
func TestPanicRecovery(t *testing.T) {
	svc := New(Config{})
	g := overloadTestGraph(t, 12)
	id, err := svc.PutGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	var fired atomic.Bool
	setSolveHook(t, func(SolveSpec) {
		if fired.CompareAndSwap(false, true) {
			panic("injected stage panic")
		}
	})
	spec := SolveSpec{Preset: PresetScaled, Seed: 7}
	_, err = svc.Solve(id, spec)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("panicking solve returned %v (%T), want *PanicError", err, err)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("PanicError without the panicking stack")
	}
	if st := svc.Stats().Admission; st.PanicsRecovered != 1 {
		t.Fatalf("PanicsRecovered = %d, want 1", st.PanicsRecovered)
	}

	// The next solve of the same graph runs afresh and matches a fresh
	// service's answer.
	res, err := svc.Solve(id, spec)
	if err != nil {
		t.Fatalf("solve after the panic: %v", err)
	}
	if res.Cached {
		t.Fatal("solve after the panic reported cached; the panicked run must cache nothing")
	}
	ref, err := New(Config{}).SolveGraph(g, spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Res.Rounds != ref.Res.Rounds || !res.Res.Dist.Equal(ref.Res.Dist) {
		t.Fatal("solve after a panic differs from an independent fresh solve")
	}
}

// TestPanicRecoveryOverHTTP: the wire shape of a panicking solve is a 500
// "internal" envelope, not a dropped connection.
func TestPanicRecoveryOverHTTP(t *testing.T) {
	svc := New(Config{})
	g := overloadTestGraph(t, 12)
	id, err := svc.PutGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	var fired atomic.Bool
	setSolveHook(t, func(SolveSpec) {
		if fired.CompareAndSwap(false, true) {
			panic("injected stage panic")
		}
	})
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/graphs/"+id+"/solve", "application/json",
		bytes.NewBufferString(`{"preset":"scaled","seed":8}`))
	if err != nil {
		t.Fatal(err)
	}
	var envelope struct {
		Error ErrorJSON `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking solve status = %d, want 500", resp.StatusCode)
	}
	if envelope.Error.Code != "internal" {
		t.Fatalf("panicking solve code = %q, want internal", envelope.Error.Code)
	}
}

// TestRecoverHandlerMiddleware: the outer HTTP boundary catches panics that
// escape everything else, answers 500 "internal", and counts them.
func TestRecoverHandlerMiddleware(t *testing.T) {
	svc := New(Config{})
	h := recoverHandler(svc, http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("handler exploded")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	var envelope struct {
		Error ErrorJSON `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil {
		t.Fatal(err)
	}
	if envelope.Error.Code != "internal" {
		t.Fatalf("code = %q, want internal", envelope.Error.Code)
	}
	if st := svc.Stats().Admission; st.PanicsRecovered != 1 {
		t.Fatalf("PanicsRecovered = %d, want 1", st.PanicsRecovered)
	}
}

// TestCancelledWhileQueued: a caller whose own context dies while waiting
// for a slot gets a CancelledError (counted in Cancelled), not a shed.
func TestCancelledWhileQueued(t *testing.T) {
	svc := New(Config{MaxInflight: 1, QueueDepth: 4})
	g := overloadTestGraph(t, 12)
	id, err := svc.PutGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	setSolveHook(t, func(spec SolveSpec) {
		if spec.Seed == 1 {
			<-gate
		}
	})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := svc.Solve(id, SolveSpec{Preset: PresetScaled, Seed: 1}); err != nil {
			t.Errorf("occupier: %v", err)
		}
	}()
	waitAdmission(t, svc, "the occupier to hold the slot", func(st AdmissionStats) bool { return st.Inflight == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	queuedErr := make(chan error, 1)
	go func() {
		_, err := svc.SolveContext(ctx, id, SolveSpec{Preset: PresetScaled, Seed: 2})
		queuedErr <- err
	}()
	waitAdmission(t, svc, "a queued waiter", func(st AdmissionStats) bool { return st.QueuedNow == 1 })
	cancel()
	err = <-queuedErr
	close(gate)
	wg.Wait()

	var ce *CancelledError
	if !errors.As(err, &ce) || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled-while-queued returned %v, want *CancelledError wrapping context.Canceled", err)
	}
	st := svc.Stats()
	if st.Admission.Shed != 0 {
		t.Fatalf("Shed = %d, want 0 — the caller cancelled, the service shed nothing", st.Admission.Shed)
	}
	if c := st.Strategies["quantum"].Cancelled; c != 1 {
		t.Fatalf("Cancelled = %d, want 1", c)
	}
}

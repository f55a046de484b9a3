// Command apspd is the APSP-as-a-service daemon: a long-running HTTP/JSON
// server over the qclique solve layer, with a content-addressed graph
// store, an LRU solve cache with singleflight deduplication, batched path
// queries and per-strategy metrics.
//
//	go run ./cmd/apspd -addr :8719
//
//	PUT  /v1/graphs                   {"n":4,"arcs":[{"u":0,"v":1,"w":3},…]} → {"id":"sha256:…"}
//	POST /v1/graphs/{id}/solve        {"strategy":"quantum","preset":"scaled","seed":42}
//	GET  /v1/graphs/{id}/dist         ?src=&dst= (pair), ?src= (row), none (matrix)
//	POST /v1/graphs/{id}/paths:batch  {"queries":[{"src":0,"dst":3},…]}
//	GET  /v1/strategies               strategy catalog: capabilities + live telemetry
//	GET  /v1/metrics                  per-strategy and admission accounting
//	GET  /v1/healthz                  liveness
//	GET  /v1/readyz                   readiness (503 while draining or queue-saturated)
//
// The daemon is overload-resilient: -max-inflight bounds concurrently
// executing solves, -queue-depth bounds the FIFO wait queue behind them
// (excess requests answer 503 "overloaded" with a Retry-After), and
// -overload-degrade answers degradable requests with the cheapest
// approximate strategy while under pressure. SIGINT/SIGTERM drain
// gracefully: readiness flips to 503, queued solves are shed, in-flight
// ones finish within -drain-timeout.
//
// Failures share one envelope: {"error":{"code","message","retryable",…}}.
//
// Requests that name no strategy fall to the -strategy default, which is
// "auto": the service's planner picks the best registered strategy viable
// for the graph's structural profile and the request's stretch budget and
// deadline, and the response echoes the decision ("planned_strategy",
// "planner_reason", "predicted_rounds", "predicted_wall_ns"). A planned
// solve is bit-identical to explicitly requesting the chosen strategy.
//
// Solve-bearing requests additionally accept "epsilon" with the
// approximate strategies ("approx-quantum" for 1+ε, "approx-skeleton" for
// 2+ε); their responses carry the guaranteed and observed stretch.
// Distances use null for unreachable pairs and an explicit "undefined"
// marker for −∞ (negative-cycle) entries; graphs a strategy cannot answer
// (negative cycles, or negative/asymmetric weights under an approximate
// strategy) solve to 422.
//
// Identical graphs hash to the same id, so a re-upload plus re-solve of an
// unchanged graph performs zero simulator rounds. -selftest starts the
// daemon on an ephemeral port, drives the full client flow against it and
// cross-checks every answer with an in-process qclique.SolveAPSP — the CI
// smoke job runs exactly that. -pprof-addr (off by default) serves the
// net/http/pprof diagnostics on a separate listener, kept away from the
// API surface.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	netpprof "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"qclique"
	"qclique/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8719", "listen address")
	cacheSize := flag.Int("cache-size", 64, "solve results retained (LRU)")
	maxGraphs := flag.Int("max-graphs", 1024, "graphs retained in the store (LRU)")
	workers := flag.Int("workers", 0, "host-parallelism bound (0 = GOMAXPROCS)")
	maxInflight := flag.Int("max-inflight", runtime.GOMAXPROCS(0), "concurrently executing solves (0 = unbounded)")
	queueDepth := flag.Int("queue-depth", 64, "admission wait queue behind a saturated -max-inflight")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-drain deadline after SIGINT/SIGTERM")
	overloadDegrade := flag.Bool("overload-degrade", false, "answer degradable requests with the cheapest approximate rung while under overload pressure")
	strategy := flag.String("strategy", "auto", `default strategy for requests that name none ("auto" = planner-chosen; any registered name or alias)`)
	selftestFlag := flag.Bool("selftest", false, "run the end-to-end smoke against an ephemeral daemon and exit")
	soakFlag := flag.Duration("soak", 0, "hammer an ephemeral daemon with mixed concurrent clients for this long, then SIGTERM-drain it, and exit")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof diagnostics on this separate listen address (empty = disabled)")
	flag.Parse()

	defaultStrategy, err := serve.ParseStrategy(*strategy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "apspd:", err)
		os.Exit(2)
	}
	cfg := serve.Config{
		CacheSize:       *cacheSize,
		MaxGraphs:       *maxGraphs,
		Workers:         *workers,
		MaxInflight:     *maxInflight,
		QueueDepth:      *queueDepth,
		OverloadDegrade: *overloadDegrade,
		DefaultStrategy: defaultStrategy,
	}
	if *selftestFlag {
		if err := selftest(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "apspd selftest:", err)
			os.Exit(1)
		}
		fmt.Println("apspd selftest ok")
		return
	}
	if *soakFlag > 0 {
		if err := soak(cfg, *soakFlag, *drainTimeout); err != nil {
			fmt.Fprintln(os.Stderr, "apspd soak:", err)
			os.Exit(1)
		}
		fmt.Println("apspd soak ok")
		return
	}

	svc := serve.New(cfg)
	if *pprofAddr != "" {
		// Diagnostics stay off the API listener: the profiling surface is
		// opt-in, binds its own (typically loopback-only) address, and is
		// not part of the graceful drain — it dies with the process.
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("apspd pprof listening on %s", pln.Addr())
		go func() {
			psrv := &http.Server{Handler: pprofMux(), ReadHeaderTimeout: 10 * time.Second}
			if err := psrv.Serve(pln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("apspd pprof listener failed: %v", err)
			}
		}()
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("apspd listening on %s (cache=%d graphs=%d max-inflight=%d queue-depth=%d)",
		ln.Addr(), *cacheSize, *maxGraphs, *maxInflight, *queueDepth)
	srv := &http.Server{
		Handler:           serve.NewHandler(svc),
		ReadHeaderTimeout: 10 * time.Second,
	}
	if err := serveAndDrain(svc, srv, ln, *drainTimeout); err != nil {
		log.Fatal(err)
	}
	log.Printf("apspd drained cleanly")
}

// serveAndDrain runs srv on ln until SIGINT/SIGTERM, then drains gracefully:
// the admission gate closes first (readyz flips to 503 and queued solves are
// shed with "overloaded"/draining), then http.Server.Shutdown stops the
// listener and waits for in-flight requests under the drain deadline. A
// second signal during the drain kills the process the usual way — the
// NotifyContext registration is already released by then.
func serveAndDrain(svc *serve.Service, srv *http.Server, ln net.Listener, drainTimeout time.Duration) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()
	svc.BeginDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("drain exceeded its %s deadline: %w", drainTimeout, err)
	}
	return nil
}

// soak is the CI overload drill: an ephemeral daemon under cfg is hammered
// by mixed concurrent clients (exact and approximate strategies,
// cache-hitting and cache-missing seeds, occasional tight deadlines) for
// dur, then the process sends itself a real SIGTERM to exercise the
// production drain path. It fails on any status outside {2xx, 503}, on a
// drain exceeding its deadline, or on goroutines leaked past the drain.
func soak(cfg serve.Config, dur, drainTimeout time.Duration) error {
	baseline := runtime.NumGoroutine()
	svc := serve.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: serve.NewHandler(svc)}
	done := make(chan error, 1)
	go func() { done <- serveAndDrain(svc, srv, ln, drainTimeout) }()
	base := "http://" + ln.Addr().String()
	client := &http.Client{Timeout: 30 * time.Second}

	// One modest graph; the load mix comes from the spec axis — repeated
	// seeds hit the cache, fresh seeds force full pipeline runs, the
	// approximate strategy exercises the cheap rung, and tight deadlines
	// exercise cancellation under load.
	const n = 16
	var arcs []map[string]any
	for i := 0; i < n; i++ {
		for _, off := range []int{1, 4} {
			arcs = append(arcs, map[string]any{"u": i, "v": (i + off) % n, "w": 1 + (i+off)%7})
		}
	}
	body, err := json.Marshal(map[string]any{"n": n, "arcs": arcs})
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPut, base+"/v1/graphs", bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	var put struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&put)
	resp.Body.Close()
	if err != nil {
		return err
	}

	var (
		wg       sync.WaitGroup
		seedGen  atomic.Uint64
		requests atomic.Int64
		failures atomic.Int64
		sigSent  atomic.Bool
		firstBad atomic.Value
	)
	stopLoad := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stopLoad:
					return
				default:
				}
				spec := map[string]any{"strategy": "quantum", "preset": "scaled", "seed": uint64(1)}
				switch i % 4 {
				case 1:
					spec["strategy"] = "approx-quantum"
					spec["epsilon"] = 0.5
					spec["seed"] = seedGen.Add(1)
				case 2:
					spec["seed"] = seedGen.Add(1)
					spec["timeout_ms"] = 50
				case 3:
					spec["seed"] = seedGen.Add(1)
				}
				b, err := json.Marshal(spec)
				if err != nil {
					failures.Add(1)
					firstBad.CompareAndSwap(nil, err.Error())
					return
				}
				resp, err := client.Post(base+"/v1/graphs/"+put.ID+"/solve", "application/json", bytes.NewReader(b))
				if err != nil {
					if sigSent.Load() {
						return // the listener is closing under us — expected
					}
					failures.Add(1)
					firstBad.CompareAndSwap(nil, err.Error())
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				requests.Add(1)
				if resp.StatusCode/100 != 2 && resp.StatusCode != http.StatusServiceUnavailable {
					failures.Add(1)
					firstBad.CompareAndSwap(nil, fmt.Sprintf("status %d", resp.StatusCode))
				}
			}
		}()
	}

	time.Sleep(dur)
	// SIGTERM while clients are still firing: the genuine production drain,
	// with in-flight solves to finish and queued ones to shed.
	sigSent.Store(true)
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		close(stopLoad)
		return err
	}
	drainStart := time.Now()
	var drainErr error
	select {
	case drainErr = <-done:
	case <-time.After(drainTimeout + 10*time.Second):
		close(stopLoad)
		return fmt.Errorf("drain did not complete within %s past its deadline", drainTimeout)
	}
	drainTook := time.Since(drainStart)
	close(stopLoad)
	wg.Wait()
	if drainErr != nil {
		return drainErr
	}
	if drainTook > drainTimeout {
		return fmt.Errorf("drain took %s, over the %s deadline", drainTook, drainTimeout)
	}
	if bad := failures.Load(); bad > 0 {
		return fmt.Errorf("%d request(s) failed outside the 2xx/503 contract (first: %v)", bad, firstBad.Load())
	}
	if requests.Load() == 0 {
		return errors.New("soak issued no requests")
	}
	// Goroutine recovery: everything the daemon and its solves spawned must
	// be gone once the drain returns (pool goroutines unwind asynchronously,
	// so poll briefly).
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if g := runtime.NumGoroutine(); g <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("goroutines leaked after drain: %d, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(50 * time.Millisecond)
	}
	fmt.Printf("soak: %d requests, drain %s\n", requests.Load(), drainTook.Round(time.Millisecond))
	return nil
}

// pprofMux returns the net/http/pprof surface on a dedicated mux, so the
// profiling handlers never leak onto the API listener (importing the
// package registers them on http.DefaultServeMux, which apspd never
// serves).
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", netpprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", netpprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", netpprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", netpprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", netpprof.Trace)
	return mux
}

// selftest boots a real daemon on an ephemeral port and exercises every
// endpoint, comparing against the library entry points.
func selftest(cfg serve.Config) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: serve.NewHandler(serve.New(cfg))}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()
	base := "http://" + ln.Addr().String()

	// Probe the -pprof-addr diagnostic surface the same way the daemon
	// serves it: dedicated mux on its own ephemeral listener, and the
	// index endpoint must answer 200.
	pln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	psrv := &http.Server{Handler: pprofMux()}
	go func() { _ = psrv.Serve(pln) }()
	defer psrv.Close()
	presp, err := (&http.Client{Timeout: 10 * time.Second}).Get("http://" + pln.Addr().String() + "/debug/pprof/cmdline")
	if err != nil {
		return fmt.Errorf("pprof probe: %w", err)
	}
	_, _ = io.Copy(io.Discard, presp.Body)
	presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		return fmt.Errorf("pprof probe: status %d, want 200", presp.StatusCode)
	}

	// Reference: solve the same graph in-process.
	const n = 10
	g := qclique.NewDigraph(n)
	var arcs []map[string]any
	addArc := func(u, v int, w int64) error {
		if err := g.SetArc(u, v, w); err != nil {
			return err
		}
		arcs = append(arcs, map[string]any{"u": u, "v": v, "w": w})
		return nil
	}
	for i := 0; i < n; i++ {
		if err := addArc(i, (i+1)%n, 3); err != nil {
			return err
		}
	}
	if err := addArc(0, 5, -2); err != nil {
		return err
	}
	if err := addArc(5, 8, -1); err != nil {
		return err
	}
	const seed = 42
	want, err := qclique.SolveAPSP(g,
		qclique.WithStrategy(qclique.Quantum),
		qclique.WithParams(qclique.ScaledConstants),
		qclique.WithSeed(seed))
	if err != nil {
		return fmt.Errorf("reference solve: %w", err)
	}

	client := &http.Client{Timeout: 60 * time.Second}
	call := func(method, path string, body any, out any) error {
		var buf bytes.Buffer
		if body != nil {
			if err := json.NewEncoder(&buf).Encode(body); err != nil {
				return err
			}
		}
		req, err := http.NewRequest(method, base+path, &buf)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			var e struct {
				Error struct {
					Code    string `json:"code"`
					Message string `json:"message"`
				} `json:"error"`
			}
			_ = json.NewDecoder(resp.Body).Decode(&e)
			return fmt.Errorf("%s %s: status %d: %s: %s", method, path, resp.StatusCode, e.Error.Code, e.Error.Message)
		}
		if out != nil {
			return json.NewDecoder(resp.Body).Decode(out)
		}
		return nil
	}

	// 1. PUT the graph.
	var put struct {
		ID string `json:"id"`
	}
	if err := call(http.MethodPut, "/v1/graphs", map[string]any{"n": n, "arcs": arcs}, &put); err != nil {
		return err
	}

	// 2. Solve fresh, then re-solve: the second call must hit the cache —
	// with identical accounting and zero new rounds.
	solveBody := map[string]any{"strategy": "quantum", "preset": "scaled", "seed": seed}
	var fresh, cached struct {
		Rounds int64 `json:"rounds"`
		Cached bool  `json:"cached"`
	}
	if err := call(http.MethodPost, "/v1/graphs/"+put.ID+"/solve", solveBody, &fresh); err != nil {
		return err
	}
	if fresh.Cached {
		return fmt.Errorf("first solve reported cached")
	}
	if fresh.Rounds != want.Rounds {
		return fmt.Errorf("daemon rounds %d != library rounds %d", fresh.Rounds, want.Rounds)
	}
	if err := call(http.MethodPost, "/v1/graphs/"+put.ID+"/solve", solveBody, &cached); err != nil {
		return err
	}
	if !cached.Cached || cached.Rounds != want.Rounds {
		return fmt.Errorf("re-solve = %+v, want cached with rounds %d", cached, want.Rounds)
	}

	// 3. Full distance matrix matches the library solve.
	var dist struct {
		Dist [][]*int64 `json:"dist"`
	}
	q := fmt.Sprintf("/v1/graphs/%s/dist?strategy=quantum&preset=scaled&seed=%d", put.ID, seed)
	if err := call(http.MethodGet, q, nil, &dist); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			w := want.Dist[i][j]
			got := dist.Dist[i][j]
			if w >= qclique.Inf {
				if got != nil {
					return fmt.Errorf("d(%d,%d) = %d, want null", i, j, *got)
				}
			} else if got == nil || *got != w {
				return fmt.Errorf("d(%d,%d) = %v, want %d", i, j, got, w)
			}
		}
	}

	// 4. Batch paths: every reported path must realize the library
	// distance.
	var queries []map[string]int
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			queries = append(queries, map[string]int{"src": src, "dst": dst})
		}
	}
	batchBody := map[string]any{"strategy": "quantum", "preset": "scaled", "seed": seed, "queries": queries}
	var batch struct {
		Cached  bool `json:"cached"`
		Results []struct {
			Src   int    `json:"src"`
			Dst   int    `json:"dst"`
			Dist  *int64 `json:"dist"`
			Path  []int  `json:"path"`
			Error string `json:"error"`
		} `json:"results"`
	}
	if err := call(http.MethodPost, "/v1/graphs/"+put.ID+"/paths:batch", batchBody, &batch); err != nil {
		return err
	}
	if !batch.Cached {
		return fmt.Errorf("batch did not reuse the cached solve")
	}
	for _, r := range batch.Results {
		w := want.Dist[r.Src][r.Dst]
		if w >= qclique.Inf {
			if r.Error == "" {
				return fmt.Errorf("(%d,%d): expected a no-path error", r.Src, r.Dst)
			}
			continue
		}
		if r.Dist == nil || *r.Dist != w {
			return fmt.Errorf("(%d,%d): batch dist %v, want %d", r.Src, r.Dst, r.Dist, w)
		}
		var total int64
		for i := 0; i+1 < len(r.Path); i++ {
			aw, ok := g.Weight(r.Path[i], r.Path[i+1])
			if !ok {
				return fmt.Errorf("(%d,%d): broken path %v", r.Src, r.Dst, r.Path)
			}
			total += aw
		}
		if total != w {
			return fmt.Errorf("(%d,%d): path weight %d, want %d", r.Src, r.Dst, total, w)
		}
	}

	// 5. Approximate solve: upload a nonnegative variant, solve with the
	// (1+ε) chain, and check the contract — stretch fields present,
	// observed within the guarantee, distances bounding the exact answers
	// from above.
	gApprox := qclique.NewDigraph(n)
	var approxArcs []map[string]any
	for i := 0; i < n; i++ {
		w := int64(2 + i%5)
		if err := gApprox.SetArc(i, (i+1)%n, w); err != nil {
			return err
		}
		approxArcs = append(approxArcs, map[string]any{"u": i, "v": (i + 1) % n, "w": w})
	}
	wantApprox, err := qclique.SolveAPSP(gApprox,
		qclique.WithParams(qclique.ScaledConstants),
		qclique.WithSeed(seed))
	if err != nil {
		return fmt.Errorf("approx reference solve: %w", err)
	}
	var putApprox struct {
		ID string `json:"id"`
	}
	if err := call(http.MethodPut, "/v1/graphs", map[string]any{"n": n, "arcs": approxArcs}, &putApprox); err != nil {
		return err
	}
	const eps = 0.5
	var approxSolve struct {
		Epsilon           float64 `json:"epsilon"`
		GuaranteedStretch float64 `json:"guaranteed_stretch"`
		ObservedStretch   float64 `json:"observed_stretch"`
	}
	approxBody := map[string]any{"strategy": "approx-quantum", "preset": "scaled", "seed": seed, "epsilon": eps}
	if err := call(http.MethodPost, "/v1/graphs/"+putApprox.ID+"/solve", approxBody, &approxSolve); err != nil {
		return err
	}
	if approxSolve.Epsilon != eps || approxSolve.GuaranteedStretch != 1+eps {
		return fmt.Errorf("approx solve echoed epsilon=%v guarantee=%v, want %v and %v",
			approxSolve.Epsilon, approxSolve.GuaranteedStretch, eps, 1+eps)
	}
	if approxSolve.ObservedStretch < 1 || approxSolve.ObservedStretch > approxSolve.GuaranteedStretch {
		return fmt.Errorf("observed stretch %v outside [1, %v]", approxSolve.ObservedStretch, approxSolve.GuaranteedStretch)
	}
	var approxDist struct {
		Dist [][]*int64 `json:"dist"`
	}
	q = fmt.Sprintf("/v1/graphs/%s/dist?strategy=approx-quantum&preset=scaled&seed=%d&epsilon=%v", putApprox.ID, seed, eps)
	if err := call(http.MethodGet, q, nil, &approxDist); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			w := wantApprox.Dist[i][j]
			got := approxDist.Dist[i][j]
			switch {
			case w >= qclique.Inf:
				if got != nil {
					return fmt.Errorf("approx d(%d,%d) = %d, want null", i, j, *got)
				}
			case got == nil:
				return fmt.Errorf("approx d(%d,%d) = null, want ≤ %v", i, j, float64(w)*(1+eps))
			case *got < w || float64(*got) > float64(w)*(1+eps):
				return fmt.Errorf("approx d(%d,%d) = %d outside [%d, %v]", i, j, *got, w, float64(w)*(1+eps))
			}
		}
	}

	// 6. Undefined inputs: a negative 2-cycle must solve to 422 at every
	// solve-bearing endpoint, not to fabricated numbers.
	cyc := map[string]any{"n": 2, "arcs": []map[string]any{
		{"u": 0, "v": 1, "w": -1}, {"u": 1, "v": 0, "w": 0},
	}}
	var putCyc struct {
		ID string `json:"id"`
	}
	if err := call(http.MethodPut, "/v1/graphs", cyc, &putCyc); err != nil {
		return err
	}
	for _, probe := range []struct{ method, path string }{
		{http.MethodPost, "/v1/graphs/" + putCyc.ID + "/solve"},
		{http.MethodPost, "/v1/graphs/" + putCyc.ID + "/paths:batch"},
	} {
		var buf bytes.Buffer
		body := map[string]any{"strategy": "quantum", "preset": "scaled", "seed": seed}
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			return err
		}
		req, err := http.NewRequest(probe.method, base+probe.path, &buf)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnprocessableEntity {
			return fmt.Errorf("%s on a negative cycle: status %d, want 422", probe.path, resp.StatusCode)
		}
	}

	// 7. Deadline probe: a solve of a fresh (uncached) spec under a 1ms
	// timeout must answer 503 — the pipeline checkpoints between stages
	// and inside its loops — with the partial stage telemetry in the body;
	// the same spec without a deadline must then succeed through the
	// cache-miss path (the cancelled run cached nothing) and report a
	// per-stage breakdown whose rounds sum to the total.
	gDeadline := qclique.NewDigraph(24)
	var deadlineArcs []map[string]any
	for i := 0; i < 24; i++ {
		for _, off := range []int{1, 3, 7} {
			w := int64(1 + (i+off)%9)
			if err := gDeadline.SetArc(i, (i+off)%24, w); err != nil {
				return err
			}
			deadlineArcs = append(deadlineArcs, map[string]any{"u": i, "v": (i + off) % 24, "w": w})
		}
	}
	var putDeadline struct {
		ID string `json:"id"`
	}
	if err := call(http.MethodPut, "/v1/graphs", map[string]any{"n": 24, "arcs": deadlineArcs}, &putDeadline); err != nil {
		return err
	}
	deadlineBody := map[string]any{"strategy": "quantum", "preset": "scaled", "seed": seed, "timeout_ms": 1}
	{
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(deadlineBody); err != nil {
			return err
		}
		req, err := http.NewRequest(http.MethodPost, base+"/v1/graphs/"+putDeadline.ID+"/solve", &buf)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		var timedOut struct {
			Error struct {
				Code         string `json:"code"`
				Message      string `json:"message"`
				Retryable    bool   `json:"retryable"`
				RetryAfterMS int64  `json:"retry_after_ms"`
			} `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&timedOut)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusServiceUnavailable {
			return fmt.Errorf("1ms-deadline solve: status %d, want 503", resp.StatusCode)
		}
		if timedOut.Error.Code != "cancelled" || timedOut.Error.Message == "" {
			return fmt.Errorf("1ms-deadline solve: 503 envelope %+v, want code \"cancelled\" with a message", timedOut.Error)
		}
		// Every 503 is a transient condition: it must advertise the retry,
		// in the header and in the envelope.
		if resp.Header.Get("Retry-After") == "" {
			return fmt.Errorf("1ms-deadline solve: 503 without a Retry-After header")
		}
		if !timedOut.Error.Retryable || timedOut.Error.RetryAfterMS <= 0 {
			return fmt.Errorf("1ms-deadline solve: 503 without retryable marker/wait: %+v", timedOut.Error)
		}
	}
	var afterDeadline struct {
		Rounds int64 `json:"rounds"`
		Cached bool  `json:"cached"`
		Stages []struct {
			Name   string `json:"name"`
			Rounds int64  `json:"rounds"`
		} `json:"stages"`
	}
	retryBody := map[string]any{"strategy": "quantum", "preset": "scaled", "seed": seed}
	if err := call(http.MethodPost, "/v1/graphs/"+putDeadline.ID+"/solve", retryBody, &afterDeadline); err != nil {
		return err
	}
	if afterDeadline.Cached {
		return fmt.Errorf("solve after the timed-out attempt reported cached; the cancelled run must not populate the cache")
	}
	var stageSum int64
	for _, sg := range afterDeadline.Stages {
		stageSum += sg.Rounds
	}
	if len(afterDeadline.Stages) == 0 || stageSum != afterDeadline.Rounds {
		return fmt.Errorf("stage breakdown sums to %d over %d stages, want rounds %d", stageSum, len(afterDeadline.Stages), afterDeadline.Rounds)
	}

	// 8. Metrics: the main flow ran the exact simulator once, the deadline
	// probe once more (its timed-out attempt counts as cancelled, not
	// solved), and the per-stage rollup must agree with the charged rounds.
	var stats struct {
		Strategies map[string]struct {
			Solves        int64 `json:"solves"`
			CacheHits     int64 `json:"cache_hits"`
			Cancelled     int64 `json:"cancelled"`
			RoundsCharged int64 `json:"rounds_charged"`
			Stages        map[string]struct {
				Rounds int64 `json:"rounds"`
			} `json:"stages"`
		} `json:"strategies"`
	}
	if err := call(http.MethodGet, "/v1/metrics", nil, &stats); err != nil {
		return err
	}
	qs := stats.Strategies["quantum"]
	if qs.Solves != 2 {
		return fmt.Errorf("metrics report %d solves, want 2 (main flow + deadline retry)", qs.Solves)
	}
	if qs.Cancelled != 1 {
		return fmt.Errorf("metrics report %d cancelled solves, want 1 (the 1ms-deadline attempt)", qs.Cancelled)
	}
	wantCharged := want.Rounds + afterDeadline.Rounds
	if qs.RoundsCharged != wantCharged {
		return fmt.Errorf("metrics charged %d rounds, want %d", qs.RoundsCharged, wantCharged)
	}
	var stageRollup int64
	for _, sg := range qs.Stages {
		stageRollup += sg.Rounds
	}
	if stageRollup != wantCharged {
		return fmt.Errorf("per-stage metrics roll up to %d rounds, want %d", stageRollup, wantCharged)
	}

	// 9. Chaos probe: a transient outage (every phase corrupted until the
	// 5-fault budget is spent) exhausts the quantum stage-retry budget;
	// with degradation on, the ladder answers with the approx-quantum rung
	// and the response says so, while the same outage without degradation
	// is a retryable 503. The fault and retry counters must then show up
	// in /metrics.
	faultsBody := map[string]any{"seed": 7, "corrupt_rate": 1, "max_faults": 5}
	var degradedRes struct {
		Strategy          string  `json:"strategy"`
		Degraded          bool    `json:"degraded"`
		DegradedFrom      string  `json:"degraded_from"`
		DegradeReason     string  `json:"degrade_reason"`
		GuaranteedStretch float64 `json:"guaranteed_stretch"`
	}
	degradeBody := map[string]any{"strategy": "quantum", "preset": "scaled", "seed": seed, "degrade": true, "faults": faultsBody}
	if err := call(http.MethodPost, "/v1/graphs/"+putDeadline.ID+"/solve", degradeBody, &degradedRes); err != nil {
		return err
	}
	if !degradedRes.Degraded || degradedRes.DegradedFrom != "quantum" || degradedRes.DegradeReason != "retries-exhausted" {
		return fmt.Errorf("degraded solve not marked: %+v", degradedRes)
	}
	if degradedRes.Strategy != "approx-quantum" || degradedRes.GuaranteedStretch != 1.5 {
		return fmt.Errorf("degraded solve rung %q (stretch %g), want approx-quantum at 1.5", degradedRes.Strategy, degradedRes.GuaranteedStretch)
	}
	{
		exhaustBody := map[string]any{"strategy": "quantum", "preset": "scaled", "seed": seed, "faults": faultsBody}
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(exhaustBody); err != nil {
			return err
		}
		req, err := http.NewRequest(http.MethodPost, base+"/v1/graphs/"+putDeadline.ID+"/solve", &buf)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		var exhausted struct {
			Error struct {
				Code      string         `json:"code"`
				Retryable bool           `json:"retryable"`
				Faults    map[string]any `json:"faults"`
			} `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&exhausted)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusServiceUnavailable {
			return fmt.Errorf("fault-exhausted solve: status %d, want 503", resp.StatusCode)
		}
		if exhausted.Error.Code != "fault_exhausted" {
			return fmt.Errorf("fault-exhausted 503 coded %q, want fault_exhausted", exhausted.Error.Code)
		}
		if resp.Header.Get("Retry-After") == "" || !exhausted.Error.Retryable {
			return fmt.Errorf("fault-exhausted 503 missing Retry-After/retryable: %+v", exhausted.Error)
		}
		if len(exhausted.Error.Faults) == 0 {
			return fmt.Errorf("fault-exhausted 503 without fault telemetry")
		}
	}
	var chaosStats struct {
		Strategies map[string]struct {
			FaultFailures int64 `json:"fault_failures"`
			Retries       int64 `json:"retries"`
			Degraded      int64 `json:"degraded"`
			Faults        struct {
				Corrupted int64 `json:"corrupted"`
			} `json:"faults"`
		} `json:"strategies"`
	}
	if err := call(http.MethodGet, "/v1/metrics", nil, &chaosStats); err != nil {
		return err
	}
	cq := chaosStats.Strategies["quantum"]
	if cq.FaultFailures != 2 || cq.Degraded != 1 {
		return fmt.Errorf("chaos metrics: fault_failures=%d degraded=%d, want 2 and 1", cq.FaultFailures, cq.Degraded)
	}
	if cq.Retries == 0 || cq.Faults.Corrupted != 10 {
		return fmt.Errorf("chaos metrics: retries=%d corrupted=%d, want >0 and 10", cq.Retries, cq.Faults.Corrupted)
	}

	// 10. Overload probe: a deliberately tiny daemon (one execution slot,
	// one queue seat) must shed the third concurrent solve with 503
	// "overloaded" plus Retry-After, flip readyz to 503 while saturated,
	// and recover once the slot frees.
	if err := overloadProbe(); err != nil {
		return fmt.Errorf("overload probe: %w", err)
	}

	// 11. Planner probe: a solve asking for "auto" (what omitting the
	// strategy resolves to under the daemon's default -strategy auto) runs
	// through the planner and must echo the decision; an
	// explicit request for the planned strategy must hit the very cache entry
	// the planned solve populated (bit-identity); the catalog endpoint must
	// list every registered strategy; the decision and its prediction error
	// must land in /metrics; and a degraded planned solve must name the
	// planned strategy in degraded_from.
	var planned struct {
		Strategy        string `json:"strategy"`
		Rounds          int64  `json:"rounds"`
		Cached          bool   `json:"cached"`
		PlannedStrategy string `json:"planned_strategy"`
		PlannerReason   string `json:"planner_reason"`
		PredictedRounds int64  `json:"predicted_rounds"`
		PredictedWallNs int64  `json:"predicted_wall_ns"`
	}
	const plannerSeed = 4242
	autoBody := map[string]any{"strategy": "auto", "preset": "scaled", "seed": plannerSeed}
	if err := call(http.MethodPost, "/v1/graphs/"+putDeadline.ID+"/solve", autoBody, &planned); err != nil {
		return err
	}
	if planned.Cached {
		return fmt.Errorf("planned solve reported cached, want a fresh execution")
	}
	if planned.PlannedStrategy == "" || planned.PlannedStrategy != planned.Strategy {
		return fmt.Errorf("planned solve ran %q but echoed planned_strategy %q", planned.Strategy, planned.PlannedStrategy)
	}
	if planned.PlannerReason == "" || planned.PredictedRounds <= 0 || planned.PredictedWallNs <= 0 {
		return fmt.Errorf("planned solve missing decision telemetry: %+v", planned)
	}
	var explicit struct {
		Rounds int64 `json:"rounds"`
		Cached bool  `json:"cached"`
	}
	explicitBody := map[string]any{"strategy": planned.PlannedStrategy, "preset": "scaled", "seed": plannerSeed}
	if err := call(http.MethodPost, "/v1/graphs/"+putDeadline.ID+"/solve", explicitBody, &explicit); err != nil {
		return err
	}
	if !explicit.Cached || explicit.Rounds != planned.Rounds {
		return fmt.Errorf("explicit %s re-solve = %+v, want cached with rounds %d (planned solves share cache identity)",
			planned.PlannedStrategy, explicit, planned.Rounds)
	}
	var catalog struct {
		Strategies []struct {
			Name      string `json:"name"`
			Guarantee string `json:"guarantee"`
		} `json:"strategies"`
	}
	if err := call(http.MethodGet, "/v1/strategies", nil, &catalog); err != nil {
		return err
	}
	catalogNames := make(map[string]bool, len(catalog.Strategies))
	for _, ce := range catalog.Strategies {
		if ce.Guarantee == "" {
			return fmt.Errorf("catalog entry %q carries no guarantee", ce.Name)
		}
		catalogNames[ce.Name] = true
	}
	for _, name := range []string{"quantum", "classical-search", "dolev", "gossip", "approx-quantum", "approx-skeleton"} {
		if !catalogNames[name] {
			return fmt.Errorf("strategy catalog %v is missing %q", catalogNames, name)
		}
	}
	var planStats struct {
		Planner *struct {
			Decisions       int64            `json:"decisions"`
			Chosen          map[string]int64 `json:"chosen"`
			ObservedSolves  int64            `json:"observed_solves"`
			PredictedRounds int64            `json:"predicted_rounds"`
			ObservedRounds  int64            `json:"observed_rounds"`
			RoundsErrorAbs  int64            `json:"rounds_error_abs"`
		} `json:"planner"`
	}
	if err := call(http.MethodGet, "/v1/metrics", nil, &planStats); err != nil {
		return err
	}
	pm := planStats.Planner
	if pm == nil || pm.Decisions != 1 || pm.ObservedSolves != 1 {
		return fmt.Errorf("planner metrics %+v, want exactly 1 decision with 1 observed execution", pm)
	}
	if pm.Chosen[planned.PlannedStrategy] != 1 || pm.ObservedRounds != planned.Rounds || pm.PredictedRounds != planned.PredictedRounds {
		return fmt.Errorf("planner accounting %+v disagrees with the planned solve (strategy %s, rounds %d, predicted %d)",
			pm, planned.PlannedStrategy, planned.Rounds, planned.PredictedRounds)
	}
	var degradedAuto struct {
		Strategy        string `json:"strategy"`
		Degraded        bool   `json:"degraded"`
		DegradedFrom    string `json:"degraded_from"`
		PlannedStrategy string `json:"planned_strategy"`
	}
	degradedAutoBody := map[string]any{"strategy": "auto", "preset": "scaled", "seed": plannerSeed, "degrade": true, "faults": faultsBody}
	if err := call(http.MethodPost, "/v1/graphs/"+putDeadline.ID+"/solve", degradedAutoBody, &degradedAuto); err != nil {
		return err
	}
	if !degradedAuto.Degraded || degradedAuto.DegradedFrom == "" || degradedAuto.DegradedFrom != degradedAuto.PlannedStrategy {
		return fmt.Errorf("degraded planned solve = %+v, want degraded with degraded_from naming the planned strategy", degradedAuto)
	}
	return nil
}

// overloadProbe saturates a one-slot daemon over the wire and checks the
// shed / readiness contract end to end.
func overloadProbe() error {
	svc := serve.New(serve.Config{CacheSize: 4, MaxInflight: 1, QueueDepth: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: serve.NewHandler(svc)}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()
	base := "http://" + ln.Addr().String()
	client := &http.Client{Timeout: 60 * time.Second}

	// A graph big enough that an uncached exact solve occupies the single
	// execution slot for a while; each request's own timeout_ms bounds how
	// long, so the probe always terminates.
	const n = 32
	var arcs []map[string]any
	for i := 0; i < n; i++ {
		for _, off := range []int{1, 3, 5} {
			arcs = append(arcs, map[string]any{"u": i, "v": (i + off) % n, "w": 1 + (i*off)%9})
		}
	}
	body, err := json.Marshal(map[string]any{"n": n, "arcs": arcs})
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPut, base+"/v1/graphs", bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	var put struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&put)
	resp.Body.Close()
	if err != nil {
		return err
	}

	// solveReq fires one solve (fresh seed = guaranteed cache miss) and
	// reports the status, envelope code, and Retry-After header.
	solveReq := func(seed uint64, timeoutMS int64) (status int, code, retryAfter string, err error) {
		spec := map[string]any{"strategy": "quantum", "preset": "scaled", "seed": seed}
		if timeoutMS > 0 {
			spec["timeout_ms"] = timeoutMS
		}
		b, err := json.Marshal(spec)
		if err != nil {
			return 0, "", "", err
		}
		resp, err := client.Post(base+"/v1/graphs/"+put.ID+"/solve", "application/json", bytes.NewReader(b))
		if err != nil {
			return 0, "", "", err
		}
		defer resp.Body.Close()
		var e struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode, e.Error.Code, resp.Header.Get("Retry-After"), nil
	}

	gauges := func() (inflight, queuedNow int, shed, queued int64, err error) {
		resp, err := client.Get(base + "/v1/metrics")
		if err != nil {
			return 0, 0, 0, 0, err
		}
		defer resp.Body.Close()
		var m struct {
			Admission struct {
				Inflight  int   `json:"inflight"`
				QueuedNow int   `json:"queued_now"`
				Shed      int64 `json:"shed"`
				Queued    int64 `json:"queued"`
			} `json:"admission"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			return 0, 0, 0, 0, err
		}
		a := m.Admission
		return a.Inflight, a.QueuedNow, a.Shed, a.Queued, nil
	}
	waitGauge := func(what string, ok func(inflight, queuedNow int) bool) error {
		deadline := time.Now().Add(15 * time.Second)
		for {
			inflight, queuedNow, _, _, err := gauges()
			if err != nil {
				return err
			}
			if ok(inflight, queuedNow) {
				return nil
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("gave up waiting for %s (inflight=%d queued_now=%d)", what, inflight, queuedNow)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Occupy the slot, then the queue seat, confirming each over /metrics
	// before the next step so the sequence is race-free.
	var wg sync.WaitGroup
	launch := func(seed uint64) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, _, _ = solveReq(seed, 8000)
		}()
	}
	launch(9001)
	if err := waitGauge("the occupier to hold the slot", func(inflight, _ int) bool { return inflight >= 1 }); err != nil {
		return err
	}
	launch(9002)
	if err := waitGauge("the queue seat to fill", func(_, queuedNow int) bool { return queuedNow >= 1 }); err != nil {
		return err
	}

	// Saturated: readyz must advertise it...
	resp, err = client.Get(base + "/v1/readyz")
	if err != nil {
		return err
	}
	var rd struct {
		Ready  bool   `json:"ready"`
		Reason string `json:"reason"`
	}
	err = json.NewDecoder(resp.Body).Decode(&rd)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusServiceUnavailable || rd.Ready || rd.Reason != "queue-saturated" {
		return fmt.Errorf("saturated readyz answered %d %+v, want 503 queue-saturated", resp.StatusCode, rd)
	}
	// ...and the next solve must shed.
	status, code, retryAfter, err := solveReq(9003, 0)
	if err != nil {
		return err
	}
	if status != http.StatusServiceUnavailable || code != "overloaded" || retryAfter == "" {
		return fmt.Errorf("shed solve answered status=%d code=%q retry-after=%q, want 503 overloaded with a Retry-After", status, code, retryAfter)
	}

	// Recovery: once the occupier and the queued solve finish (their own
	// deadlines bound this), readiness returns.
	wg.Wait()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get(base + "/v1/readyz")
		if err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("readyz did not recover after the overload cleared (last status %d)", resp.StatusCode)
		}
		time.Sleep(20 * time.Millisecond)
	}
	_, _, shed, queuedTotal, err := gauges()
	if err != nil {
		return err
	}
	if shed < 1 || queuedTotal < 1 {
		return fmt.Errorf("admission counters shed=%d queued=%d, want both >= 1", shed, queuedTotal)
	}
	return nil
}

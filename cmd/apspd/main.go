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
// executing solves and -queue-depth bounds the FIFO wait queue behind
// them; excess requests, and queued ones whose deadline cannot cover
// their likely service time, answer 503 "overloaded" with a Retry-After.
// SIGINT/SIGTERM drain gracefully: readiness flips to 503, queued solves
// are shed, in-flight ones finish within -drain-timeout.
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
// 2+ε); their responses carry the guaranteed and observed stretch. They
// also accept "timeout_ms", a solve deadline, and "degrade": true, which
// answers from a cheaper approximate strategy when the requested one
// overruns its share of that deadline. The solve and paths:batch bodies
// take no other key: an unknown one answers 400 "invalid_spec".
// Distances use null for unreachable pairs; graphs a strategy cannot
// answer (negative cycles, distances that saturate at −∞ without one, or
// negative, asymmetric or too large weights under an approximate
// strategy) solve to 422, so no served distance is −∞.
//
// Identical graphs hash to the same id, so a re-upload plus re-solve of an
// unchanged graph performs zero simulator rounds. -pprof-addr (off by
// default) serves the net/http/pprof diagnostics on a separate listener,
// kept away from the API surface.
//
// The HTTP API itself is tested in-process in internal/serve. This
// package's tests cover what needs the real process: the SIGTERM drain,
// the flag wiring and the pprof listener; examples/service runs the built
// binary against the library.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	netpprof "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"qclique/internal/serve"
)

func main() {
	cfg, addr, pprofAddr, drainTimeout, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		os.Exit(2)
	}

	svc := serve.New(cfg)
	if pprofAddr != "" {
		// Diagnostics stay off the API listener: the profiling surface is
		// opt-in, binds its own (typically loopback-only) address, and is
		// not part of the graceful drain — it dies with the process.
		pln, err := net.Listen("tcp", pprofAddr)
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
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("apspd listening on %s (cache=%d graphs=%d max-inflight=%d queue-depth=%d)",
		ln.Addr(), cfg.CacheSize, cfg.MaxGraphs, cfg.MaxInflight, cfg.QueueDepth)
	srv := &http.Server{
		Handler:           serve.NewHandler(svc),
		ReadHeaderTimeout: 10 * time.Second,
	}
	if err := serveAndDrain(svc, srv, ln, drainTimeout); err != nil {
		log.Fatal(err)
	}
	log.Printf("apspd drained cleanly")
}

// parseFlags parses the daemon's command line into the service
// configuration, the API and pprof listen addresses and the drain
// deadline. Like a flag.ContinueOnError set, it reports a bad argument,
// with the usage, on standard error before returning it; -h returns
// flag.ErrHelp.
func parseFlags(args []string) (cfg serve.Config, addr, pprofAddr string, drainTimeout time.Duration, err error) {
	fs := flag.NewFlagSet("apspd", flag.ContinueOnError)
	fs.StringVar(&addr, "addr", ":8719", "listen address")
	fs.IntVar(&cfg.CacheSize, "cache-size", 64, "solve results retained (LRU)")
	fs.IntVar(&cfg.MaxGraphs, "max-graphs", 1024, "graphs retained in the store (LRU)")
	fs.IntVar(&cfg.Workers, "workers", 0, "host-parallelism bound (0 = GOMAXPROCS)")
	fs.IntVar(&cfg.MaxInflight, "max-inflight", runtime.GOMAXPROCS(0), "concurrently executing solves (0 = unbounded)")
	fs.IntVar(&cfg.QueueDepth, "queue-depth", 64, "admission wait queue behind a saturated -max-inflight")
	fs.DurationVar(&drainTimeout, "drain-timeout", 30*time.Second, "graceful-drain deadline after SIGINT/SIGTERM")
	strategy := fs.String("strategy", "auto", `default strategy for requests that name none ("auto" = planner-chosen; any registered name or alias)`)
	fs.StringVar(&pprofAddr, "pprof-addr", "", "serve net/http/pprof diagnostics on this separate listen address (empty = disabled)")
	if err = fs.Parse(args); err != nil {
		return
	}
	if cfg.DefaultStrategy, err = serve.ParseStrategy(*strategy); err != nil {
		err = fmt.Errorf("invalid value %q for flag -strategy: %w", *strategy, err)
		fmt.Fprintln(fs.Output(), err)
		fs.Usage()
	}
	return
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

//go:build unix

package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"qclique/internal/serve"
)

// TestSelftest checks what needs the daemon's own process rather than an
// httptest server: the graceful drain a real SIGTERM starts in
// serveAndDrain, the error that drain returns when it overruns its
// deadline (the daemon's nonzero exit), and the pprof surface that stays
// off the API handler. The HTTP API itself is tested in internal/serve.
func TestSelftest(t *testing.T) {
	t.Run("drain", func(t *testing.T) {
		before := runtime.NumGoroutine()
		svc := serve.New(serve.Config{})
		conn, rest, done := sigtermWithHeldUpload(t, svc, 30*time.Second)

		waitFor(t, "readiness to report draining", func() bool { return svc.Readiness().Reason == "draining" })
		select {
		case err := <-done:
			t.Fatalf("serveAndDrain returned %v while a request was still in flight", err)
		case <-time.After(100 * time.Millisecond):
		}
		if _, err := conn.Write(rest); err != nil {
			t.Fatal(err)
		}
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("held upload answered %d, want 200", resp.StatusCode)
		}
		if err := awaitDrain(t, done); err != nil {
			t.Fatalf("serveAndDrain = %v, want nil", err)
		}
		conn.Close()
		waitFor(t, fmt.Sprintf("goroutines to return to within 2 of %d", before), func() bool {
			return runtime.NumGoroutine() <= before+2
		})
	})

	t.Run("drain-overrun", func(t *testing.T) {
		_, _, done := sigtermWithHeldUpload(t, serve.New(serve.Config{}), 200*time.Millisecond)
		err := awaitDrain(t, done)
		if err == nil || !strings.Contains(err.Error(), "drain exceeded") || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("serveAndDrain = %v, want the drain-exceeded error", err)
		}
	})

	t.Run("pprof", func(t *testing.T) {
		rec := httptest.NewRecorder()
		pprofMux().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/cmdline", nil))
		if rec.Code != http.StatusOK {
			t.Errorf("pprof mux /debug/pprof/cmdline = %d, want 200", rec.Code)
		}
		rec = httptest.NewRecorder()
		serve.NewHandler(serve.New(serve.Config{})).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
		if rec.Code != http.StatusNotFound {
			t.Errorf("API handler /debug/pprof/ = %d, want 404 (pprof stays off the API port)", rec.Code)
		}
	})
}

// sigtermWithHeldUpload runs serveAndDrain for svc on a loopback port,
// holds a PUT /v1/graphs in flight with only half of its body sent, and
// then sends the test process a real SIGTERM. It returns the held
// connection, the unsent rest of the body and the channel that receives
// serveAndDrain's result.
func sigtermWithHeldUpload(t *testing.T, svc *serve.Service, drainTimeout time.Duration) (net.Conn, []byte, <-chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	api := serve.NewHandler(svc)
	uploading := make(chan struct{})
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPut {
			close(uploading)
		}
		api.ServeHTTP(w, r)
	})}
	t.Cleanup(func() { srv.Close() })
	done := make(chan error, 1)
	go func() { done <- serveAndDrain(svc, srv, ln, drainTimeout) }()

	// serveAndDrain registers its signal handler before it serves, so once
	// readyz answers, the SIGTERM below starts the drain instead of killing
	// the test binary.
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 5 * time.Second}
	waitFor(t, "/v1/readyz to answer 200", func() bool {
		resp, err := client.Get("http://" + ln.Addr().String() + "/v1/readyz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := conn.SetDeadline(time.Now().Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	body := `{"n":4,"arcs":[{"u":0,"v":1,"w":3},{"u":1,"v":2,"w":5}]}`
	half := len(body) / 2
	if _, err := fmt.Fprintf(conn, "PUT /v1/graphs HTTP/1.1\r\nHost: apspd\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		len(body), body[:half]); err != nil {
		t.Fatal(err)
	}
	select {
	case <-uploading:
	case <-time.After(10 * time.Second):
		t.Fatal("the upload never reached the handler")
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	return conn, []byte(body[half:]), done
}

// awaitDrain returns serveAndDrain's result, failing the test if it does
// not arrive in time.
func awaitDrain(t *testing.T, done <-chan error) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		t.Fatal("serveAndDrain did not return")
		return nil
	}
}

// waitFor polls ok until it holds, failing the test after ten seconds.
func waitFor(t *testing.T, what string, ok func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !ok(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("gave up waiting for %s", what)
		}
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"qclique/benchmark/report"
)

// daemon is one apspd process under test.
type daemon struct {
	cmd    *exec.Cmd
	base   string // API root, http://127.0.0.1:port
	pprof  string // pprof root, or "" when not traced
	exited chan struct{}
	client *http.Client // for set-up and metrics, not for the load
}

// startDaemon execs apspd with its default flags on free loopback ports
// and waits until /v1/readyz answers 200. apspd logs the -addr flag rather
// than the port it bound, so the ports are picked here.
func startDaemon(bin string, withPprof bool) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	args := []string{"-addr", "127.0.0.1:" + port}
	d := &daemon{base: "http://127.0.0.1:" + port, exited: make(chan struct{}), client: &http.Client{Timeout: 60 * time.Second}}
	if withPprof {
		pport, err := freePort()
		if err != nil {
			return nil, err
		}
		args = append(args, "-pprof-addr", "127.0.0.1:"+pport)
		d.pprof = "http://127.0.0.1:" + pport
	}
	// The daemon runs niced so that, on a host where it can occupy every
	// core, the load generator still sends on time instead of waiting out a
	// scheduler time slice.
	if nice, err := exec.LookPath("nice"); err == nil {
		args = append([]string{"-n", "10", bin}, args...)
		bin = nice
	}
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stdout, d.cmd.Stderr = io.Discard, os.Stderr
	d.cmd.SysProcAttr = diesWithParent()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		_ = d.cmd.Wait()
		close(d.exited)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := d.client.Get(d.base + "/v1/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("apspd exited before it was ready")
		default:
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("apspd not ready after 30s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM and waits for it to exit, killing it
// if the drain takes too long. It returns the CPU seconds the daemon used
// over its life.
func (d *daemon) stop() float64 {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	return cpuSeconds(d.cmd.ProcessState)
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// do sends one request and returns the status and the whole body.
func (d *daemon) do(method, path string, body []byte) (int, []byte, error) {
	return roundTrip(d.client, method, d.base+path, body, nil)
}

// roundTrip sends one request and reads the body into buf (reused when
// non-nil).
func roundTrip(c *http.Client, method, url string, body []byte, buf *bytes.Buffer) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if buf == nil {
		buf = &bytes.Buffer{}
	}
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, buf.Bytes(), nil
}

// serveCounters are the /v1/metrics counters the benchmark reads.
type serveCounters struct {
	Admission struct {
		Queued      int64 `json:"queued"`
		QueueWaitNs int64 `json:"queue_wait_ns"`
		Shed        int64 `json:"shed"`
	} `json:"admission"`
	Strategies map[string]struct {
		Requests    int64 `json:"requests"`
		CacheHits   int64 `json:"cache_hits"`
		Deduped     int64 `json:"deduped"`
		Solves      int64 `json:"solves"`
		SolveWallNs int64 `json:"solve_wall_ns"`
	} `json:"strategies"`
}

// sample is a reading of the daemon taken at the edges of the load.
type sample struct {
	at       time.Time
	cpuNs    int64
	counters serveCounters
}

func (d *daemon) sample() (sample, error) {
	s := sample{at: time.Now()}
	var err error
	if s.cpuNs, err = report.CPUNs(d.pid()); err != nil {
		return s, err
	}
	status, body, err := d.do("GET", "/v1/metrics", nil)
	if err != nil {
		return s, err
	}
	if status != http.StatusOK {
		return s, fmt.Errorf("GET /v1/metrics: status %d", status)
	}
	if err := json.Unmarshal(body, &s.counters); err != nil {
		return s, fmt.Errorf("GET /v1/metrics: %w", err)
	}
	return s, nil
}

// setDaemonMetrics sets the metrics read from the daemon between two
// samples: its CPU time per operation and use of the cores, and the deltas
// of its counters over ops operations.
func setDaemonMetrics(oc *outcome, before, after sample, ops int) {
	cpu := float64(after.cpuNs-before.cpuNs) / 1e9
	wall := after.at.Sub(before.at).Seconds()
	oc.metrics["op_cpu_ms"] = cpu * 1e3 / float64(ops)
	oc.metrics["proc.cpu_util"] = cpu / wall / float64(runtime.NumCPU())
	var req, useful, solves, solveWall int64
	for name, a := range after.counters.Strategies {
		b := before.counters.Strategies[name]
		req += a.Requests - b.Requests
		useful += a.CacheHits + a.Deduped - b.CacheHits - b.Deduped
		solves += a.Solves - b.Solves
		solveWall += a.SolveWallNs - b.SolveWallNs
	}
	ad, bd := after.counters.Admission, before.counters.Admission
	oc.metrics["serve.hit_ratio"] = ratio(float64(useful), float64(req))
	oc.diag["serve.solve_wall_ms"] = ratio(float64(solveWall)/1e6, float64(solves))
	oc.diag["serve.queue_wait_ms"] = ratio(float64(ad.QueueWaitNs-bd.QueueWaitNs)/1e6, float64(solves))
	oc.metrics["serve.queued_frac"] = ratio(float64(ad.Queued-bd.Queued), float64(solves))
	oc.metrics["serve.shed"] = float64(ad.Shed - bd.Shed)
	oc.diag["daemon.cpu_cores"] = cpu / wall
	oc.diag["daemon.solves"] = float64(solves)
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return strconv.Itoa(ln.Addr().(*net.TCPAddr).Port), nil
}

// diesWithParent makes a child process get SIGKILL if the benchmark dies
// first, so no worker outlives a killed run.
func diesWithParent() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

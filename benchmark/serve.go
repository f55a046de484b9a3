package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"syscall"
	"time"

	"qclique/benchmark/inputs"
	"qclique/benchmark/report"
)

const (
	// serveN is the vertex count of every graph the serve workloads upload;
	// one encoded graph is about 600 KB.
	serveN = 256

	// serve-read: cache-hit reads of a warm set smaller than apspd's
	// default cache of 64 results, arriving at readRate over readConns
	// keep-alive connections.
	readGraphs   = 8
	readRate     = 1000.0
	readConns    = 2
	batchQueries = 16

	// serve-write: upload-solve-read sessions of fresh graphs, arriving at
	// writeRate.
	writeRate = 4.0
)

// readMix is the serve-read request mix.
var readMix = []struct {
	kind   string
	weight float64
}{
	{"dist-pair", 0.40},
	{"dist-row", 0.25},
	{"paths-batch", 0.20},
	{"solve", 0.10},
	{"dist-full", 0.05},
}

// arrivals returns the arrival offsets of rate·length independent users
// over length: sorted uniform draws, which is a Poisson process at that rate
// conditioned on its count. Fixing the count keeps the work of a run the
// same at every seed.
func arrivals(rng *rand.Rand, rate float64, length time.Duration) []time.Duration {
	at := make([]time.Duration, int(rate*length.Seconds()))
	for i := range at {
		at[i] = time.Duration(rng.Float64() * float64(length))
	}
	slices.Sort(at)
	return at
}

// dispatch calls send(i, due) for each offset in order at start+at[i], as
// close as the generator manages, and returns how late each call was.
func dispatch(start time.Time, at []time.Duration, send func(i int, due time.Time)) []time.Duration {
	late := make([]time.Duration, len(at))
	for i, a := range at {
		due := start.Add(a)
		sleepUntil(due)
		late[i] = time.Since(due)
		send(i, due)
	}
	return late
}

// sleepUntil returns at due, usually within a tenth of a millisecond. The
// runtime's timers wake up to a millisecond late on an idle process, as
// they wait in epoll with millisecond timeouts, so the last two
// milliseconds are slept in nanosleep, whose P the runtime hands to the
// other goroutines.
func sleepUntil(due time.Time) {
	if d := time.Until(due) - 2*time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for d := time.Until(due); d > 0; d = time.Until(due) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR just means sleep again
	}
}

// profiler captures the daemon's CPU profile over the second and fourth
// quarter of the load, and its CPU time in every quarter, so the first and
// third give the untraced CPU time per operation to compare with.
type profiler struct {
	block time.Duration
	raw   [][]byte // decoded only after the load, off the generator's clock
	cpuNs [5]int64 // the daemon's CPU time at each quarter's start and at the end
	errs  [2]error
	done  chan struct{}
}

// startProfiler fetches /debug/pprof/profile for the 2nd and 4th quarter of
// a load of the given length starting at start.
func startProfiler(d *daemon, start time.Time, length time.Duration) *profiler {
	p := &profiler{block: max(length/4, time.Second).Truncate(time.Second), done: make(chan struct{})}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for _, q := range []int{1, 3} {
			time.Sleep(time.Until(start.Add(time.Duration(q) * p.block)))
			url := fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", d.pprof, int(p.block.Seconds()))
			status, body, err := roundTrip(d.client, "GET", url, nil, nil)
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("GET %s: status %d", url, status)
			}
			if err != nil {
				p.errs[0] = err
				return
			}
			p.raw = append(p.raw, body)
		}
	}()
	go func() {
		defer wg.Done()
		for q := range p.cpuNs {
			time.Sleep(time.Until(start.Add(time.Duration(q) * p.block)))
			if p.cpuNs[q], p.errs[1] = report.CPUNs(d.pid()); p.errs[1] != nil {
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(p.done)
	}()
	return p
}

// finish waits for the profiles and sets the layer shares and the CPU
// overhead of profiling, given each operation's offset in the load.
func (p *profiler) finish(oc *outcome, offsets []time.Duration) error {
	<-p.done
	if err := errors.Join(p.errs[:]...); err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	var profiles []*cpuProfile
	for _, raw := range p.raw {
		prof, err := decodeProfile(raw)
		if err != nil {
			return err
		}
		profiles = append(profiles, prof)
	}
	setShares(oc, attribute(profiles))
	var ops [4]float64
	for _, t := range offsets {
		if q := t / p.block; q < 4 {
			ops[q]++
		}
	}
	cpu := func(q int) float64 { return float64(p.cpuNs[q+1] - p.cpuNs[q]) }
	on := ratio(cpu(1)+cpu(3), ops[1]+ops[3])
	off := ratio(cpu(0)+cpu(2), ops[0]+ops[2])
	oc.metrics["trace.overhead_frac"] = ratio(on, off) - 1
	return nil
}

// setupDaemon sets the daemon up setupReps times, each in a fresh process
// that runs fn and is then stopped, and returns the median CPU seconds a
// set-up cost. It then sets up the daemon the load runs against, with its
// pprof listener when traced.
func setupDaemon(bin string, trace bool, fn func(*daemon) error) (*daemon, float64, error) {
	start := func(withPprof bool) (*daemon, error) {
		d, err := startDaemon(bin, withPprof)
		if err != nil {
			return nil, err
		}
		if err := fn(d); err != nil {
			d.stop()
			return nil, err
		}
		return d, nil
	}
	cpus := make([]float64, setupReps)
	for i := range cpus {
		d, err := start(false)
		if err != nil {
			return nil, 0, err
		}
		cpus[i] = d.stop()
	}
	d, err := start(trace)
	return d, median(cpus), err
}

// readJob is one serve-read request.
type readJob struct {
	kind     string
	g        int
	src, dst int
	body     []byte // paths:batch queries
}

// runServeRead drives cache-hit reads against a warm set.
func runServeRead(cfg *config) (*outcome, error) {
	bin, err := build(cfg, "apspd")
	if err != nil {
		return nil, err
	}
	graphs := make([]inputs.Graph, readGraphs)
	bodies := make([][]byte, readGraphs)
	refs := make([][]int64, readGraphs)
	weights := make([][]int64, readGraphs)
	for i := range graphs {
		graphs[i] = inputs.E1Digraph(serveN, inputs.RNG(inputs.Derive(cfg.seed, "serve-read/graph", i)))
		bodies[i] = graphs[i].JSON()
		refs[i] = inputs.FloydWarshall(graphs[i])
		weights[i] = graphs[i].Weights()
	}
	rng := inputs.RNG(inputs.Derive(cfg.seed, "serve-read/schedule", 0))
	at := arrivals(rng, readRate, cfg.length)
	kinds := readKinds(rng, len(at))
	jobs := make([]readJob, len(at))
	for i := range jobs {
		j := &jobs[i]
		j.kind = kinds[i]
		j.g = rng.IntN(readGraphs)
		j.src = rng.IntN(serveN)
		j.dst = (j.src + 1 + rng.IntN(serveN-1)) % serveN
		if j.kind == "paths-batch" {
			j.body = batchBody(rng)
		}
	}

	var ids []string
	d, setup, err := setupDaemon(bin, cfg.trace, func(d *daemon) (err error) {
		ids, err = loadWarmSet(d, bodies)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer d.stop()

	// Each connection worker keeps every distinct body per answer key; each
	// is checked once, after the clock has stopped.
	type variant struct {
		body []byte
		job  int // the first job that got it
		err  error
	}
	type result struct {
		due     time.Time
		status  int
		err     error
		latency time.Duration
		body    *variant
	}
	type queued struct {
		i   int
		due time.Time
	}
	results := make([]result, len(jobs))
	var variants []*variant // written by both workers, read after they end
	var variantsMu sync.Mutex
	queue := make(chan queued, len(jobs))
	var wg sync.WaitGroup
	for w := 0; w < readConns; w++ {
		client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
		defer client.CloseIdleConnections()
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen := map[string][]*variant{}
			var buf bytes.Buffer
			for q := range queue {
				j := &jobs[q.i]
				method, path, body := readRequest(j, ids)
				status, resp, err := roundTrip(client, method, d.base+path, body, &buf)
				r := result{due: q.due, status: status, err: err, latency: time.Since(q.due)}
				if err == nil && status == http.StatusOK {
					key := j.key()
					for _, v := range seen[key] {
						if bytes.Equal(v.body, resp) {
							r.body = v
						}
					}
					if r.body == nil {
						r.body = &variant{body: bytes.Clone(resp), job: q.i}
						seen[key] = append(seen[key], r.body)
						variantsMu.Lock()
						variants = append(variants, r.body)
						variantsMu.Unlock()
					}
				}
				results[q.i] = r
			}
		}()
	}

	before, err := d.sample()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	var prof *profiler
	if cfg.trace {
		prof = startProfiler(d, start, cfg.length)
	}
	late := dispatch(start, at, func(i int, due time.Time) { queue <- queued{i, due} })
	close(queue)
	wg.Wait()
	after, err := d.sample()
	if err != nil {
		return nil, err
	}
	hwm, err := report.VmHWMKB(strconv.Itoa(d.pid()))
	if err != nil {
		return nil, err
	}

	oc := newOutcome()
	// A cache hit reports the stages of the solve that filled the cache, in
	// this daemon's set-up.
	var squares []float64
	for _, v := range variants {
		var sol solveResponse
		v.err = verifyRead(&jobs[v.job], v.body, ids, refs, weights, &sol)
		squares = append(squares, squareMs(sol.Stages)...)
	}
	latMs := make([]float64, len(jobs))
	for i, r := range results {
		err := r.err
		if err == nil && r.status != http.StatusOK {
			err = fmt.Errorf("%s: status %d", jobs[i].kind, r.status)
		}
		if err == nil {
			err = r.body.err
		}
		oc.check(err)
		latMs[i] = float64(r.latency) / 1e6
		cfg.spans.add(0, "http."+jobs[i].kind, r.due, r.due.Add(r.latency), map[string]any{"graph": jobs[i].g})
	}
	setLatency(oc, latMs)
	oc.metrics["setup_s"] = setup
	oc.metrics["peak_rss_mb"] = float64(hwm) / 1024
	setLoadgenLate(oc, late)
	setDaemonMetrics(oc, before, after, len(jobs))
	oc.metrics["engine.square_ms"] = median(squares)
	// Every solve was done in set-up; the load only reads cached results.
	notExercised(oc, "engine.stage_cover_frac", "congest.rounds_per_solve",
		"congest.words_per_solve", "distprod.findedges_per_solve")
	if prof != nil {
		if err := prof.finish(oc, at); err != nil {
			return nil, err
		}
	}
	return oc, nil
}

// readKinds returns the kinds of n serve-read requests: each kind's share
// of readMix, exact up to rounding, in seeded order, so that every seed asks
// for the same work.
func readKinds(rng *rand.Rand, n int) []string {
	kinds := make([]string, 0, n+len(readMix))
	for _, m := range readMix {
		for range int(math.Round(m.weight * float64(n))) {
			kinds = append(kinds, m.kind)
		}
	}
	for len(kinds) < n {
		kinds = append(kinds, readMix[0].kind)
	}
	kinds = kinds[:n]
	rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	return kinds
}

func batchBody(rng *rand.Rand) []byte {
	b := []byte(`{"queries":[`)
	for q := 0; q < batchQueries; q++ {
		if q > 0 {
			b = append(b, ',')
		}
		src := rng.IntN(serveN)
		dst := (src + 1 + rng.IntN(serveN-1)) % serveN
		b = fmt.Appendf(b, `{"src":%d,"dst":%d}`, src, dst)
	}
	return append(b, "]}"...)
}

// key identifies the answer a job expects: equal keys, equal answers.
func (j *readJob) key() string {
	switch j.kind {
	case "dist-pair":
		return fmt.Sprintf("pair/%d/%d/%d", j.g, j.src, j.dst)
	case "dist-row":
		return fmt.Sprintf("row/%d/%d", j.g, j.src)
	case "paths-batch":
		return fmt.Sprintf("batch/%d/%s", j.g, j.body)
	default:
		return fmt.Sprintf("%s/%d", j.kind, j.g)
	}
}

func readRequest(j *readJob, ids []string) (method, path string, body []byte) {
	g := "/v1/graphs/" + ids[j.g]
	switch j.kind {
	case "dist-pair":
		return "GET", g + "/dist?src=" + strconv.Itoa(j.src) + "&dst=" + strconv.Itoa(j.dst), nil
	case "dist-row":
		return "GET", g + "/dist?src=" + strconv.Itoa(j.src), nil
	case "paths-batch":
		return "POST", g + "/paths:batch", j.body
	case "solve":
		return "POST", g + "/solve", []byte("{}")
	default:
		return "GET", g + "/dist", nil
	}
}

// loadWarmSet uploads and solves the serve-read graphs.
func loadWarmSet(d *daemon, bodies [][]byte) ([]string, error) {
	ids := make([]string, len(bodies))
	for i, b := range bodies {
		id, err := putGraph(d.client, d.base, b)
		if err != nil {
			return nil, err
		}
		ids[i] = id
	}
	for _, id := range ids {
		status, body, err := d.do("POST", "/v1/graphs/"+id+"/solve", []byte("{}"))
		if err != nil {
			return nil, err
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("warm-set solve: status %d: %s", status, body)
		}
	}
	return ids, nil
}

func putGraph(c *http.Client, base string, body []byte) (string, error) {
	status, resp, err := roundTrip(c, "PUT", base+"/v1/graphs", body, nil)
	if err != nil {
		return "", err
	}
	if status != http.StatusOK {
		return "", fmt.Errorf("PUT /v1/graphs: status %d", status)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(resp, &out); err != nil || out.ID == "" {
		return "", fmt.Errorf("PUT /v1/graphs: no id in %.100q", resp)
	}
	return out.ID, nil
}

// verifyRead checks one response body against the reference distances,
// decoding a solve response into sol.
func verifyRead(j *readJob, body []byte, ids []string, refs, weights [][]int64, sol *solveResponse) error {
	ref := refs[j.g]
	switch j.kind {
	case "dist-pair":
		var out struct {
			Dist *int64 `json:"dist"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			return fmt.Errorf("dist pair: %w", err)
		}
		return checkDist("dist pair", j.src, j.dst, out.Dist, ref[j.src*serveN+j.dst])
	case "dist-row":
		var out struct {
			Dist []*int64 `json:"dist"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			return fmt.Errorf("dist row: %w", err)
		}
		return checkRow("dist row", j.src, out.Dist, ref[j.src*serveN:(j.src+1)*serveN])
	case "dist-full":
		var out struct {
			Dist [][]*int64 `json:"dist"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			return fmt.Errorf("dist matrix: %w", err)
		}
		if len(out.Dist) != serveN {
			return fmt.Errorf("dist matrix: %d rows", len(out.Dist))
		}
		for i, row := range out.Dist {
			if err := checkRow("dist matrix", i, row, ref[i*serveN:(i+1)*serveN]); err != nil {
				return err
			}
		}
		return nil
	case "paths-batch":
		return verifyBatch(j, body, ref, weights[j.g])
	default:
		if err := json.Unmarshal(body, sol); err != nil {
			return fmt.Errorf("solve: %w", err)
		}
		if sol.ID != ids[j.g] {
			return fmt.Errorf("solve: id %q, want %q", sol.ID, ids[j.g])
		}
		return nil
	}
}

// verifyBatch checks every answer of a paths:batch response: the distance
// against the reference, and the path as a walk along existing arcs whose
// weights add up to it.
func verifyBatch(j *readJob, body []byte, ref, w []int64) error {
	var req struct {
		Queries []struct{ Src, Dst int } `json:"queries"`
	}
	if err := json.Unmarshal(j.body, &req); err != nil {
		return err
	}
	var out struct {
		Results []struct {
			Src  int    `json:"src"`
			Dst  int    `json:"dst"`
			Dist *int64 `json:"dist"`
			Path []int  `json:"path"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return fmt.Errorf("paths batch: %w", err)
	}
	if len(out.Results) != len(req.Queries) {
		return fmt.Errorf("paths batch: %d answers to %d queries", len(out.Results), len(req.Queries))
	}
	for i, q := range req.Queries {
		a := out.Results[i]
		if a.Src != q.Src || a.Dst != q.Dst {
			return fmt.Errorf("paths batch: answer %d is for %d→%d, asked %d→%d", i, a.Src, a.Dst, q.Src, q.Dst)
		}
		want := ref[q.Src*serveN+q.Dst]
		if err := checkDist("paths batch", q.Src, q.Dst, a.Dist, want); err != nil {
			return err
		}
		if want == inputs.Unreachable {
			continue
		}
		if len(a.Path) < 2 || a.Path[0] != q.Src || a.Path[len(a.Path)-1] != q.Dst {
			return fmt.Errorf("paths batch: path %v does not run %d→%d", a.Path, q.Src, q.Dst)
		}
		var sum int64
		for k := 1; k < len(a.Path); k++ {
			u, v := a.Path[k-1], a.Path[k]
			if u < 0 || u >= serveN || v < 0 || v >= serveN || u == v || w[u*serveN+v] == inputs.Unreachable {
				return fmt.Errorf("paths batch: path %v uses a missing arc %d→%d", a.Path, u, v)
			}
			sum += w[u*serveN+v]
		}
		if sum != want {
			return fmt.Errorf("paths batch: path %v weighs %d, distance is %d", a.Path, sum, want)
		}
	}
	return nil
}

func checkRow(what string, src int, got []*int64, want []int64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: row %d has %d entries, want %d", what, src, len(got), len(want))
	}
	for dst, d := range got {
		if err := checkDist(what, src, dst, d, want[dst]); err != nil {
			return err
		}
	}
	return nil
}

// checkDist compares one JSON distance (null for unreachable) with the
// reference.
func checkDist(what string, src, dst int, got *int64, want int64) error {
	switch {
	case got == nil && want == inputs.Unreachable:
		return nil
	case got == nil:
		return fmt.Errorf("%s: d(%d,%d) is null, want %d", what, src, dst, want)
	case *got != want:
		return fmt.Errorf("%s: d(%d,%d) = %d, want %d", what, src, dst, *got, want)
	}
	return nil
}

func setLoadgenLate(oc *outcome, late []time.Duration) {
	ms := make([]float64, len(late))
	for i, l := range late {
		ms[i] = float64(l) / 1e6
	}
	oc.metrics["loadgen.late_ms"] = percentile(ms, 0.99)
	oc.diag["loadgen.late_p50_ms"] = median(ms)
	oc.diag["loadgen.late_p99_ms"] = oc.metrics["loadgen.late_ms"]
}

// writeSession is one serve-write session's inputs and outcome.
type writeSession struct {
	body []byte // the graph, encoded
	src  int
	want []int64 // reference distances from src

	err                    error
	put, solve, row        time.Duration // request latencies
	start                  time.Time     // when the first request was sent
	solveBody, rowBody     []byte
	solveStatus, rowStatus int
	id                     string
}

// runServeWrite drives upload → solve → read sessions of fresh graphs.
func runServeWrite(cfg *config) (*outcome, error) {
	bin, err := build(cfg, "apspd")
	if err != nil {
		return nil, err
	}
	rng := inputs.RNG(inputs.Derive(cfg.seed, "serve-write/schedule", 0))
	at := arrivals(rng, writeRate, cfg.length)
	sessions := make([]writeSession, len(at))
	for i := range sessions {
		g := inputs.E1Digraph(serveN, inputs.RNG(inputs.Derive(cfg.seed, "serve-write/graph", i)))
		s := &sessions[i]
		s.body = g.JSON()
		s.src = rng.IntN(serveN)
		s.want = inputs.BellmanFord(g, s.src)
	}

	d, setup, err := setupDaemon(bin, cfg.trace, func(*daemon) error { return nil })
	if err != nil {
		return nil, err
	}
	defer d.stop()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64, DisableCompression: true}}
	defer client.CloseIdleConnections()

	before, err := d.sample()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	var prof *profiler
	if cfg.trace {
		prof = startProfiler(d, start, cfg.length)
	}
	dues := make([]time.Time, len(sessions))
	ends := make([]time.Time, len(sessions))
	var wg sync.WaitGroup
	late := dispatch(start, at, func(i int, due time.Time) {
		dues[i] = due
		wg.Add(1)
		go func() {
			defer wg.Done()
			runSession(client, d.base, &sessions[i])
			ends[i] = time.Now()
		}()
	})
	wg.Wait()
	after, err := d.sample()
	if err != nil {
		return nil, err
	}
	hwm, err := report.VmHWMKB(strconv.Itoa(d.pid()))
	if err != nil {
		return nil, err
	}

	oc := newOutcome()
	latMs := make([]float64, len(sessions))
	var solveMs, squares, rounds, words, findEdges []float64
	var stageWall, solveWall float64
	for i := range sessions {
		s := &sessions[i]
		sol, err := verifySession(s)
		oc.check(err)
		latMs[i] = float64(ends[i].Sub(dues[i])) / 1e6
		solveMs = append(solveMs, float64(s.solve)/1e6)
		op := cfg.spans.add(0, "serve-write.session", dues[i], ends[i], map[string]any{"graph": s.id})
		t := s.start
		for _, r := range []struct {
			name string
			d    time.Duration
		}{{"http.put-graph", s.put}, {"http.solve", s.solve}, {"http.dist-row", s.row}} {
			cfg.spans.add(op, r.name, t, t.Add(r.d), nil)
			t = t.Add(r.d)
		}
		if err != nil || sol.Cached {
			continue
		}
		rounds = append(rounds, float64(sol.Rounds))
		findEdges = append(findEdges, float64(sol.FindEdgesCalls))
		var w int64
		for _, st := range sol.Stages {
			w += st.Words
			stageWall += float64(st.WallNs)
		}
		squares = append(squares, squareMs(sol.Stages)...)
		words = append(words, float64(w))
		solveWall += float64(s.solve)
	}
	setLatency(oc, latMs)
	oc.diag["solve_p50_ms"] = median(solveMs)
	oc.metrics["setup_s"] = setup
	oc.metrics["peak_rss_mb"] = float64(hwm) / 1024
	setLoadgenLate(oc, late)
	setDaemonMetrics(oc, before, after, len(sessions))
	oc.metrics["engine.square_ms"] = median(squares)
	oc.metrics["engine.stage_cover_frac"] = ratio(stageWall, solveWall)
	oc.metrics["congest.rounds_per_solve"] = mean(rounds)
	oc.metrics["congest.words_per_solve"] = mean(words)
	oc.metrics["distprod.findedges_per_solve"] = mean(findEdges)
	if prof != nil {
		if err := prof.finish(oc, at); err != nil {
			return nil, err
		}
	}
	return oc, nil
}

// runSession sends one session's three requests back to back.
func runSession(c *http.Client, base string, s *writeSession) {
	s.start = time.Now()
	t := s.start
	lap := func() time.Duration {
		now := time.Now()
		d := now.Sub(t)
		t = now
		return d
	}
	s.id, s.err = putGraph(c, base, s.body)
	s.put = lap()
	s.body = nil // sent; no need to hold 600 KB per session any longer
	if s.err != nil {
		return
	}
	s.solveStatus, s.solveBody, s.err = roundTrip(c, "POST", base+"/v1/graphs/"+s.id+"/solve", []byte("{}"), nil)
	s.solve = lap()
	if s.err != nil {
		return
	}
	s.rowStatus, s.rowBody, s.err = roundTrip(c, "GET", base+"/v1/graphs/"+s.id+"/dist?src="+strconv.Itoa(s.src), nil, nil)
	s.row = lap()
}

// squareMs returns the wall times, in ms, of the stages that square the
// distance matrix.
func squareMs(stages []report.Stage) []float64 {
	var ms []float64
	for _, st := range stages {
		if st.Squares() {
			ms = append(ms, float64(st.WallNs)/1e6)
		}
	}
	return ms
}

// solveResponse is the part of a solve response the benchmark reads.
type solveResponse struct {
	ID             string         `json:"id"`
	Rounds         int64          `json:"rounds"`
	FindEdgesCalls int            `json:"find_edges_calls"`
	Cached         bool           `json:"cached"`
	Stages         []report.Stage `json:"stages"`
}

func verifySession(s *writeSession) (solveResponse, error) {
	var sol solveResponse
	switch {
	case s.err != nil:
		return sol, s.err
	case s.solveStatus != http.StatusOK:
		return sol, fmt.Errorf("solve: status %d", s.solveStatus)
	case s.rowStatus != http.StatusOK:
		return sol, fmt.Errorf("dist row: status %d", s.rowStatus)
	}
	if err := json.Unmarshal(s.solveBody, &sol); err != nil {
		return sol, fmt.Errorf("solve: %w", err)
	}
	if sol.ID != s.id {
		return sol, fmt.Errorf("solve: id %q, want %q", sol.ID, s.id)
	}
	var row struct {
		Dist []*int64 `json:"dist"`
	}
	if err := json.Unmarshal(s.rowBody, &row); err != nil {
		return sol, fmt.Errorf("dist row: %w", err)
	}
	return sol, checkRow("dist row", s.src, row.Dist, s.want)
}

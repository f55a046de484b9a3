package serve

// HTTP/JSON surface of the service, mounted by cmd/apspd and exercised
// in-process by the e2e smoke tests. Distances use JSON null for
// "unreachable" so clients never have to know the simulator's saturating
// Inf sentinel; −∞ entries (the negative-cycle region, where no shortest
// distance exists) additionally carry an explicit "undefined" marker —
// "no path" and "no answer" are different facts and the API keeps them
// distinguishable.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"qclique/internal/approx"
	"qclique/internal/core"
	"qclique/internal/engine"
	"qclique/internal/graph"
	"qclique/internal/matrix"
)

// ArcJSON is one weighted arc of an uploaded graph.
type ArcJSON struct {
	U int   `json:"u"`
	V int   `json:"v"`
	W int64 `json:"w"`
}

// GraphJSON is the PUT /v1/graphs request body.
//
// The handler reads it with decodeGraph, which parses the canonical shape by
// hand: an object whose only keys are "n" and "arcs", and an "arcs" array
// of objects whose only keys are "u", "v" and "w"; each key unescaped and
// at most once, in any order; every value an integer literal
// -?(0|[1-9][0-9]*), other than -0, that fits its field; JSON whitespace
// between tokens. json.Marshal of a GraphJSON, an encoded map with these
// keys and the benchmark's bodies all have that shape. Any other body falls
// back to encoding/json, so the accepted bodies, the decoded values and the
// error texts are exactly those of json.NewDecoder(body).Decode.
type GraphJSON struct {
	N    int       `json:"n"`
	Arcs []ArcJSON `json:"arcs"`
}

// maxUploadVertices bounds n on uploads: the dense adjacency is n² int64s,
// so an unbounded n would let one request allocate the daemon to death —
// and the simulator is far from solving graphs this large anyway.
const maxUploadVertices = 4096

// maxUploadBytes bounds request bodies at 512 MiB. A dense 4096² graph with
// every arc listed fits only with short weights: at about 27 B per arc it
// is 453 MB, at about 45 B per arc (19-digit weights) 755 MB.
const maxUploadBytes = 1 << 29

// maxPresize caps the buffer decodeGraph sizes from a claimed
// Content-Length: a client may claim 512 MiB and send nothing, so past the
// cap the buffer grows only with the bytes received.
const maxPresize = 1 << 20

// decodeGraph decodes a PUT /v1/graphs body as json.NewDecoder(r).Decode
// does, but reads r to its end or its first error first. size is the
// claimed Content-Length (≤ 0 when unknown). A body that opens with a
// canonical GraphJSON is parsed by hand; any other goes to encoding/json
// over the same bytes, followed by the same read error, so that error is
// returned only when the bytes before it hold neither a complete value nor
// a syntax error.
func decodeGraph(r io.Reader, size int64) (GraphJSON, error) {
	var buf bytes.Buffer
	// MinRead spare bytes let ReadFrom see EOF without growing the buffer.
	buf.Grow(int(min(max(size, 0), maxPresize)) + bytes.MinRead)
	_, readErr := buf.ReadFrom(r)
	if gj, ok := parseGraph(buf.Bytes()); ok {
		return gj, nil
	}
	var body io.Reader = &buf
	if readErr != nil {
		body = io.MultiReader(&buf, errReader{readErr})
	}
	var gj GraphJSON
	err := json.NewDecoder(body).Decode(&gj)
	return gj, err
}

// errReader replays decodeGraph's read error to encoding/json.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// parseGraph parses the canonical GraphJSON at the start of b and ignores
// the bytes after its closing brace, as json.Decoder does. It reports false
// for any other input.
func parseGraph(b []byte) (GraphJSON, bool) {
	var gj GraphJSON
	p := upload{b: b}
	if !p.next('{') {
		return GraphJSON{}, false
	}
	if p.next('}') {
		return gj, true
	}
	var seen uint8 // one bit per key, to refuse duplicates
	for {
		var bit uint8
		var ok bool
		switch string(p.key()) {
		case "n":
			bit = 1
			gj.N, ok = p.int()
		case "arcs":
			bit = 2
			gj.Arcs, ok = p.arcs()
		}
		if !ok || seen&bit != 0 {
			return GraphJSON{}, false
		}
		seen |= bit
		if !p.next(',') {
			return gj, p.next('}')
		}
	}
}

// upload is parseGraph's cursor over a body.
type upload struct {
	b []byte
	i int
}

// next skips JSON whitespace and consumes c if it comes next.
func (p *upload) next(c byte) bool {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case c:
			p.i++
			return true
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return false
		}
	}
	return false
}

// key consumes `"name":` and returns name, or nil if the next tokens are
// not a string and a colon. An escaped name keeps its backslash, so it
// matches no canonical key.
func (p *upload) key() []byte {
	if !p.next('"') {
		return nil
	}
	start := p.i
	for p.i < len(p.b) && p.b[p.i] != '"' {
		p.i++
	}
	if p.i == len(p.b) {
		return nil
	}
	name := p.b[start:p.i]
	p.i++
	if !p.next(':') {
		return nil
	}
	return name
}

// arcs consumes an array of canonical arc objects.
func (p *upload) arcs() ([]ArcJSON, bool) {
	if !p.next('[') {
		return nil, false
	}
	if p.next(']') {
		return []ArcJSON{}, true // as encoding/json decodes [], empty but not nil
	}
	// Room for the arcs that the rest of the body, up to maxPresize bytes
	// of it, holds at 20 bytes each ({"u":0,"v":1,"w":2},); append grows
	// past that.
	arcs := make([]ArcJSON, 0, min(len(p.b)-p.i, maxPresize)/20)
	for {
		a, ok := p.arc()
		if !ok {
			return nil, false
		}
		arcs = append(arcs, a)
		if !p.next(',') {
			return arcs, p.next(']')
		}
	}
}

// arc consumes one canonical arc object.
func (p *upload) arc() (ArcJSON, bool) {
	var a ArcJSON
	if !p.next('{') {
		return a, false
	}
	if p.next('}') {
		return a, true
	}
	var seen uint8
	for {
		var bit uint8
		var ok bool
		switch string(p.key()) {
		case "u":
			bit = 1
			a.U, ok = p.int()
		case "v":
			bit = 2
			a.V, ok = p.int()
		case "w":
			bit = 4
			a.W, ok = p.int64()
		}
		if !ok || seen&bit != 0 {
			return a, false
		}
		seen |= bit
		if !p.next(',') {
			return a, p.next('}')
		}
	}
}

// int consumes an integer literal that fits an int.
func (p *upload) int() (int, bool) {
	v, ok := p.int64()
	return int(v), ok && int64(int(v)) == v
}

// int64 consumes an integer literal -?(0|[1-9][0-9]*) that fits an int64,
// other than -0.
func (p *upload) int64() (int64, bool) {
	neg := p.next('-')
	b, i := p.b, p.i
	start := i
	var u uint64
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		if i-start == 19 {
			return 0, false // 20 digits overflow an int64
		}
		u = u*10 + uint64(b[i]-'0')
	}
	if i == start || b[start] == '0' && (i > start+1 || neg) {
		return 0, false // no digits, a leading zero, or -0
	}
	if neg && u > 1<<63 || !neg && u > math.MaxInt64 {
		return 0, false
	}
	p.i = i
	if neg {
		return int64(-u), true // wraps to the two's complement, MinInt64 included
	}
	return int64(u), true
}

// Digraph materializes the uploaded graph.
func (gj GraphJSON) Digraph() (*graph.Digraph, error) {
	if gj.N < 0 {
		return nil, fmt.Errorf("serve: negative vertex count %d", gj.N)
	}
	if gj.N > maxUploadVertices {
		return nil, fmt.Errorf("serve: vertex count %d exceeds limit %d", gj.N, maxUploadVertices)
	}
	g := graph.NewDigraph(gj.N)
	for _, a := range gj.Arcs {
		if err := g.SetArc(a.U, a.V, a.W); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// solveParamsJSON selects a pipeline in solve-bearing request bodies.
// TimeoutMS, when positive, is the request's solve deadline: the pipeline
// checkpoints between stages and inside its inner loops, and a deadline
// that expires answers 503 with the partial per-stage telemetry.
type solveParamsJSON struct {
	Strategy  string  `json:"strategy,omitempty"`
	Preset    string  `json:"preset,omitempty"`
	Seed      uint64  `json:"seed,omitempty"`
	Epsilon   float64 `json:"epsilon,omitempty"`
	TimeoutMS int64   `json:"timeout_ms,omitempty"`
	// Degrade opts the request into the graceful-degradation ladder: under
	// deadline pressure the response is a degraded approximate result
	// instead of a 503.
	Degrade bool `json:"degrade,omitempty"`
}

// decodeSolveBody decodes a solve-bearing request body (solve, paths:batch)
// into v and refuses keys the API does not define, so a misspelled or
// removed key answers 400 instead of being ignored.
func decodeSolveBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxUploadBytes))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// solveCtx derives the request's solve context: the HTTP request context
// (cancelled on client disconnect) bounded by the optional timeout.
func (p solveParamsJSON) solveCtx(r *http.Request) (context.Context, context.CancelFunc) {
	ctx := r.Context()
	if p.TimeoutMS > 0 {
		return context.WithTimeout(ctx, time.Duration(p.TimeoutMS)*time.Millisecond)
	}
	return ctx, func() {}
}

// maxTimeoutMS is the largest timeout_ms whose time.Duration does not
// overflow int64; a larger one would wrap negative and expire before the
// solve starts.
const maxTimeoutMS = math.MaxInt64 / int64(time.Millisecond)

func (p solveParamsJSON) spec() (SolveSpec, error) {
	if p.TimeoutMS < 0 || p.TimeoutMS > maxTimeoutMS {
		return SolveSpec{}, fmt.Errorf("serve: timeout_ms %d outside [0, %d]", p.TimeoutMS, maxTimeoutMS)
	}
	// An omitted strategy stays empty so Config.DefaultStrategy applies
	// (the daemon may default to the planner); only an explicit name is
	// parsed.
	var strat string
	if p.Strategy != "" {
		var err error
		strat, err = ParseStrategy(p.Strategy)
		if err != nil {
			return SolveSpec{}, err
		}
	}
	preset, err := ParsePreset(p.Preset)
	if err != nil {
		return SolveSpec{}, err
	}
	// Epsilon-vs-strategy consistency is left to SolveSpec.Validate: the
	// handlers validate explicitly or rely on Service.solve, and
	// solveStatus maps ErrInvalidSpec to 400.
	return SolveSpec{Strategy: strat, Preset: preset, Seed: p.Seed, Epsilon: p.Epsilon, Degrade: p.Degrade}, nil
}

// SolveJSON is the solve response. The stretch fields are present for the
// approximate strategies only: the guarantee is the contract (1+ε or 2+ε)
// and observed is the measured maximum against the centralized exact
// reference for this solve.
type SolveJSON struct {
	ID                string  `json:"id"`
	Strategy          string  `json:"strategy"`
	Preset            string  `json:"preset"`
	Seed              uint64  `json:"seed"`
	Epsilon           float64 `json:"epsilon,omitempty"`
	Rounds            int64   `json:"rounds"`
	Products          int     `json:"products"`
	FindEdgesCalls    int     `json:"find_edges_calls"`
	GuaranteedStretch float64 `json:"guaranteed_stretch,omitempty"`
	ObservedStretch   float64 `json:"observed_stretch,omitempty"`
	Cached            bool    `json:"cached"`
	// Degraded marks a response the degradation ladder answered with a
	// fallback strategy: Strategy (and GuaranteedStretch) describe the rung
	// that actually ran, DegradedFrom the one the client asked for.
	Degraded      bool   `json:"degraded,omitempty"`
	DegradedFrom  string `json:"degraded_from,omitempty"`
	DegradeReason string `json:"degrade_reason,omitempty"`
	// Stages is the engine's per-stage breakdown of the solve that
	// produced this result (present on fresh and cached responses alike —
	// the cache retains the original run's telemetry). Stage rounds sum
	// exactly to Rounds.
	Stages []engine.StageStat `json:"stages,omitempty"`
	// PlannedStrategy/PlannerReason/Predicted* echo the planner's decision
	// when the request asked for strategy=auto: the strategy the planner
	// resolved to, why, and its cost prediction at decision time. Absent on
	// explicit-strategy requests.
	PlannedStrategy string `json:"planned_strategy,omitempty"`
	PlannerReason   string `json:"planner_reason,omitempty"`
	PredictedRounds int64  `json:"predicted_rounds,omitempty"`
	PredictedWallNs int64  `json:"predicted_wall_ns,omitempty"`
}

// PathJSON is one answer in the paths:batch response. Dist is null both
// for unreachable pairs and for undefined ones; Undefined separates the
// two (true means the pair sits in a −∞ region — no shortest distance
// exists, as opposed to no path existing).
type PathJSON struct {
	Src       int    `json:"src"`
	Dst       int    `json:"dst"`
	Dist      *int64 `json:"dist"` // null when unreachable or undefined
	Undefined bool   `json:"undefined,omitempty"`
	Path      []int  `json:"path,omitempty"`
	Error     string `json:"error,omitempty"`
}

// batchRequestJSON is the paths:batch request body.
type batchRequestJSON struct {
	solveParamsJSON
	Queries []PathQuery `json:"queries"`
}

// ErrorJSON is the single error envelope every non-2xx response carries,
// wrapped as {"error": {...}}: a stable machine-readable code, the human
// message, whether the failure class is transient, and — for retryable
// failures — the suggested wait. A cancelled solve additionally attaches
// the partial telemetry (stages, rounds) of the work done before the stop.
type ErrorJSON struct {
	// Code classifies the failure: "invalid_spec", "not_found",
	// "unprocessable", "cancelled", "overloaded", "internal".
	Code string `json:"code"`
	// Message is the human-readable error text.
	Message string `json:"message"`
	// Retryable marks transient failures (the 503 class): the identical
	// request may succeed later.
	Retryable bool `json:"retryable"`
	// RetryAfterMS suggests the wait before retrying (retryable only);
	// mirrored in the Retry-After header (whole seconds).
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
	// Stages/Rounds carry the partial per-stage telemetry of a cancelled
	// solve — what the deadline bought before the stop.
	Stages []engine.StageStat `json:"stages,omitempty"`
	Rounds int64              `json:"rounds,omitempty"`
}

// errorEnvelope is the response body shape: {"error": {...}}.
type errorEnvelope struct {
	Error ErrorJSON `json:"error"`
}

// errorCode maps an HTTP status to its envelope code for failures without a
// more specific classification.
func errorCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "invalid_spec"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusUnprocessableEntity:
		return "unprocessable"
	case http.StatusServiceUnavailable:
		return "cancelled"
	default:
		return "internal"
	}
}

// NewHandler mounts the service's HTTP API under /v1:
//
//	PUT  /v1/graphs                   upload a graph, returns its content id
//	POST /v1/graphs/{id}/solve        solve (cache-aware), returns round accounting
//	GET  /v1/graphs/{id}/dist         distances: full matrix, one row (?src=), or one pair (?src=&dst=)
//	POST /v1/graphs/{id}/paths:batch  many shortest-path queries against one solve
//	GET  /v1/strategies               the strategy catalog: capabilities + live telemetry
//	GET  /v1/metrics                  per-strategy and admission accounting
//	GET  /v1/healthz                  liveness (always 200 while the process serves)
//	GET  /v1/readyz                   readiness (503 while draining or queue-saturated)
//
// Every non-2xx response body is the {"error": {code, message, retryable,
// retry_after_ms}} envelope (see ErrorJSON). The whole mux is wrapped in
// panic-recovery middleware: a panicking handler answers 500 "internal"
// instead of killing the daemon's connection serving.
func NewHandler(s *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("PUT /v1/graphs", func(w http.ResponseWriter, r *http.Request) {
		gj, err := decodeGraph(http.MaxBytesReader(w, r.Body, maxUploadBytes), r.ContentLength)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		g, err := gj.Digraph()
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		// The decoded graph is this request's own, so the store keeps it
		// without the private copy PutGraph makes of a caller's graph.
		id := s.store.put(g, true)
		out := map[string]any{"id": id, "n": g.N(), "arcs": g.ArcCount()}
		// Echo the structural profile computed at insert so clients can see
		// what the planner will see (negative arcs and asymmetry restrict
		// the viable catalog).
		if feats, err := s.GraphFeatures(id); err == nil {
			out["features"] = feats
		}
		writeJSON(w, http.StatusOK, out)
	})

	mux.HandleFunc("POST /v1/graphs/{id}/solve", func(w http.ResponseWriter, r *http.Request) {
		var body solveParamsJSON
		if r.ContentLength != 0 {
			if err := decodeSolveBody(w, r, &body); err != nil {
				httpError(w, http.StatusBadRequest, err)
				return
			}
		}
		spec, err := body.spec()
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		ctx, cancel := body.solveCtx(r)
		defer cancel()
		res, err := s.SolveContext(ctx, r.PathValue("id"), spec)
		if err != nil {
			solveError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, solveResponse(res, spec))
	})

	mux.HandleFunc("GET /v1/graphs/{id}/dist", func(w http.ResponseWriter, r *http.Request) {
		query := r.URL.Query()
		params := solveParamsJSON{Strategy: query.Get("strategy"), Preset: query.Get("preset")}
		if v := query.Get("seed"); v != "" {
			seed, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				httpError(w, http.StatusBadRequest, fmt.Errorf("serve: bad seed: %w", err))
				return
			}
			params.Seed = seed
		}
		if v := query.Get("epsilon"); v != "" {
			eps, err := strconv.ParseFloat(v, 64)
			if err != nil {
				httpError(w, http.StatusBadRequest, fmt.Errorf("serve: bad epsilon: %w", err))
				return
			}
			params.Epsilon = eps
		}
		if v := query.Get("timeout_ms"); v != "" {
			t, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				httpError(w, http.StatusBadRequest, fmt.Errorf("serve: bad timeout_ms: %w", err))
				return
			}
			params.TimeoutMS = t
		}
		spec, err := params.spec()
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		if err := spec.Validate(); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		// Validate the query parameters against the stored graph BEFORE
		// solving: a malformed request must cost a 400, not a full
		// pipeline run charged to the metrics. The shared store reference
		// is fine here — the handler only reads the dimension (the public
		// Service.Graph accessor clones, precisely so callers cannot
		// poison the content-addressed store).
		id := r.PathValue("id")
		sg, err := s.store.get(id)
		if err != nil {
			httpError(w, solveStatus(err), err)
			return
		}
		n := sg.g.N()
		// parseIdx answers -1 for an absent index.
		parseIdx := func(name string) (int, error) {
			v := query.Get(name)
			if v == "" {
				return -1, nil
			}
			i, err := strconv.Atoi(v)
			if err != nil || i < 0 || i >= n {
				return 0, fmt.Errorf("serve: %s=%q out of range [0,%d)", name, v, n)
			}
			return i, nil
		}
		src, err := parseIdx("src")
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		dst, err := parseIdx("dst")
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		if dst >= 0 && src < 0 {
			httpError(w, http.StatusBadRequest, errors.New("serve: dst requires src"))
			return
		}
		ctx, cancel := params.solveCtx(r)
		defer cancel()
		res, err := s.SolveContext(ctx, id, spec)
		if err != nil {
			solveError(w, err)
			return
		}
		body := distBody(res.GraphID, res.Cached, res.Res.Dist, src, dst)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(body)
	})

	mux.HandleFunc("POST /v1/graphs/{id}/paths:batch", func(w http.ResponseWriter, r *http.Request) {
		var body batchRequestJSON
		if err := decodeSolveBody(w, r, &body); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		spec, err := body.spec()
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		// As in GET dist, endpoints are checked against the stored graph
		// before solving, so a bad query costs a 400, not a solve.
		id := r.PathValue("id")
		sg, err := s.store.get(id)
		if err != nil {
			httpError(w, solveStatus(err), err)
			return
		}
		n := sg.g.N()
		for _, q := range body.Queries {
			if q.Src < 0 || q.Src >= n || q.Dst < 0 || q.Dst >= n {
				httpError(w, http.StatusBadRequest, fmt.Errorf("serve: query (%d,%d) out of range [0,%d)", q.Src, q.Dst, n))
				return
			}
		}
		ctx, cancel := body.solveCtx(r)
		defer cancel()
		answers, res, err := s.PathsBatchContext(ctx, id, spec, body.Queries)
		if err != nil {
			solveError(w, err)
			return
		}
		out := make([]PathJSON, len(answers))
		for i, a := range answers {
			pj := PathJSON{Src: a.Src, Dst: a.Dst, Path: a.Path}
			pj.Dist, pj.Undefined = distJSON(a.Dist)
			if a.Err != nil {
				// Per-query failures answer inside the batch (the rest of
				// the batch is unaffected): unreachable pairs carry
				// ErrNoPath, −∞ pairs carry ErrUndefinedDistance plus the
				// undefined marker.
				pj.Error = a.Err.Error()
				pj.Dist = nil
				pj.Path = nil
				pj.Undefined = errors.Is(a.Err, core.ErrUndefinedDistance)
			}
			out[i] = pj
		}
		writeJSON(w, http.StatusOK, map[string]any{"id": res.GraphID, "cached": res.Cached, "results": out})
	})

	mux.HandleFunc("GET /v1/strategies", func(w http.ResponseWriter, r *http.Request) {
		// The planner's catalog: every registered strategy with its
		// capability profile and whatever live telemetry has accrued — the
		// same data the planner ranks with, so clients can predict (and
		// debug) strategy=auto decisions.
		writeJSON(w, http.StatusOK, map[string]any{"strategies": s.Catalog()})
	})

	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})

	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		// Liveness: the process is up and serving connections. Deliberately
		// unconditional — a draining or saturated daemon is still alive, and
		// conflating the two teaches orchestrators to kill a busy process.
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})

	mux.HandleFunc("GET /v1/readyz", func(w http.ResponseWriter, r *http.Request) {
		rd := s.Readiness()
		status := http.StatusOK
		if !rd.Ready {
			status = http.StatusServiceUnavailable
			setRetryAfter(w, time.Second)
		}
		writeJSON(w, status, rd)
	})
	return recoverHandler(s, mux)
}

// recoverHandler is the outermost panic boundary of the HTTP surface: a
// panicking handler (or anything below it that escaped the solve-level
// recovery) answers a 500 "internal" envelope and counts in
// PanicsRecovered, instead of net/http's default of killing the connection
// with an empty reply. ErrAbortHandler keeps its contractual meaning —
// deliberate aborts re-panic.
func recoverHandler(s *Service, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler { //nolint:errorlint // sentinel by identity, per net/http contract
				panic(rec)
			}
			s.stats.panicRecovered()
			// Best effort: if the handler already wrote a response the
			// header set fails silently, which is all that can be done.
			httpError(w, http.StatusInternalServerError, fmt.Errorf("serve: handler panicked: %v", rec))
		}()
		next.ServeHTTP(w, r)
	})
}

func solveResponse(res *SolveResult, spec SolveSpec) SolveJSON {
	sj := SolveJSON{
		ID: res.GraphID,
		// The strategy that actually ran — under degradation this is the
		// ladder rung that answered, not the one requested.
		Strategy:       res.Res.Strategy,
		Preset:         spec.Preset.String(),
		Seed:           spec.Seed,
		Epsilon:        res.Res.Epsilon,
		Rounds:         res.Res.Rounds,
		Products:       res.Res.Products,
		FindEdgesCalls: res.Res.FindEdgesCalls,
		Cached:         res.Cached,
		Stages:         res.Res.Stages,
	}
	if res.Res.Epsilon > 0 {
		sj.GuaranteedStretch = res.Res.GuaranteedStretch
		sj.ObservedStretch = res.Res.ObservedStretch
	}
	if res.Degraded {
		sj.Degraded = true
		sj.DegradedFrom = res.DegradedFrom
		sj.DegradeReason = res.DegradeReason
		// A degraded response always reports its stretch contract, even if
		// a future exact rung were to answer with stretch 1.
		sj.GuaranteedStretch = res.Res.GuaranteedStretch
	}
	if res.Plan != nil {
		sj.PlannedStrategy = res.Plan.Strategy
		sj.PlannerReason = res.Plan.Reason
		sj.PredictedRounds = res.Plan.PredictedRounds
		sj.PredictedWallNs = res.Plan.PredictedWallNs
	}
	return sj
}

// solveStatus maps solve errors to HTTP statuses: unknown graphs are 404,
// malformed specs are 400, inputs the strategy cannot answer (negative
// cycles, distances that saturate at −∞ without one, negative or
// asymmetric weights under an approximate strategy) are 422, transient
// failures — cancelled or deadline-expired solves, admission-controller
// sheds — are 503, the rest (including recovered panics) 500.
func solveStatus(err error) int {
	var oe *OverloadError
	switch {
	case errors.Is(err, core.ErrNegativeCycle),
		errors.Is(err, core.ErrSaturatedDistance),
		errors.Is(err, approx.ErrNegativeWeight),
		errors.Is(err, approx.ErrAsymmetric):
		return http.StatusUnprocessableEntity
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled),
		errors.As(err, &oe):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrInvalidSpec):
		return http.StatusBadRequest
	case errors.Is(err, ErrUnknownGraph):
		return http.StatusNotFound
	default:
		return http.StatusInternalServerError
	}
}

// setRetryAfter advertises when the client should try again (whole
// seconds, minimum 1 — the 503 class is transient by definition).
func setRetryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int64(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
}

// solveError writes a solve failure in the error envelope. Every 503
// carries a Retry-After header and the retryable marker — the failure class
// is transient (deadline, overload) and clients should distinguish "try
// again" from "this request can never work". A cancellation additionally
// carries the partial per-stage telemetry, so a timed-out request still
// reports the stages (and rounds) the deadline bought.
func solveError(w http.ResponseWriter, err error) {
	status := solveStatus(err)
	if status != http.StatusServiceUnavailable {
		httpError(w, status, err)
		return
	}
	ej := ErrorJSON{Code: "cancelled", Message: err.Error(), Retryable: true}
	wait := time.Second
	var cancelled *CancelledError
	var oe *OverloadError
	switch {
	case errors.As(err, &oe):
		ej.Code = "overloaded"
		wait = oe.RetryAfter
	case errors.As(err, &cancelled):
		ej.Stages = cancelled.Stages
		ej.Rounds = cancelled.Rounds
	}
	ej.RetryAfterMS = retryAfterMS(wait)
	setRetryAfter(w, wait)
	writeJSON(w, http.StatusServiceUnavailable, errorEnvelope{Error: ej})
}

// retryAfterMS floors the advertised wait at one millisecond — a retryable
// response always suggests a positive wait.
func retryAfterMS(d time.Duration) int64 {
	ms := d.Milliseconds()
	if ms < 1 {
		ms = 1
	}
	return ms
}

// distJSON maps a distance entry to its JSON form: (nil, false) for +∞
// (unreachable), (nil, true) for −∞ (undefined — the negative-cycle
// region), (&d, false) otherwise.
func distJSON(d int64) (*int64, bool) {
	if d >= graph.Inf {
		return nil, false
	}
	if d <= graph.NegInf {
		return nil, true
	}
	return &d, false
}

// distBody is the GET /v1/graphs/{id}/dist response body for d: the pair
// (src, dst), row src when dst < 0, or the whole matrix when src < 0. It
// appends straight into one buffer, yet its bytes are exactly those
// json.Encoder writes for the equivalent map[string]any: keys sorted, null
// for +∞ and −∞, the −∞ cells marked under "undefined" (true for a pair, a
// list of [i,j] otherwise), and a trailing newline.
func distBody(id string, cached bool, d *matrix.Matrix, src, dst int) []byte {
	n := d.N()
	lo, hi := 0, n // the rows a row or full-matrix body lists
	if src >= 0 {
		lo, hi = src, src+1
	}
	size := 96 + len(id)
	if dst < 0 {
		// Room for short distances; append grows the buffer for long ones.
		size += (hi - lo) * (2 + 4*n)
	}
	b := make([]byte, 0, size)
	b = append(b, `{"cached":`...)
	b = strconv.AppendBool(b, cached)
	b = append(b, `,"dist":`...)
	undefined := false
	if dst >= 0 {
		v := d.At(src, dst)
		b = appendDist(b, v)
		undefined = v <= graph.NegInf
		b = append(b, `,"dst":`...)
		b = strconv.AppendInt(b, int64(dst), 10)
	} else {
		if src < 0 {
			b = append(b, '[')
		}
		for i := lo; i < hi; i++ {
			if i > lo {
				b = append(b, ',')
			}
			b = append(b, '[')
			for j, v := range d.RowView(i) {
				if j > 0 {
					b = append(b, ',')
				}
				b = appendDist(b, v)
				undefined = undefined || v <= graph.NegInf
			}
			b = append(b, ']')
		}
		if src < 0 {
			b = append(b, ']')
		}
	}
	b = append(b, `,"id":`...)
	// Marshal escapes <>& as json.Encoder does, and cannot fail on a string.
	idJSON, _ := json.Marshal(id)
	b = append(b, idJSON...)
	b = append(b, `,"n":`...)
	b = strconv.AppendInt(b, int64(n), 10)
	if src >= 0 {
		b = append(b, `,"src":`...)
		b = strconv.AppendInt(b, int64(src), 10)
	}
	if undefined {
		b = append(b, `,"undefined":`...)
		if dst >= 0 {
			b = append(b, "true"...)
		} else {
			b = appendUndefined(b, d, lo, hi)
		}
	}
	return append(b, "}\n"...)
}

// appendDist appends one distance: null for ±∞, the integer otherwise.
func appendDist(b []byte, v int64) []byte {
	if v >= graph.Inf || v <= graph.NegInf {
		return append(b, "null"...)
	}
	return strconv.AppendInt(b, v, 10)
}

// appendUndefined appends the [i,j] list of the −∞ cells in rows [lo, hi).
func appendUndefined(b []byte, d *matrix.Matrix, lo, hi int) []byte {
	b = append(b, '[')
	first := true
	for i := lo; i < hi; i++ {
		for j, v := range d.RowView(i) {
			if v > graph.NegInf {
				continue
			}
			if !first {
				b = append(b, ',')
			}
			first = false
			b = append(b, '[')
			b = strconv.AppendInt(b, int64(i), 10)
			b = append(b, ',')
			b = strconv.AppendInt(b, int64(j), 10)
			b = append(b, ']')
		}
	}
	return append(b, ']')
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorEnvelope{Error: ErrorJSON{
		Code:    errorCode(status),
		Message: err.Error(),
	}})
}

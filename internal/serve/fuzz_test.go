package serve

// The PUT /v1/graphs decoder: the body is the one piece of deeply
// structured attacker-controlled input the daemon parses. FuzzGraphJSON
// holds the hand parser to encoding/json, which it must match on every
// input (the same error text, or the same GraphJSON), and checks the
// store's invariants (bounded dimension, finite weights, content-hash
// determinism) for anything that decodes. CI runs `go test -fuzz=FuzzGraphJSON -fuzztime=30s` as a short
// smoke; the seed corpus below also runs as a normal unit test.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"testing"
	"testing/iotest"

	"qclique/internal/experiments/workload"
	"qclique/internal/graph"
)

func FuzzGraphJSON(f *testing.F) {
	f.Add([]byte(`{"n":4,"arcs":[{"u":0,"v":1,"w":3},{"u":1,"v":2,"w":-2}]}`))
	f.Add([]byte(`{"n":0,"arcs":[]}`))
	f.Add([]byte(`{"n":-1}`))
	f.Add([]byte(`{"n":5000}`))
	f.Add([]byte(`{"n":2,"arcs":[{"u":0,"v":0,"w":1}]}`))
	f.Add([]byte(`{"n":2,"arcs":[{"u":9,"v":0,"w":1}]}`))
	f.Add([]byte(`{"n":3,"arcs":[{"u":0,"v":1,"w":9223372036854775807}]}`))
	f.Add([]byte(`{"n":1e3}`))
	f.Add([]byte(`garbage`))
	// Canonical bodies: the examples/service shape (keys sorted, trailing
	// newline), whitespace, an empty arc, trailing bytes and the bounds of
	// the weight range.
	f.Add([]byte("{\"arcs\":[{\"u\":0,\"v\":1,\"w\":2},{\"u\":0,\"v\":7,\"w\":-1}],\"n\":24}\n"))
	f.Add([]byte(" {\t\"n\" : 3 ,\r\n \"arcs\" : [ { \"w\" : 5 , \"v\" : 2 , \"u\" : 1 } ] } "))
	f.Add([]byte(`{"n":2,"arcs":[{}]}`))
	f.Add([]byte(`{"n":1} x`))
	f.Add([]byte(`{"n":3,"arcs":[{"u":0,"v":1,"w":-9223372036854775808}]}`))
	f.Add([]byte(`{"n":3,"arcs":[{"u":0,"v":1,"w":2305843009213693951}]}`))
	f.Add([]byte(`{"n":3,"arcs":[{"u":0,"v":1,"w":2305843009213693950},{"u":1,"v":2,"w":-2305843009213693950}]}`))
	// Bodies for encoding/json: unknown, duplicate, escaped and case-folded
	// keys; null and strings; fractions, exponents, -0, leading zeros and
	// out-of-range integers; empty bodies.
	f.Add([]byte(`{"n":2,"arcs":[],"extra":[1,2]}`))
	f.Add([]byte(`{"n":2,"arcs":[{"u":0,"v":1,"w":1,"x":0}]}`))
	f.Add([]byte(`{"n":2,"arcs":[],"n":3}`))
	f.Add([]byte(`{"n":2,"arcs":[{"u":0,"v":1,"w":4,"w":7}]}`))
	f.Add([]byte(`{"n":2,"arcs":[{"u":0,"v":1,"w":5}],"arcs":[{"v":0}]}`))
	f.Add([]byte(`{"\u006e":2,"arcs":[{"u":0,"v":1,"w":1}]}`))
	f.Add([]byte(`{"N":2,"Arcs":[{"U":0,"v":1,"w":1}]}`))
	f.Add([]byte(`{"n":null,"arcs":null}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"n":"2","arcs":[{"u":0,"v":1,"w":"1"}]}`))
	f.Add([]byte(`{"n":1.0}`))
	f.Add([]byte(`{"n":2,"arcs":[{"u":0,"v":1,"w":1.0}]}`))
	f.Add([]byte(`{"n":2,"arcs":[{"u":0,"v":1,"w":2E1}]}`))
	f.Add([]byte(`{"n":-0}`))
	f.Add([]byte(`{"n":02}`))
	f.Add([]byte(`{"n":9223372036854775808}`))
	f.Add([]byte(`{"n":2,"arcs":[{"u":0,"v":1,"w":-9223372036854775809}]}`))
	f.Add([]byte(`{"n":2,"arcs":[{"u":0,"v":1,"w":100000000000000000000}]}`))
	f.Add([]byte(``))
	f.Add([]byte(" \n"))
	f.Add([]byte(`{"n":2,"arcs":[{"u":0,"v":1`))
	f.Fuzz(func(t *testing.T, data []byte) {
		gj, err := decodeGraph(bytes.NewReader(data), int64(len(data)))
		var want GraphJSON
		wantErr := json.NewDecoder(bytes.NewReader(data)).Decode(&want)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("error %v, encoding/json %v", err, wantErr)
		}
		if err != nil {
			return // malformed JSON is the client's problem
		}
		if !reflect.DeepEqual(gj, want) {
			t.Fatalf("decoded %+v, encoding/json %+v", gj, want)
		}
		g, err := gj.Digraph()
		if err != nil {
			return // rejected uploads are fine; panics are not
		}
		if g.N() != gj.N {
			t.Fatalf("decoded graph has n=%d, upload said %d", g.N(), gj.N)
		}
		if g.N() > maxUploadVertices {
			t.Fatalf("decoder accepted n=%d beyond the %d limit", g.N(), maxUploadVertices)
		}
		if got, max := g.ArcCount(), len(gj.Arcs); got > max {
			t.Fatalf("graph has %d arcs from %d uploaded entries", got, max)
		}
		for _, a := range gj.Arcs {
			if w, ok := g.Weight(a.U, a.V); !ok || !graph.IsFinite(w) {
				t.Fatalf("uploaded arc %d->%d (w=%d) stored as %d, present %v", a.U, a.V, a.W, w, ok)
			}
		}
		// Content identity must be deterministic and clone-invariant —
		// it is the cache key of the whole serving layer.
		if h1, h2 := HashDigraph(g), HashDigraph(g.Clone()); h1 != h2 {
			t.Fatalf("hash not clone-invariant: %q vs %q", h1, h2)
		}
	})
}

// producerBodies are the PUT /v1/graphs bodies of the three producers, for
// an n=16 E1 graph: the benchmark (benchmark/inputs Graph.JSON appends
// n, then arcs with u, v, w), the tests (json.Marshal of a GraphJSON) and
// examples/service (json.Encoder over a map, so keys come sorted and a
// newline follows).
func producerBodies(t *testing.T) (GraphJSON, map[string][]byte) {
	t.Helper()
	g, err := workload.E1Digraph(16, workload.E1W)
	if err != nil {
		t.Fatal(err)
	}
	gj := graphJSON(g)
	bench := []byte(`{"n":` + strconv.Itoa(gj.N) + `,"arcs":[`)
	var mapArcs []map[string]any
	for i, a := range gj.Arcs {
		if i > 0 {
			bench = append(bench, ',')
		}
		bench = fmt.Appendf(bench, `{"u":%d,"v":%d,"w":%d}`, a.U, a.V, a.W)
		mapArcs = append(mapArcs, map[string]any{"u": a.U, "v": a.V, "w": a.W})
	}
	bench = append(bench, "]}"...)
	marshalled, err := json.Marshal(gj)
	if err != nil {
		t.Fatal(err)
	}
	var encoded bytes.Buffer
	if err := json.NewEncoder(&encoded).Encode(map[string]any{"n": gj.N, "arcs": mapArcs}); err != nil {
		t.Fatal(err)
	}
	return gj, map[string][]byte{"benchmark": bench, "tests": marshalled, "examples/service": encoded.Bytes()}
}

// TestProducerBodiesAreCanonical: the hand parser itself accepts what every
// known producer sends, so a change of shape that would send every upload
// to encoding/json fails here and not only in the benchmark.
func TestProducerBodiesAreCanonical(t *testing.T) {
	want, bodies := producerBodies(t)
	for name, body := range bodies {
		got, ok := parseGraph(body)
		if !ok {
			t.Errorf("%s: body is not canonical: %.80s…", name, body)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: parsed %d arcs, want the %d uploaded", name, len(got.Arcs), len(want.Arcs))
		}
	}
}

// TestDecodeGraphReadErrors: a read error after the body answers what
// json.Decoder answers over the same reader — the value when the bytes
// before the error complete one, the syntax error when they hold one, the
// read error otherwise.
func TestDecodeGraphReadErrors(t *testing.T) {
	readErr := errors.New("connection reset")
	var syntax *json.SyntaxError
	for _, tc := range []struct {
		name, body string
		want       func(error) bool
	}{
		{"complete", `{"n":3,"arcs":[{"u":0,"v":1,"w":2}]}`,
			func(err error) bool { return err == nil }},
		{"cut mid-arc", `{"n":3,"arcs":[{"u":0,"v":1,"w":2},{"u":1,"v"`,
			func(err error) bool { return errors.Is(err, readErr) }},
		{"syntax error before the cut", `{"n":3,"arcs":[{"u":0,,"v":1`,
			func(err error) bool { return errors.As(err, &syntax) }},
	} {
		body := func() io.Reader {
			return io.MultiReader(bytes.NewReader([]byte(tc.body)), iotest.ErrReader(readErr))
		}
		got, err := decodeGraph(body(), -1)
		var want GraphJSON
		wantErr := json.NewDecoder(body()).Decode(&want)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || !tc.want(err) {
			t.Errorf("%s: error %v, encoding/json %v", tc.name, err, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decoded %+v, encoding/json %+v", tc.name, got, want)
		}
	}
}

// TestPutGraphClaimedLengthAllocatesLittle: a PUT that claims the largest
// allowed Content-Length but sends 1 KB costs what it sends, not what it
// claims.
func TestPutGraphClaimedLengthAllocatesLittle(t *testing.T) {
	h := NewHandler(New(Config{}))
	body := []byte(`{"n":8,"arcs":[`)
	for i := 0; len(body) < 1000; i++ {
		if i > 0 {
			body = append(body, ',')
		}
		body = fmt.Appendf(body, `{"u":%d,"v":%d,"w":%d}`, i%8, (i+1)%8, i)
	}
	body = append(body, "]}"...)
	req := httptest.NewRequest(http.MethodPut, "/v1/graphs", bytes.NewReader(body))
	req.ContentLength = maxUploadBytes
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 64<<20 {
		t.Fatalf("a %d-byte body claiming %d bytes allocated %d bytes", len(body), int64(maxUploadBytes), alloc)
	}
}

// BenchmarkHTTPPutGraph runs the in-process PUT /v1/graphs handler on the
// body of an n=256 E1 graph, the size the serve-write workload uploads.
func BenchmarkHTTPPutGraph(b *testing.B) {
	g, err := workload.E1Digraph(256, workload.E1W)
	if err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(graphJSON(g))
	if err != nil {
		b.Fatal(err)
	}
	h := NewHandler(New(Config{}))
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/v1/graphs", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}

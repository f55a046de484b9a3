package qclique

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"qclique/internal/graph"
	"qclique/internal/serve"
)

// TestPathEntryPointsAgree: on unit arcs 0→1→4→5 and 0→2→3→5 the two
// shortest paths from 0 to 5 tie, and ShortestPath, Solver.ShortestPath,
// Solver.PathsBatch and HTTP paths:batch all answer the same one.
func TestPathEntryPointsAgree(t *testing.T) {
	g := NewDigraph(6)
	arcs := [][2]int{{0, 1}, {1, 4}, {4, 5}, {0, 2}, {2, 3}, {3, 5}}
	for _, a := range arcs {
		if err := g.SetArc(a[0], a[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	want := []int{0, 2, 3, 5}
	check := func(name string, path []int) {
		t.Helper()
		if !slices.Equal(path, want) {
			t.Errorf("%s: path %v, want %v", name, path, want)
		}
	}

	res, err := SolveAPSP(g, WithStrategy(Gossip))
	if err != nil {
		t.Fatal(err)
	}
	path, err := ShortestPath(g, res, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	check("ShortestPath", path)

	solver := NewSolver(WithStrategy(Gossip))
	path, d, err := solver.ShortestPath(g, 0, 5)
	if err != nil || d != 3 {
		t.Fatalf("Solver.ShortestPath: d = %d, err = %v", d, err)
	}
	check("Solver.ShortestPath", path)
	answers, _, err := solver.PathsBatch(g, []PathQuery{{Src: 0, Dst: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if answers[0].Err != nil {
		t.Fatalf("Solver.PathsBatch: %v", answers[0].Err)
	}
	check("Solver.PathsBatch", answers[0].Path)

	srv := httptest.NewServer(serve.NewHandler(serve.New(serve.Config{})))
	defer srv.Close()
	gj := serve.GraphJSON{N: 6}
	for _, a := range arcs {
		gj.Arcs = append(gj.Arcs, serve.ArcJSON{U: a[0], V: a[1], W: 1})
	}
	var put struct {
		ID string `json:"id"`
	}
	postJSON(t, srv, http.MethodPut, "/v1/graphs", gj, &put)
	var batch struct {
		Results []serve.PathJSON `json:"results"`
	}
	postJSON(t, srv, http.MethodPost, "/v1/graphs/"+put.ID+"/paths:batch", map[string]any{
		"strategy": "gossip",
		"queries":  []PathQuery{{Src: 0, Dst: 5}},
	}, &batch)
	if len(batch.Results) != 1 {
		t.Fatalf("paths:batch: %d results", len(batch.Results))
	}
	check("HTTP paths:batch", batch.Results[0].Path)
}

// postJSON sends body as JSON with the given method and decodes a 200
// response into out.
func postJSON(t *testing.T, srv *httptest.Server, method, path string, body, out any) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(method, srv.URL+path, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: status %d", method, path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

func TestShortestPathPublic(t *testing.T) {
	d := buildRandomDigraph(t, 12, 77)
	res, err := SolveAPSP(d, WithStrategy(Gossip))
	if err != nil {
		t.Fatal(err)
	}
	for src := 0; src < d.N(); src++ {
		for dst := 0; dst < d.N(); dst++ {
			path, err := ShortestPath(d, res, src, dst)
			if res.Dist[src][dst] >= Inf {
				if !errors.Is(err, ErrNoPath) {
					t.Fatalf("(%d,%d): err = %v, want ErrNoPath", src, dst, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("(%d,%d): %v", src, dst, err)
			}
			// Validate the path weight against the distance.
			var total int64
			for i := 0; i+1 < len(path); i++ {
				w, ok := d.Weight(path[i], path[i+1])
				if !ok {
					t.Fatalf("broken path %v", path)
				}
				total += w
			}
			if total != res.Dist[src][dst] {
				t.Fatalf("(%d,%d): path weight %d, distance %d", src, dst, total, res.Dist[src][dst])
			}
		}
	}
}

func TestShortestPathValidation(t *testing.T) {
	d := buildRandomDigraph(t, 8, 1)
	res, err := SolveAPSP(d, WithStrategy(Gossip))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ShortestPath(nil, res, 0, 1); err == nil {
		t.Error("nil graph must fail")
	}
	if _, err := ShortestPath(d, nil, 0, 1); err == nil {
		t.Error("nil result must fail")
	}
	other := buildRandomDigraph(t, 10, 2)
	if _, err := ShortestPath(other, res, 0, 1); err == nil {
		t.Error("mismatched result must fail")
	}
}

func TestSolveSSSPPublic(t *testing.T) {
	d := buildRandomDigraph(t, 12, 5)
	full, err := SolveAPSP(d, WithStrategy(Gossip))
	if err != nil {
		t.Fatal(err)
	}
	row, res, err := SolveSSSP(d, 3, WithStrategy(Gossip))
	if err != nil {
		t.Fatal(err)
	}
	for v := range row {
		if row[v] != full.Dist[3][v] {
			t.Fatalf("d(3,%d) = %d, want %d", v, row[v], full.Dist[3][v])
		}
	}
	if res.Rounds <= 0 {
		t.Error("SSSP must report rounds")
	}
	// The rows also match the single-source reference, Bellman–Ford.
	for _, src := range []int{0, 7} {
		row, _, err := SolveSSSP(d, src, WithStrategy(DolevListing), WithSeed(1))
		if err != nil {
			t.Fatal(err)
		}
		want, err := graph.BellmanFord(d.g, src)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(row, want) {
			t.Errorf("src=%d: SSSP row %v, Bellman–Ford %v", src, row, want)
		}
	}
	if _, _, err := SolveSSSP(d, 99); err == nil {
		t.Error("bad source must fail")
	}
	// The source is checked before anything is solved, so a bad source
	// wins over a bad option.
	if _, _, err := SolveSSSP(d, -1, WithStrategy("no-such-strategy")); err == nil || !strings.Contains(err.Error(), "source -1 out of range") {
		t.Errorf("bad source with a bad strategy: err = %v, want the source-range error", err)
	}
	if _, _, err := SolveSSSP(nil, 0); err == nil {
		t.Error("nil graph must fail")
	}
}

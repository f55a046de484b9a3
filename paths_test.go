package qclique

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"qclique/internal/graph"
)

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

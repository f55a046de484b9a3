package inputs

import (
	"testing"

	"qclique/internal/graph"
	"qclique/internal/xrand"
)

// E1Digraph is, arc for arc, the graph the repository's E1 benchmark draws
// from the same root seed, which is what makes theorem1 at seed 0 the
// E1APSPQuantum/n=64 instance.
func TestE1DigraphMatchesRepositoryGenerator(t *testing.T) {
	for _, n := range []int{8, 64} {
		want, err := graph.RandomDigraph(n, graph.DigraphOpts{
			ArcProb: 0.4, MinWeight: -8, MaxWeight: 8, NoNegativeCycles: true,
		}, xrand.New(uint64(n)))
		if err != nil {
			t.Fatal(err)
		}
		g := E1Digraph(n, RNG(uint64(n)))
		if len(g.Arcs) != want.ArcCount() {
			t.Fatalf("n=%d: %d arcs, want %d", n, len(g.Arcs), want.ArcCount())
		}
		for _, a := range g.Arcs {
			if w, ok := want.Weight(a.U, a.V); !ok || w != a.W {
				t.Fatalf("n=%d: arc %d→%d weighs %d, want %d (present %v)", n, a.U, a.V, a.W, w, ok)
			}
		}
	}
}

func TestReferencesAgree(t *testing.T) {
	g := E1Digraph(32, RNG(3))
	fw := FloydWarshall(g)
	for src := 0; src < g.N; src++ {
		bf := BellmanFord(g, src)
		for dst, d := range bf {
			if fw[src*g.N+dst] != d {
				t.Fatalf("d(%d,%d): Floyd–Warshall %d, Bellman–Ford %d", src, dst, fw[src*g.N+dst], d)
			}
		}
	}
}

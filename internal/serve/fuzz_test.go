package serve

// Fuzz smoke over the HTTP graph decoder: the PUT /v1/graphs body is the one
// piece of deeply structured attacker-controlled input the daemon parses,
// so the decoder must never panic and must uphold the store's invariants
// (bounded dimension, content-hash determinism) for anything that decodes.
// CI runs `go test -fuzz=FuzzGraphJSON -fuzztime=30s` as a short smoke;
// the seed corpus below also runs as a normal unit test.

import (
	"encoding/json"
	"testing"
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
	f.Fuzz(func(t *testing.T, data []byte) {
		var gj GraphJSON
		if err := json.Unmarshal(data, &gj); err != nil {
			return // malformed JSON is the client's problem
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
		// Content identity must be deterministic and clone-invariant —
		// it is the cache key of the whole serving layer.
		if h1, h2 := HashDigraph(g), HashDigraph(g.Clone()); h1 != h2 {
			t.Fatalf("hash not clone-invariant: %q vs %q", h1, h2)
		}
	})
}

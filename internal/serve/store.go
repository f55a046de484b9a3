package serve

import (
	"errors"
	"fmt"

	"qclique/internal/graph"
)

// ErrUnknownGraph is returned when a graph id is not (or no longer) in the
// store.
var ErrUnknownGraph = errors.New("serve: unknown graph")

// storedGraph is one stored graph plus its structural profile, computed
// once at insertion — the store is content-addressed, so the profile can
// never go stale.
type storedGraph struct {
	g     *graph.Digraph
	feats graph.Features
}

// maxStoreBytes bounds the adjacency bytes the graph store retains: 1 GiB
// holds 8 graphs at maxUploadVertices, where the count bound alone would
// let 1024 of them (128 GiB) accumulate.
const maxStoreBytes = 1 << 30

// graphStore holds uploaded graphs by content hash, least-recently-used
// capped by count and by adjacency bytes, so a long-running daemon cannot
// be grown without bound by unique uploads. The store owns what it holds —
// a caller's graph is cloned on the way in — and hands graphs out by
// reference: stored graphs are never mutated.
type graphStore struct {
	m *lruMap[string, *storedGraph]
}

func newGraphStore(max int, maxBytes int64) *graphStore {
	if max <= 0 {
		max = defaultMaxGraphs
	}
	return &graphStore{m: newLRUMap[string](max, maxBytes, storedGraphBytes)}
}

// storedGraphBytes weighs a stored graph by its dense n×n int64 adjacency.
func storedGraphBytes(sg *storedGraph) int64 {
	n := int64(sg.g.N())
	return n * n * 8
}

// put stores g (with its feature profile) and returns its content id.
// Re-uploading an identical graph is idempotent (it refreshes the recency
// and copies nothing). A new graph is stored as a private clone, or as it
// is when owned: the caller hands it over and never touches it again.
func (s *graphStore) put(g *graph.Digraph, owned bool) string {
	id := HashDigraph(g)
	if _, ok := s.m.get(id); ok {
		return id
	}
	if !owned {
		g = g.Clone()
	}
	s.m.add(id, &storedGraph{g: g, feats: g.Features()})
	return id
}

// get returns the stored graph (and its profile) for id.
func (s *graphStore) get(id string) (*storedGraph, error) {
	sg, ok := s.m.get(id)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownGraph, id)
	}
	return sg, nil
}

func (s *graphStore) len() int {
	return s.m.len()
}

package triangles

import (
	"fmt"
	"math"

	"qclique/internal/congest"
	"qclique/internal/graph"
	"qclique/internal/xrand"
)

// This file implements the two vertex partitions and three labeling schemes
// of Section 5.1, generalized to arbitrary n by rounding the part counts
// and multiplexing surplus labels onto physical nodes (the paper assumes
// n^{1/4}, √n, n^{3/4} are integers and notes the general case "slightly
// adjusts the sizes of the sets").

// Partitions holds the vertex partitions used by ComputePairs.
type Partitions struct {
	n int

	// Coarse is 𝒱: ~n^{1/4} blocks of ~n^{3/4} vertices.
	Coarse [][]int
	// Fine is 𝒱′: ~√n blocks of ~√n vertices.
	Fine [][]int

	// blockOfCoarse[v] inverts the coarse partition.
	blockOfCoarse []int
}

// splitEven partitions 0..n-1 into parts contiguous blocks whose sizes
// differ by at most one.
func splitEven(n, parts int) [][]int {
	if parts > n {
		parts = n
	}
	if parts < 1 {
		parts = 1
	}
	out := make([][]int, parts)
	base := n / parts
	extra := n % parts
	v := 0
	for i := range out {
		size := base
		if i < extra {
			size++
		}
		block := make([]int, size)
		for j := range block {
			block[j] = v
			v++
		}
		out[i] = block
	}
	return out
}

// NewPartitions builds the Section 5.1 partitions for an n-vertex graph.
func NewPartitions(n int) (*Partitions, error) {
	if n < 1 {
		return nil, fmt.Errorf("triangles: need n >= 1, got %d", n)
	}
	q := int(math.Round(math.Pow(float64(n), 0.25)))
	if q < 1 {
		q = 1
	}
	s := int(math.Round(math.Sqrt(float64(n))))
	if s < 1 {
		s = 1
	}
	p := &Partitions{
		n:             n,
		Coarse:        splitEven(n, q),
		Fine:          splitEven(n, s),
		blockOfCoarse: make([]int, n),
	}
	for bi, block := range p.Coarse {
		for _, v := range block {
			p.blockOfCoarse[v] = bi
		}
	}
	return p, nil
}

// N returns the vertex count.
func (p *Partitions) N() int { return p.n }

// NumCoarse returns |𝒱|.
func (p *Partitions) NumCoarse() int { return len(p.Coarse) }

// NumFine returns |𝒱′|.
func (p *Partitions) NumFine() int { return len(p.Fine) }

// CoarseOf returns the 𝒱-block index containing vertex v.
func (p *Partitions) CoarseOf(v int) int { return p.blockOfCoarse[v] }

// TripleLabel is the second labeling scheme: a label (u, v, w) ∈ 𝒱×𝒱×𝒱′.
// Node (u,v,w) gathers the weights of all edges in P(u,w) and P(w,v).
type TripleLabel struct {
	U, V int // coarse block indices
	W    int // fine block index
}

// TripleIndex linearizes a TripleLabel.
func (p *Partitions) TripleIndex(t TripleLabel) int {
	q := p.NumCoarse()
	s := p.NumFine()
	return (t.U*q+t.V)*s + t.W
}

// TripleFromIndex inverts TripleIndex.
func (p *Partitions) TripleFromIndex(i int) TripleLabel {
	q := p.NumCoarse()
	s := p.NumFine()
	return TripleLabel{U: i / (q * s), V: (i / s) % q, W: i % s}
}

// NumTriples returns |𝒱|²·|𝒱′|, the number of triple labels. For n a
// perfect fourth power this is exactly n; otherwise labels are multiplexed
// onto physical nodes round-robin.
func (p *Partitions) NumTriples() int {
	return p.NumCoarse() * p.NumCoarse() * p.NumFine()
}

// TripleNode maps a triple label to the physical node hosting it.
func (p *Partitions) TripleNode(t TripleLabel) congest.NodeID {
	return congest.NodeID(p.TripleIndex(t) % p.n)
}

// SearchLabel is the third labeling scheme: a label (u, v, x) ∈
// 𝒱×𝒱×[√n]. Node (u,v,x) checks the triangles through the pairs in its
// covering set Λx(u,v).
type SearchLabel struct {
	U, V int // coarse block indices
	X    int // covering index in [0, NumFine)
}

// SearchIndex linearizes a SearchLabel.
func (p *Partitions) SearchIndex(l SearchLabel) int {
	q := p.NumCoarse()
	s := p.NumFine()
	return (l.U*q+l.V)*s + l.X
}

// SearchFromIndex inverts SearchIndex.
func (p *Partitions) SearchFromIndex(i int) SearchLabel {
	q := p.NumCoarse()
	s := p.NumFine()
	return SearchLabel{U: i / (q * s), V: (i / s) % q, X: i % s}
}

// NumSearchLabels returns |𝒱|²·√n.
func (p *Partitions) NumSearchLabels() int {
	return p.NumCoarse() * p.NumCoarse() * p.NumFine()
}

// SearchNode maps a search label to the physical node hosting it.
func (p *Partitions) SearchNode(l SearchLabel) congest.NodeID {
	return congest.NodeID(p.SearchIndex(l) % p.n)
}

// PairsBetween enumerates P(A, B): unordered pairs {a, b} with a ∈ block
// A, b ∈ block B, a ≠ b, for coarse blocks A and B (possibly equal).
func (p *Partitions) PairsBetween(a, b int) []graph.Pair {
	blockA := p.Coarse[a]
	blockB := p.Coarse[b]
	if a == b {
		out := make([]graph.Pair, 0, len(blockA)*(len(blockA)-1)/2)
		for i := 0; i < len(blockA); i++ {
			for j := i + 1; j < len(blockA); j++ {
				out = append(out, graph.MakePair(blockA[i], blockA[j]))
			}
		}
		return out
	}
	out := make([]graph.Pair, 0, len(blockA)*len(blockB))
	for _, x := range blockA {
		for _, y := range blockB {
			out = append(out, graph.MakePair(x, y))
		}
	}
	return out
}

// forEachPairBetween visits P(A, B) in exactly the order PairsBetween
// returns it, without materializing the slice — the covering sampler draws
// one random bit per pair, so the iteration order is part of the
// deterministic replay contract.
func (p *Partitions) forEachPairBetween(a, b int, fn func(pr graph.Pair)) {
	blockA := p.Coarse[a]
	blockB := p.Coarse[b]
	if a == b {
		for i := 0; i < len(blockA); i++ {
			for j := i + 1; j < len(blockA); j++ {
				fn(graph.MakePair(blockA[i], blockA[j]))
			}
		}
		return
	}
	for _, x := range blockA {
		for _, y := range blockB {
			fn(graph.MakePair(x, y))
		}
	}
}

// pairCountBetween returns |P(A, B)| without enumerating it.
func (p *Partitions) pairCountBetween(a, b int) int {
	if a == b {
		k := len(p.Coarse[a])
		return k * (k - 1) / 2
	}
	return len(p.Coarse[a]) * len(p.Coarse[b])
}

// expectedCoveringPairs returns the expected total number of sampled pairs
// across all search labels, Σ |P(u,v)|·prob — the pre-sizing hint for the
// Step 2 buffers.
func (p *Partitions) expectedCoveringPairs(params Params) int {
	prob := params.coverSampleProb(p.n)
	q := p.NumCoarse()
	total := 0
	for u := 0; u < q; u++ {
		for v := 0; v < q; v++ {
			total += p.pairCountBetween(u, v)
		}
	}
	return int(float64(total*p.NumFine()) * prob)
}

// Covering is one node's random covering set Λx(u,v) with the pair weights
// it loaded (Step 2 of ComputePairs).
type Covering struct {
	Label SearchLabel
	// Pairs are the kept pairs (members of S with an existing edge),
	// paired with their weights.
	Pairs   []graph.Pair
	Weights []int64
}

// ErrNotWellBalanced reports a Lemma 2 abort: some covering set exceeded
// its per-endpoint balance bound, so the protocol run must be retried with
// fresh randomness.
type NotWellBalancedError struct {
	Label  SearchLabel
	Vertex int
	Count  int
	Bound  int
}

func (e *NotWellBalancedError) Error() string {
	return fmt.Sprintf("triangles: covering Λ%d(%d,%d) not well-balanced: vertex %d has %d pairs, bound %d",
		e.Label.X, e.Label.U, e.Label.V, e.Vertex, e.Count, e.Bound)
}

// sampleCovering draws Λx(u,v) ⊆ P(u,v) with the Section 5.1 process: each
// pair joins independently with probability CoverSample·log(n)/√n. The
// returned covering holds every sampled pair (membership in S and edge
// existence are filtered later, during the weight-loading exchange). It
// returns a NotWellBalancedError if any endpoint exceeds the balance bound.
func (p *Partitions) sampleCovering(label SearchLabel, params Params, rng *xrand.Source) ([]graph.Pair, error) {
	return p.sampleCoveringBuf(label, params, rng, nil, nil)
}

// sampleCoveringBuf is sampleCovering with caller-provided scratch: pairs
// (reused as the backing for the returned slice, valid until the caller's
// next sampleCoveringBuf call with the same buffer) and perVertex (length
// n, will be reset). Step 2 calls this once per search label per promise
// call; the scratch removes both per-label allocations.
func (p *Partitions) sampleCoveringBuf(label SearchLabel, params Params, rng *xrand.Source, buf []graph.Pair, perVertex []int32) ([]graph.Pair, error) {
	prob := params.coverSampleProb(p.n)
	coin := xrand.NewBoolSampler(prob)
	bound := params.wellBalancedBound(p.n)
	if perVertex == nil {
		perVertex = make([]int32, p.n)
	}
	pairs := buf[:0]
	if cap(pairs) == 0 {
		pairs = make([]graph.Pair, 0, int(float64(p.pairCountBetween(label.U, label.V))*prob)+8)
	}
	// The pair loops below visit P(U, V) in exactly the order
	// forEachPairBetween does — one random bit per pair, so the iteration
	// order is part of the deterministic replay contract. They are inlined
	// here (this is the innermost Step 2 sampling loop) with the pair
	// normalization hoisted: coarse blocks are disjoint ascending ranges,
	// so within one label every pair has the same orientation.
	blockA := p.Coarse[label.U]
	blockB := p.Coarse[label.V]
	if label.U == label.V {
		for i := 0; i < len(blockA); i++ {
			for j := i + 1; j < len(blockA); j++ {
				if !coin.Draw(rng) {
					continue
				}
				pr := graph.Pair{U: blockA[i], V: blockA[j]}
				pairs = append(pairs, pr)
				perVertex[pr.U]++
				perVertex[pr.V]++
			}
		}
	} else {
		flip := label.U > label.V
		for _, x := range blockA {
			for _, y := range blockB {
				if !coin.Draw(rng) {
					continue
				}
				pr := graph.Pair{U: x, V: y}
				if flip {
					pr = graph.Pair{U: y, V: x}
				}
				pairs = append(pairs, pr)
				perVertex[pr.U]++
				perVertex[pr.V]++
			}
		}
	}
	// Well-balancedness (Section 5.1): for every u in block u, the number
	// of sampled pairs touching it must stay within the bound. The paper
	// states the condition for u ∈ u; by symmetry of P(u,v) we check both
	// endpoints.
	var violation *NotWellBalancedError
	for _, pr := range pairs {
		if c := int(perVertex[pr.U]); c > bound {
			violation = &NotWellBalancedError{Label: label, Vertex: pr.U, Count: c, Bound: bound}
			break
		}
		if c := int(perVertex[pr.V]); c > bound {
			violation = &NotWellBalancedError{Label: label, Vertex: pr.V, Count: c, Bound: bound}
			break
		}
	}
	// Re-zero the touched counters so the scratch is clean for the next
	// label.
	for _, pr := range pairs {
		perVertex[pr.U] = 0
		perVertex[pr.V] = 0
	}
	if violation != nil {
		return nil, violation
	}
	return pairs, nil
}

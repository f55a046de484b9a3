package triangles

import (
	"context"
	"math"

	"qclique/internal/congest"
	"qclique/internal/graph"
)

// This file implements the classical Õ(n^{1/3})-round triangle-listing
// algorithm of Dolev, Lenzen and Peled ("Tri, Tri Again", DISC 2012), which
// the paper identifies (Section 1, "Other related works") as the
// combinatorial baseline: being non-algebraic it lists *negative* triangles
// just as well, and through the paper's reduction chain it yields a
// classical Õ(n^{1/3} log W) APSP — the Censor-Hillel et al. complexity our
// quantum pipeline is measured against.
//
// The scheme: partition V into p ≈ n^{1/3} blocks of ≈ n^{2/3} vertices.
// There are p³ ≈ n block triples; triple (i,j,k) is assigned to a physical
// node, which gathers the three bipartite weight tables between its blocks
// (O(n^{4/3}) words, delivered by Lemma-1 routing in O(n^{1/3}) rounds) and
// enumerates all triangles with one vertex in each block locally.

// DolevReport is the outcome of DolevFindEdges.
type DolevReport struct {
	// Edges holds every pair of S involved in a negative triangle.
	Edges *graph.PairSet
	// Rounds is the total CONGEST-CLIQUE rounds charged.
	Rounds int64
	// Metrics is the aggregate accounting.
	Metrics congest.Metrics
	// Blocks is the partition parameter p ≈ n^{1/3}.
	Blocks int
}

// DolevFindEdges solves FindEdges (no promise needed — the listing is
// exhaustive and deterministic) on the given instance.
func DolevFindEdges(inst Instance, net *congest.Network) (*DolevReport, error) {
	return DolevFindEdgesCtx(context.Background(), inst, net)
}

// DolevFindEdgesCtx is DolevFindEdges with a cancellation checkpoint per
// outer block of the triple-enumeration loop: a solve under a deadline
// stops between blocks instead of enumerating all p³ triples. Checkpoints
// charge nothing and do not perturb the rounds of completed runs.
func DolevFindEdgesCtx(ctx context.Context, inst Instance, net *congest.Network) (*DolevReport, error) {
	if err := inst.check(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	n := inst.G.N()
	var err error
	if net == nil {
		net, err = congest.NewNetwork(n)
		if err != nil {
			return nil, err
		}
	}
	p := int(math.Round(math.Cbrt(float64(n))))
	if p < 1 {
		p = 1
	}
	blocks := splitEven(n, p)
	p = len(blocks)
	blockOf := make([]int, n)
	for bi, blk := range blocks {
		for _, v := range blk {
			blockOf[v] = bi
		}
	}
	legs := inst.legs()

	// Data gathering: triple (i,j,k) hosted on node (i·p² + j·p + k) mod n
	// receives the three block-pair weight tables. Each table's rows are
	// routed from their row vertex (which owns that row of the adjacency
	// structure).
	var loads []congest.Load
	tripleNode := func(i, j, k int) congest.NodeID {
		return congest.NodeID((i*p*p + j*p + k) % n)
	}
	for i := 0; i < p; i++ {
		for j := i; j < p; j++ {
			for k := j; k < p; k++ {
				dst := tripleNode(i, j, k)
				// Tables needed: (i,j), (i,k), (j,k). Rows of table (a,b)
				// are sent by the vertices of block a, |block b| words each.
				for _, tb := range [][2]int{{i, j}, {i, k}, {j, k}} {
					for _, v := range blocks[tb[0]] {
						src := congest.NodeID(v)
						if src == dst {
							continue
						}
						loads = append(loads, congest.Load{Src: src, Dst: dst, Words: int64(len(blocks[tb[1]]))})
					}
				}
			}
		}
	}
	if err := net.ChargeBalanced("dolev/gather", loads); err != nil {
		return nil, err
	}

	// Local enumeration at every triple node. The pair edge {a,b} must be
	// in G (its weight defines negativity together with the legs in Legs);
	// each of the three edges of a triangle plays the pair role for its
	// own output, so a triangle is "negative" for output purposes exactly
	// when all three edges exist with total weight < 0. When Legs differs
	// from G (Proposition 1 instances), a pair {a,b} of S is reported if
	// the two legs exist in Legs and the closing edge exists in G.
	edges := graph.NewPairSet(n)
	report := func(a, b, c int) {
		// Pair {a,b} with apex c.
		if !inst.inS(a, b) {
			return
		}
		fab, ok := inst.G.Weight(a, b)
		if !ok {
			return
		}
		la, ok := legs.Weight(a, c)
		if !ok {
			return
		}
		lb, ok := legs.Weight(b, c)
		if !ok {
			return
		}
		// Compare the legs' sum with −fab, as legSumBelow does: folding
		// fab into the sum saturates it at −Inf once the threshold reaches
		// Inf, and every leg sum would then read as negative.
		if graph.SaturatingAdd(la, lb) < -fab {
			edges.Add(graph.MakePair(a, b))
		}
	}
	for i := 0; i < p; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for j := i; j < p; j++ {
			for k := j; k < p; k++ {
				for _, a := range blocks[i] {
					for _, b := range blocks[j] {
						if a >= b {
							continue
						}
						for _, c := range blocks[k] {
							if c == a || c == b {
								continue
							}
							// All three rotations: each edge of {a,b,c} as
							// the pair.
							report(a, b, c)
							report(a, c, b)
							report(b, c, a)
						}
					}
				}
			}
		}
	}

	// Output delivery to pair endpoints, as in ComputePairs.
	var outLoads []congest.Load
	for pr := range edges.All() {
		src := tripleNode(blockOf[pr.U], blockOf[pr.V], blockOf[pr.U])
		for _, owner := range []int{pr.U, pr.V} {
			if src == congest.NodeID(owner) {
				continue
			}
			outLoads = append(outLoads, congest.Load{Src: src, Dst: congest.NodeID(owner), Words: 1})
		}
	}
	if err := net.ChargeBalanced("dolev/output", outLoads); err != nil {
		return nil, err
	}

	return &DolevReport{
		Edges:   edges,
		Rounds:  net.Rounds(),
		Metrics: net.Metrics(),
		Blocks:  p,
	}, nil
}

package triangles

import (
	"fmt"
	"math"
	"slices"

	"qclique/internal/congest"
	"qclique/internal/xrand"
)

// This file implements Algorithm IdentifyClass (Figure 2): a cheap random
// sample R of the pairs in S is broadcast, every triple-labeled node
// (u,v,w) locally counts the sampled pairs of P(u,v) that close a negative
// triangle through its fine block w, and quantizes that count into a class
// c_uvw. Proposition 5 shows the classes track |Δ(u,v;w)| within constant
// factors with probability 1 − 2/n.

// IdentifyAbortError reports the Figure 2 Step 1 abort: some node sampled
// more than ClassAbort·log n pairs. The caller retries with fresh
// randomness.
type IdentifyAbortError struct {
	Vertex int
	Count  int
	Bound  int
}

func (e *IdentifyAbortError) Error() string {
	return fmt.Sprintf("triangles: IdentifyClass abort: node %d sampled %d pairs, bound %d",
		e.Vertex, e.Count, e.Bound)
}

// rPair is one broadcast element of R: a sampled pair and its weight in G.
type rPair struct {
	a, b int
	w    int64
}

// classification is the outcome of IdentifyClass: a class per triple label
// and, per (u,v) group, the fine blocks of each class.
type classification struct {
	pt       *Partitions
	classOf  []int // per TripleIndex
	maxClass int
}

// classesFor returns T_α[u,v]: the fine-block indices w with c_uvw = α.
func (c *classification) classesFor(u, v, alpha int) []int {
	return c.appendClassesFor(nil, u, v, alpha)
}

// appendClassesFor appends T_α[u,v] to dst, the arena-friendly form used by
// the evaluation builder.
func (c *classification) appendClassesFor(dst []int, u, v, alpha int) []int {
	s := c.pt.NumFine()
	for w := 0; w < s; w++ {
		ti := c.pt.TripleIndex(TripleLabel{U: u, V: v, W: w})
		if c.classOf[ti] == alpha {
			dst = append(dst, w)
		}
	}
	return dst
}

// maxClassSize returns max over (u,v) of |T_α[u,v]|, the padded search
// space size for class α.
func (c *classification) maxClassSize(alpha int) int {
	q := c.pt.NumCoarse()
	best := 0
	for u := 0; u < q; u++ {
		for v := 0; v < q; v++ {
			if n := len(c.classesFor(u, v, alpha)); n > best {
				best = n
			}
		}
	}
	return best
}

// runIdentifyClass executes Figure 2 on the network. inst supplies S and
// the pair weights; pl supplies the Step 1 leg tables.
func runIdentifyClass(net *congest.Network, pt *Partitions, inst *Instance, pl *placement, params Params, sc *Scratch, rng *xrand.Source) (*classification, error) {
	n := pt.N()
	prob := params.classSampleProb(n)
	abortBound := params.classAbortBound(n)

	// Step 1: each node u samples Λ(u) ⊆ {v : {u,v} ∈ S}. The sample list
	// and per-node streams come from the scratch — this loop used to be the
	// pipeline's dominant object-allocation site (one PCG source per node
	// per promise call).
	r := sc.idPairs[:0]
	maxWords := int64(0)
	idSplit := rng.SplitterFor("identify-sample")
	coin := xrand.NewBoolSampler(prob)
	for u := 0; u < n; u++ {
		nodeRng := idSplit.Into(sc.sampleRng(), u)
		count := 0
		var words int64
		for v := 0; v < n; v++ {
			if v == u || !inst.inS(u, v) {
				continue
			}
			if !coin.Draw(nodeRng) {
				continue
			}
			count++
			if count > abortBound {
				// The abort itself is announced with a one-word broadcast.
				_ = net.Broadcast("identifyclass/abort", congest.NodeID(u), 1)
				return nil, &IdentifyAbortError{Vertex: u, Count: count, Bound: abortBound}
			}
			// Pairs without an edge in G cannot lie in a triangle; they are
			// dropped from the broadcast (they would contribute zero to
			// every d_uvw).
			w, ok := inst.G.Weight(u, v)
			if !ok {
				continue
			}
			r = append(r, rPair{a: u, b: v, w: w})
			words += 2 // destination vertex + weight
		}
		if words > maxWords {
			maxWords = words
		}
	}
	sc.idPairs = r
	// All nodes broadcast their Λ(u) (with weights) simultaneously; the
	// phase costs the maximum per-node word count, Θ(log n).
	if err := net.BroadcastAll("identifyclass/broadcast-R", maxWords); err != nil {
		return nil, err
	}

	// Step 2: local counting at every triple node. The class array is
	// scratch-backed (every triple's entry is assigned below); the buckets
	// keep their grown capacity across calls.
	if cap(sc.classOf) < pt.NumTriples() {
		sc.classOf = make([]int, pt.NumTriples())
	}
	cls := &classification{pt: pt, classOf: sc.classOf[:pt.NumTriples()]}
	// Bucket R by unordered (u,v) group, u ≤ v, to avoid rescanning all of
	// R per triple. The (v,u) bucket would hold the same pairs with their
	// endpoints swapped, and legSumBelow is symmetric in the two endpoints
	// (SaturatingAdd is commutative, ±Inf included), so (u,v,w) and
	// (v,u,w) count the same d: each unordered group is counted once and
	// both orientations take its class.
	q := pt.NumCoarse()
	if cap(sc.idBuckets) < q*q {
		sc.idBuckets = make([][]rPair, q*q)
	}
	buckets := sc.idBuckets[:q*q]
	for i := range buckets {
		buckets[i] = buckets[i][:0]
	}
	for _, rp := range r {
		bu := pt.CoarseOf(rp.a)
		bv := pt.CoarseOf(rp.b)
		if bu > bv {
			bu, bv = bv, bu
			rp.a, rp.b = rp.b, rp.a
		}
		buckets[bu*q+bv] = append(buckets[bu*q+bv], rp)
	}
	s := pt.NumFine()
	for u := 0; u < q; u++ {
		for v := u; v < q; v++ {
			group := buckets[u*q+v]
			for w := 0; w < s; w++ {
				d := 0
				for _, rp := range group {
					if pl.legSumBelow(u, v, w, rp.a, rp.b, -rp.w) {
						d++
					}
				}
				c := classForCount(d, n, params)
				cls.classOf[pt.TripleIndex(TripleLabel{U: u, V: v, W: w})] = c
				cls.classOf[pt.TripleIndex(TripleLabel{U: v, V: u, W: w})] = c
				cls.maxClass = max(cls.maxClass, c)
			}
		}
	}

	// Triple nodes announce their class to the √n search nodes of their
	// (u,v) group: one word per (triple, x) pair, Lemma-1 balanced. The
	// list depends only on the partitions, so it is built and tallied once
	// per n and every other promise call commits the cached tally.
	err := sc.annCharge.commit(net, "identifyclass/announce-classes", n, func(loads []congest.Load) []congest.Load {
		loads = slices.Grow(loads, pt.NumTriples()*s)
		for ti := range cls.classOf {
			t := pt.TripleFromIndex(ti)
			src := pt.TripleNode(t)
			for x := 0; x < s; x++ {
				dst := pt.SearchNode(SearchLabel{U: t.U, V: t.V, X: x})
				if src == dst {
					continue
				}
				loads = append(loads, congest.Load{Src: src, Dst: dst, Words: 1})
			}
		}
		return loads
	})
	if err != nil {
		return nil, err
	}
	return cls, nil
}

// classForCount quantizes d_uvw into the smallest c ≥ 0 with
// d < ClassThreshold·2^c·log n (Figure 2 Step 2).
func classForCount(d, n int, params Params) int {
	c := 0
	for float64(d) >= params.classThreshold(n, c) {
		c++
		if c > 64 {
			// Unreachable for any d ≤ n², kept as an overflow guard.
			break
		}
	}
	return c
}

// deltaSize computes |Δ(u,v;w)| exactly (Definition 3): the number of
// pairs of P(u,v) ∩ S involved in a negative triangle through fine block
// w. It is the quantity Proposition 5's classes approximate; exported to
// the experiment harness via DeltaSize.
func deltaSize(pt *Partitions, inst *Instance, pl *placement, u, v, w int) int {
	count := 0
	for _, pr := range pt.PairsBetween(u, v) {
		if !inst.inS(pr.U, pr.V) {
			continue
		}
		fw, ok := inst.G.Weight(pr.U, pr.V)
		if !ok {
			continue
		}
		a, b := pr.U, pr.V
		if pt.CoarseOf(a) != u {
			a, b = b, a
		}
		if pl.legSumBelow(u, v, w, a, b, -fw) {
			count++
		}
	}
	return count
}

// Proposition5Bounds returns the interval [lo, hi] that |Δ(u,v;w)| must
// occupy for class α per Proposition 5: class 0 means |Δ| ≤ 2n; class
// α > 0 means 2^{α-3}·n ≤ |Δ| ≤ 2^{α+1}·n. The paper's thresholds are
// stated for the verbatim constants; the returned interval scales with
// Params.ClassThreshold relative to its paper value of 10.
func Proposition5Bounds(alpha, n int, params Params) (lo, hi float64) {
	scale := params.ClassThreshold / 10.0
	if alpha == 0 {
		return 0, 2 * scale * float64(n)
	}
	return math.Pow(2, float64(alpha-3)) * scale * float64(n),
		math.Pow(2, float64(alpha+1)) * scale * float64(n)
}

package approx

// The (2+ε) skeleton strategy, in the spirit of Censor-Hillel–Dory–
// Korhonen–Leitersdorf (arXiv:1903.05956): every node computes its k
// nearest neighbors exactly, a random skeleton that hits every k-nearest
// ball is sampled (and deterministically patched so the hitting property
// is unconditional, not whp), multi-source distances from the skeleton are
// solved on the (1+ε/2) value ladder, and each pair (u,v) takes the best
// of (a) a k-nearest "straddle" path u → w → w' → v where w,w' are
// adjacent and see u resp. v in their k-nearest balls, and (b) a two-leg
// route through a skeleton hub.
//
// Stretch argument (weight-symmetric, nonnegative weights; D = d(u,v)):
// pick m, the last node on a shortest u–v path with d(u,m) ≤ D/2, and its
// successor m' (so d(m',v) < D/2). If u ∈ N_k(m) and v ∈ N_k(m'), the
// straddle term through the arc (m,m') is exactly D. Otherwise one of the
// two balls has radius ≤ D/2 (it excludes a node at distance ≤ D/2), so it
// contains a skeleton node s with d(·,s) ≤ D/2 and the hub term is at most
// (1+ε/2)·(2·d(·,s) + D) ≤ (2+ε)·D. All terms are genuine walk lengths,
// so estimates never undercut D and reachability is preserved exactly.
//
// Round accounting follows the phases the simulation actually performs on
// an n-node clique: k-nearest lists (2k words per node) are re-broadcast
// once per relaxation hop, skeleton membership costs one broadcast word,
// and the multi-source phase broadcasts |S| tentative distances per node
// per hop. The hop counts are the true shortest-path-tree depths of the
// run, measured centrally.
//
// The strategy is factored into a skeletonRun whose phase methods
// (knnBalls, sampleSkeleton, mssp, combine) are the stages of the engine
// pipeline (strategy.go). Phase methods take a context and checkpoint
// their per-node loops, so a solve under a deadline stops between
// Dijkstra runs rather than after the full phase.

import (
	"context"
	"fmt"
	"math"

	"qclique/internal/congest"
	"qclique/internal/graph"
	"qclique/internal/matrix"
	"qclique/internal/xrand"
)

// SkeletonOptions configures the (2+ε) skeleton strategy.
type SkeletonOptions struct {
	// Epsilon is the slack over the factor-2 guarantee (> 0).
	Epsilon float64
	// Seed drives the skeleton sampling.
	Seed uint64
	// Net is the n-node network the phases charge against (required).
	Net *congest.Network
	// K overrides the k-nearest ball size; <= 0 selects ⌈√(n·(1+log₂ n))⌉.
	K int
}

// SkeletonStats reports what a skeleton run did.
type SkeletonStats struct {
	// K is the k-nearest ball size used.
	K int
	// SkeletonSize is |S| after sampling and patching.
	SkeletonSize int
	// Patched counts nodes added to S because sampling missed their ball.
	Patched int
	// KNNHops and MSSPHops are the shortest-path-tree depths that set the
	// iteration counts of the two communication phases.
	KNNHops, MSSPHops int
}

// knnEntry is one member of a k-nearest ball: vertex and exact distance.
type knnEntry struct {
	v int
	d int64
}

// skeletonRun is the mutable state of one (2+ε) skeleton solve, shared by
// its phase methods.
type skeletonRun struct {
	g     *graph.Digraph
	opts  SkeletonOptions
	n     int
	k     int
	stats *SkeletonStats
	dist  *matrix.Matrix

	balls    [][]knnEntry
	skeleton []int
	hub      [][]int64
}

// newSkeletonRun validates the input and sizes the ball parameter.
func newSkeletonRun(g *graph.Digraph, opts SkeletonOptions) (*skeletonRun, error) {
	if !ValidEpsilon(opts.Epsilon) {
		return nil, fmt.Errorf("%w (got %v)", ErrBadEpsilon, opts.Epsilon)
	}
	if opts.Net == nil {
		return nil, fmt.Errorf("approx: Skeleton requires a network")
	}
	if g.HasNegativeArc() {
		return nil, ErrNegativeWeight
	}
	if !g.IsSymmetric() {
		return nil, ErrAsymmetric
	}
	n := g.N()
	r := &skeletonRun{g: g, opts: opts, n: n, stats: &SkeletonStats{}, dist: matrix.New(n)}
	for i := 0; i < n; i++ {
		r.dist.Set(i, i, 0)
	}
	if n <= 1 {
		return r, nil
	}
	k := opts.K
	if k <= 0 {
		k = int(math.Ceil(math.Sqrt(float64(n) * (1 + math.Log2(float64(n))))))
	}
	if k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}
	r.k = k
	r.stats.K = k
	return r, nil
}

// trivial reports that the instance needs no phases (n ≤ 1).
func (r *skeletonRun) trivial() bool { return r.n <= 1 }

// knnBalls is phase 1: exact k-nearest balls (self included at distance
// 0), via per-node truncated Dijkstra; ties break toward the smaller
// vertex id so the ball is deterministic. The hop depth of the deepest
// ball sets the relaxation-iteration count the phase is charged for.
func (r *skeletonRun) knnBalls(ctx context.Context) error {
	// Re-entrant under stage retry: rebuild the balls and the hop depth from
	// scratch so a re-run after an injected fault converges to the same state.
	r.balls = make([][]knnEntry, r.n)
	r.stats.KNNHops = 0
	for u := 0; u < r.n; u++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		ball, hops := truncatedDijkstra(r.g, u, r.k, nil)
		r.balls[u] = ball
		if hops > r.stats.KNNHops {
			r.stats.KNNHops = hops
		}
	}
	for i := 0; i < r.stats.KNNHops; i++ {
		if err := r.opts.Net.BroadcastAll("approx/knn", 2*int64(r.k)); err != nil {
			return err
		}
	}
	return nil
}

// sampleSkeleton is phase 2: skeleton sampling with deterministic
// patching — every ball must contain a skeleton node for the stretch
// argument to hold unconditionally, so nodes whose ball the sample missed
// join S themselves. Membership is announced with one broadcast word.
func (r *skeletonRun) sampleSkeleton(context.Context) error {
	// Re-entrant under stage retry: the sample is a pure function of the
	// seed, so resetting the outputs makes a re-run bit-identical.
	r.skeleton = r.skeleton[:0]
	r.stats.Patched = 0
	r.stats.SkeletonSize = 0
	rng := xrand.New(r.opts.Seed).Split("skeleton")
	p := math.Min(1, 2*(math.Log(float64(r.n))+1)/float64(r.k))
	inS := make([]bool, r.n)
	for u := 0; u < r.n; u++ {
		if rng.Bool(p) {
			inS[u] = true
		}
	}
	for u := 0; u < r.n; u++ {
		hit := false
		for _, e := range r.balls[u] {
			if inS[e.v] {
				hit = true
				break
			}
		}
		if !hit {
			inS[u] = true
			r.stats.Patched++
		}
	}
	for u := 0; u < r.n; u++ {
		if inS[u] {
			r.skeleton = append(r.skeleton, u)
		}
	}
	r.stats.SkeletonSize = len(r.skeleton)
	return r.opts.Net.BroadcastAll("approx/skeleton", 1)
}

// mssp is phase 3: multi-source distances from the skeleton on the
// (1+ε/2) ladder — the simulated stand-in for the approximate multi-source
// machinery of arXiv:1903.05956, and the place the ε knob bites.
func (r *skeletonRun) mssp(ctx context.Context) error {
	w := r.g.MaxAbsWeight()
	ladder, err := Ladder(r.opts.Epsilon/2, w)
	if err != nil {
		return err
	}
	snapped := func(u, v int) (int64, bool) {
		wt, ok := r.g.Weight(u, v)
		if !ok {
			return 0, false
		}
		return SnapUp(wt, ladder), true
	}
	r.hub = make([][]int64, len(r.skeleton))
	r.stats.MSSPHops = 0
	for si, s := range r.skeleton {
		if err := ctx.Err(); err != nil {
			return err
		}
		row, hops := fullDijkstra(r.g, s, snapped)
		r.hub[si] = row
		if hops > r.stats.MSSPHops {
			r.stats.MSSPHops = hops
		}
	}
	for i := 0; i < r.stats.MSSPHops; i++ {
		if err := r.opts.Net.BroadcastAll("approx/mssp", int64(len(r.skeleton))); err != nil {
			return err
		}
	}
	return nil
}

// combine is phase 4 (local): through-ball terms u → w → v, straddle
// terms u → w → w' → v over every arc (w,w'), and skeleton-hub terms
// u → s → v. Every term is a genuine walk length, so the minimum never
// undercuts the true distance.
func (r *skeletonRun) combine(ctx context.Context) error {
	relax := func(u, v int, cand int64) {
		if cand < r.dist.At(u, v) {
			r.dist.Set(u, v, cand)
		}
	}
	for w := 0; w < r.n; w++ {
		for _, eu := range r.balls[w] {
			for _, ev := range r.balls[w] {
				relax(eu.v, ev.v, graph.SaturatingAdd(eu.d, ev.d))
			}
		}
	}
	for w := 0; w < r.n; w++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		for wp := 0; wp < r.n; wp++ {
			wt, ok := r.g.Weight(w, wp)
			if !ok {
				continue
			}
			for _, eu := range r.balls[w] {
				leg := graph.SaturatingAdd(eu.d, wt)
				for _, ev := range r.balls[wp] {
					relax(eu.v, ev.v, graph.SaturatingAdd(leg, ev.d))
				}
			}
		}
	}
	for si := range r.skeleton {
		row := r.hub[si]
		for u := 0; u < r.n; u++ {
			if row[u] >= graph.Inf {
				continue
			}
			for v := 0; v < r.n; v++ {
				relax(u, v, graph.SaturatingAdd(row[u], row[v]))
			}
		}
	}
	return nil
}

// truncatedDijkstra returns the k nearest vertices to src (src included at
// distance 0, ties broken toward smaller ids) with exact distances under
// the optional weight override, plus the hop depth of the resulting tree.
func truncatedDijkstra(g *graph.Digraph, src, k int, weight func(u, v int) (int64, bool)) ([]knnEntry, int) {
	if weight == nil {
		weight = g.Weight
	}
	n := g.N()
	d := make([]int64, n)
	hops := make([]int, n)
	done := make([]bool, n)
	for i := range d {
		d[i] = graph.Inf
	}
	d[src] = 0
	out := make([]knnEntry, 0, k)
	maxHops := 0
	for len(out) < k {
		u, best := -1, graph.Inf
		for v := 0; v < n; v++ {
			if !done[v] && d[v] < best {
				u, best = v, d[v]
			}
		}
		if u == -1 {
			break // fewer than k reachable vertices
		}
		done[u] = true
		out = append(out, knnEntry{v: u, d: d[u]})
		if hops[u] > maxHops {
			maxHops = hops[u]
		}
		for v := 0; v < n; v++ {
			w, ok := weight(u, v)
			if !ok || done[v] {
				continue
			}
			if alt := graph.SaturatingAdd(d[u], w); alt < d[v] {
				d[v] = alt
				hops[v] = hops[u] + 1
			}
		}
	}
	return out, maxHops
}

// fullDijkstra returns exact single-source distances from src under the
// weight override, plus the hop depth of the shortest-path tree.
func fullDijkstra(g *graph.Digraph, src int, weight func(u, v int) (int64, bool)) ([]int64, int) {
	entries, maxHops := truncatedDijkstra(g, src, g.N(), weight)
	row := make([]int64, g.N())
	for i := range row {
		row[i] = graph.Inf
	}
	for _, e := range entries {
		row[e.v] = e.d
	}
	return row, maxHops
}

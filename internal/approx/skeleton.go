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
	"math"

	"qclique/internal/congest"
	"qclique/internal/engine"
	"qclique/internal/graph"
	"qclique/internal/matrix"
	"qclique/internal/xrand"
)

// knnEntry is one member of a k-nearest ball: vertex and exact distance.
type knnEntry struct {
	v int
	d int64
}

// skeletonRun is the mutable state of one (2+ε) skeleton solve, shared by
// its phase methods, which charge net.
type skeletonRun struct {
	req  *engine.Request
	net  *congest.Network
	n    int
	k    int // the k-nearest ball size
	dist *matrix.Matrix

	balls    [][]knnEntry
	skeleton []int
	hub      [][]int64
}

// newSkeletonRun checks the input class and sizes the ball parameter.
func newSkeletonRun(req *engine.Request, net *congest.Network) (*skeletonRun, error) {
	if req.G.HasNegativeArc() {
		return nil, ErrNegativeWeight
	}
	if !req.G.IsSymmetric() {
		return nil, ErrAsymmetric
	}
	n := req.G.N()
	r := &skeletonRun{req: req, net: net, n: n, dist: matrix.New(n)}
	for i := 0; i < n; i++ {
		r.dist.Set(i, i, 0)
	}
	if n <= 1 {
		return r, nil
	}
	k := int(math.Ceil(math.Sqrt(float64(n) * (1 + math.Log2(float64(n))))))
	r.k = min(k, n)
	return r, nil
}

// trivial reports that the instance needs no phases (n ≤ 1).
func (r *skeletonRun) trivial() bool { return r.n <= 1 }

// knnBalls is phase 1: exact k-nearest balls (self included at distance
// 0), via per-node truncated Dijkstra; ties break toward the smaller
// vertex id so the ball is deterministic. The hop depth of the deepest
// ball sets the relaxation-iteration count the phase is charged for.
func (r *skeletonRun) knnBalls(ctx context.Context) error {
	r.balls = make([][]knnEntry, r.n)
	maxHops := 0
	for u := 0; u < r.n; u++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		ball, hops := truncatedDijkstra(r.req.G, u, r.k, nil)
		r.balls[u] = ball
		maxHops = max(maxHops, hops)
	}
	for i := 0; i < maxHops; i++ {
		if err := r.net.BroadcastAll("approx/knn", 2*int64(r.k)); err != nil {
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
	rng := xrand.New(r.req.Seed).Split("skeleton")
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
		}
	}
	for u := 0; u < r.n; u++ {
		if inS[u] {
			r.skeleton = append(r.skeleton, u)
		}
	}
	return r.net.BroadcastAll("approx/skeleton", 1)
}

// mssp is phase 3: multi-source distances from the skeleton on the
// (1+ε/2) ladder — the simulated stand-in for the approximate multi-source
// machinery of arXiv:1903.05956, and the place the ε knob bites.
func (r *skeletonRun) mssp(ctx context.Context) error {
	g := r.req.G
	ladder, err := Ladder(r.req.Epsilon/2, g.MaxAbsWeight())
	if err != nil {
		return err
	}
	snapped := func(u, v int) (int64, bool) {
		wt, ok := g.Weight(u, v)
		if !ok {
			return 0, false
		}
		return SnapUp(wt, ladder), true
	}
	r.hub = make([][]int64, len(r.skeleton))
	maxHops := 0
	for si, s := range r.skeleton {
		if err := ctx.Err(); err != nil {
			return err
		}
		row, hops := fullDijkstra(g, s, snapped)
		r.hub[si] = row
		maxHops = max(maxHops, hops)
	}
	for i := 0; i < maxHops; i++ {
		if err := r.net.BroadcastAll("approx/mssp", int64(len(r.skeleton))); err != nil {
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
			wt, ok := r.req.G.Weight(w, wp)
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

// Package distprod implements Proposition 2: computing the distance
// product of two matrices by binary search over a threshold matrix D,
// using a FindEdges solver on the Vassilevska Williams–Williams tripartite
// construction as the comparison oracle. It also provides the naive
// full-gossip distance product used by the O(n)-round baseline.
//
// The tripartite graph on I ∪ J ∪ K (|I|=|J|=|K|=n) has f(i,k) = A[i,k],
// f(j,k) = B[k,j] and f(i,j) = −D[i,j]; the pair {i,j} lies in a negative
// triangle exactly when min_k{A[i,k]+B[k,j]} < D[i,j]. The n-node network
// simulates the 3n-vertex instance with each node playing three vertices
// (a constant-factor overhead); the simulation realizes this as a 3n-node
// clique, which preserves the round-complexity shape.
//
// Chain is the Proposition 3 squaring chain over that product, the one
// chain every FindEdges-driven pipeline builds its square stages from.
package distprod

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"qclique/internal/congest"
	"qclique/internal/graph"
	"qclique/internal/matrix"
	"qclique/internal/triangles"
	"qclique/internal/xrand"
)

// Solver selects the FindEdges implementation driving the binary search.
type Solver int

const (
	// SolverQuantum uses the paper's Õ(n^{1/4}) quantum FindEdges
	// (Proposition 1 reduction over ComputePairs with Grover search).
	SolverQuantum Solver = iota + 1
	// SolverClassicalScan uses ComputePairs with the classical O(√n)
	// Step 3 scan.
	SolverClassicalScan
	// SolverDolev uses the Dolev–Lenzen–Peled Õ(n^{1/3}) triangle
	// listing (no promise reduction needed).
	SolverDolev
)

func (s Solver) String() string {
	switch s {
	case SolverQuantum:
		return "quantum"
	case SolverClassicalScan:
		return "classical-scan"
	case SolverDolev:
		return "dolev-listing"
	default:
		return fmt.Sprintf("Solver(%d)", int(s))
	}
}

// Options configures the product computation.
type Options struct {
	Solver Solver
	// Params forwards protocol constants to the triangles layer (nil =
	// paper constants).
	Params *triangles.Params
	Seed   uint64
	// Net accumulates costs across calls when non-nil; it must have 3n
	// nodes for an n×n product. When nil a fresh network is created per
	// call.
	Net *congest.Network
	// Workers bounds the host-side parallelism of node-local phases
	// (forwarded to the triangles layer); <= 0 selects GOMAXPROCS.
	Workers int
	// DisableIncremental forces a full tripartite rebuild on every binary
	// search step instead of the in-place threshold-leg rewrite. The two
	// paths are bit-identical (the regression tests assert it); the flag
	// exists so the equivalence stays testable and measurable.
	DisableIncremental bool
	// workspace is the state a Chain's products share (nil: each call
	// builds private state, with identical results).
	workspace *workspace
	// Grid, when non-nil, switches the per-entry binary search from the
	// exact value range [-M, M] to the given candidate ladder: each output
	// entry is the smallest grid value >= the exact product entry (the
	// (1+ε)-approximate product when the grid is a geometric ladder). The
	// search then takes ⌈log₂ |grid ∩ [0,M]|⌉+1 FindEdges calls instead of
	// ⌈log₂(4M+2)⌉+1 — the round-count win of the approximate pipeline.
	// The grid must be sorted in strictly increasing order, start at a
	// nonnegative value, and its last value must be >= the product's weight
	// bound M; grid mode also requires nonnegative inputs (the rounding
	// semantics are multiplicative).
	Grid []int64
	// Ctx, when non-nil, is checked before every binary-search step (each
	// a full FindEdges call) and forwarded to the triangles layer, so a
	// cancelled solve stops at the next step boundary. Checkpoints charge
	// nothing and leave completed steps' accounting untouched.
	Ctx context.Context
}

// ctxErr reports the options context's cancellation state (nil context
// means never cancelled).
func (o Options) ctxErr() error {
	if o.Ctx == nil {
		return nil
	}
	return o.Ctx.Err()
}

// workspace is the reusable state of repeated Product calls: the
// tripartite reduction instance, the binary-search buffers and the
// triangles-layer scratch. The static legs of the tripartite instance
// change between squaring iterations (the input matrices do), but the
// 3n-vertex graph, the pair set S, and every binary-search buffer are
// shape-identical across the whole chain, so they are rebuilt in place
// rather than reallocated. Not safe for concurrent use.
type workspace struct {
	inst    *tripartiteInstance
	d       *matrix.Matrix
	finite  []bool
	lo, hi  []int64
	scratch *triangles.Scratch
}

// triangleScratch returns the triangles-layer scratch this workspace
// threads into its FindEdges calls, creating it on first use.
func (ws *workspace) triangleScratch() *triangles.Scratch {
	if ws.scratch == nil {
		ws.scratch = triangles.NewScratch()
	}
	return ws.scratch
}

// instance returns the reduction instance for (a, b), rebuilding the static
// legs in place when the cached instance has the right shape.
func (ws *workspace) instance(a, b *matrix.Matrix) (*tripartiteInstance, error) {
	if ws.inst != nil && ws.inst.n == a.N() {
		if err := ws.inst.resetStaticLegs(a, b); err != nil {
			return nil, err
		}
		return ws.inst, nil
	}
	inst, err := newTripartite(a, b)
	if err != nil {
		return nil, err
	}
	ws.inst = inst
	return inst, nil
}

// searchBuffers returns the threshold matrix and per-entry binary-search
// state for an n×n product, reused across calls. finite is cleared; lo and
// hi carry stale values but are only read where finite is set.
func (ws *workspace) searchBuffers(n int) (d *matrix.Matrix, finite []bool, lo, hi []int64) {
	if ws.d == nil || ws.d.N() != n {
		ws.d = matrix.New(n)
	}
	if cap(ws.finite) < n*n {
		ws.finite = make([]bool, n*n)
		ws.lo = make([]int64, n*n)
		ws.hi = make([]int64, n*n)
	}
	finite = ws.finite[:n*n]
	clear(finite)
	return ws.d, finite, ws.lo[:n*n], ws.hi[:n*n]
}

// Stats reports the cost drivers of one product.
type Stats struct {
	// BinarySearchSteps is the number of FindEdges invocations,
	// ⌈log₂(4M+2)⌉ + 1 including the infinity probe.
	BinarySearchSteps int
	// Rounds is the total network rounds charged.
	Rounds int64
	// MaxAbs is the M the binary search ranged over.
	MaxAbs int64
}

// tripartite builds the reduction graph for threshold matrix D. Entries of
// A or B that are +Inf are omitted (no leg); -Inf entries are rejected by
// Product before reaching here.
func tripartite(a, b, d *matrix.Matrix) (*graph.Undirected, map[graph.Pair]bool, error) {
	inst, err := newTripartite(a, b)
	if err != nil {
		return nil, nil, err
	}
	if err := inst.ResetThresholdLeg(d); err != nil {
		return nil, nil, err
	}
	return inst.g, inst.s, nil
}

// tripartiteInstance is a reusable Vassilevska Williams–Williams reduction
// instance. The A-leg (I–K) and B-leg (J–K) edges depend only on the input
// matrices and are built once; the binary search then mutates only the
// threshold leg (the n² I–J edges) between FindEdges calls via
// ResetThresholdLeg, replacing the O(n²) full rebuild per step with an
// in-place block rewrite.
type tripartiteInstance struct {
	n   int
	g   *graph.Undirected
	s   map[graph.Pair]bool
	neg []int64 // scratch: row-major -D block handed to SetBipartiteBlock
}

// newTripartite builds the static legs of the reduction instance; the
// threshold leg starts absent and must be installed with ResetThresholdLeg
// before the instance is handed to a solver.
func newTripartite(a, b *matrix.Matrix) (*tripartiteInstance, error) {
	n := a.N()
	inst := &tripartiteInstance{
		n:   n,
		g:   graph.NewUndirected(3 * n),
		s:   make(map[graph.Pair]bool, n*n),
		neg: make([]int64, n*n),
	}
	if err := inst.setStaticLegs(a, b); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			inst.s[graph.MakePair(i, n+j)] = true
		}
	}
	return inst, nil
}

// setStaticLegs installs the A-leg (I–K) and B-leg (J–K) edges.
func (t *tripartiteInstance) setStaticLegs(a, b *matrix.Matrix) error {
	n := t.n
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			if v := a.At(i, k); graph.IsFinite(v) {
				if err := t.g.SetEdge(i, 2*n+k, v); err != nil {
					return err
				}
			}
			if v := b.At(k, i); graph.IsFinite(v) {
				// f(j,k) = B[k,j] with j = i here.
				if err := t.g.SetEdge(n+i, 2*n+k, v); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// resetStaticLegs rebuilds the instance in place for new input matrices of
// the same dimension: every edge (including the threshold leg, which the
// binary search reinstalls before any solve) is cleared and the A/B legs
// are re-set. The pair set S depends only on n and is kept.
func (t *tripartiteInstance) resetStaticLegs(a, b *matrix.Matrix) error {
	t.g.Clear()
	return t.setStaticLegs(a, b)
}

// ResetThresholdLeg rewrites the I–J edges to f(i,j) = -D[i,j] in place,
// leaving the A- and B-leg edges untouched.
func (t *tripartiteInstance) ResetThresholdLeg(d *matrix.Matrix) error {
	if d.N() != t.n {
		return fmt.Errorf("distprod: threshold matrix is %d×%d, instance is %d×%d", d.N(), d.N(), t.n, t.n)
	}
	for i := 0; i < t.n; i++ {
		for j := 0; j < t.n; j++ {
			t.neg[i*t.n+j] = -d.At(i, j)
		}
	}
	return t.g.SetBipartiteBlock(0, t.n, t.n, t.n, t.neg)
}

// FindEdges dispatches one FindEdges call to the configured solver,
// charging opts.Net (the solver builds a private network when it is nil).
func FindEdges(inst triangles.Instance, opts Options, seed uint64) (map[graph.Pair]bool, error) {
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	switch opts.Solver {
	case SolverDolev:
		rep, err := triangles.DolevFindEdgesCtx(ctx, inst, opts.Net)
		if err != nil {
			return nil, err
		}
		return rep.Edges, nil
	case SolverClassicalScan, SolverQuantum:
		mode := triangles.SearchQuantum
		if opts.Solver == SolverClassicalScan {
			mode = triangles.SearchClassicalScan
		}
		var sc *triangles.Scratch
		if opts.workspace != nil {
			sc = opts.workspace.triangleScratch()
		}
		rep, err := triangles.FindEdges(inst, triangles.Options{
			Params:  opts.Params,
			Mode:    mode,
			Seed:    seed,
			Net:     opts.Net,
			Workers: opts.Workers,
			Scratch: sc,
			Ctx:     opts.Ctx,
		})
		if err != nil {
			return nil, err
		}
		return rep.Edges, nil
	default:
		return nil, fmt.Errorf("distprod: unknown solver %v", opts.Solver)
	}
}

// Product computes A ⋆ B through the Proposition 2 binary search. Inputs
// must be free of −Inf entries (+Inf is allowed and means "no path").
func Product(a, b *matrix.Matrix, opts Options) (*matrix.Matrix, *Stats, error) {
	c := matrix.New(a.N())
	stats, err := ProductInto(c, a, b, opts)
	if err != nil {
		return nil, nil, err
	}
	return c, stats, nil
}

// ProductInto is Product writing into a caller-provided matrix, which is
// overwritten entirely; Chain ping-pongs two such matrices through the
// whole squaring chain.
func ProductInto(c *matrix.Matrix, a, b *matrix.Matrix, opts Options) (*Stats, error) {
	if a.N() != b.N() {
		return nil, fmt.Errorf("distprod: dimension mismatch %d vs %d", a.N(), b.N())
	}
	n := a.N()
	if c.N() != n {
		return nil, fmt.Errorf("distprod: destination is %d×%d, want %d×%d", c.N(), c.N(), n, n)
	}
	if n == 0 {
		return &Stats{}, nil
	}
	grid := opts.Grid
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if a.At(i, j) <= graph.NegInf || b.At(i, j) <= graph.NegInf {
				return nil, errors.New("distprod: -Inf entries unsupported")
			}
			if grid != nil && (a.At(i, j) < 0 || b.At(i, j) < 0) {
				return nil, errors.New("distprod: grid mode requires nonnegative inputs")
			}
		}
	}
	if grid != nil {
		if len(grid) == 0 || grid[0] < 0 {
			return nil, errors.New("distprod: grid must be nonempty and nonnegative")
		}
		for t := 1; t < len(grid); t++ {
			if grid[t] <= grid[t-1] {
				return nil, fmt.Errorf("distprod: grid not strictly increasing at index %d", t)
			}
		}
	}
	ws := opts.workspace
	if ws == nil {
		ws = new(workspace)
		opts.workspace = ws
	}
	net := opts.Net
	var err error
	if net == nil {
		net, err = congest.NewNetwork(3 * n)
		if err != nil {
			return nil, err
		}
		opts.Net = net
	}
	baseline := net.Metrics()
	rng := xrand.New(opts.Seed)

	m := a.MaxAbsFinite() + b.MaxAbsFinite() // bound on |C[i,j]| for finite entries
	stats := &Stats{MaxAbs: m}

	// Grid mode searches candidate indices instead of values: gridTop is the
	// first ladder index covering the weight bound, so every finite product
	// entry has its snap-up target inside grid[0..gridTop].
	var gridTop int64
	var zeroDiag bool
	if grid != nil {
		idx := len(grid) - 1
		if grid[idx] < m {
			return nil, fmt.Errorf("distprod: grid top %d does not cover weight bound %d", grid[idx], m)
		}
		gridTop = int64(gridIdxAtLeast(grid, m))
		// Squaring-chain monotonicity: when both inputs have a zero
		// diagonal, C[i,j] ≤ A[i,j] + B[j,j] = A[i,j] (and likewise B[i,j]),
		// so each entry's search can start capped at its current value.
		// Beyond halving depth for converged entries, this keeps the probe
		// thresholds at or below the current distances — and the FindEdges
		// cost of a probe tracks how many pairs sit under its threshold, so
		// low probes are the cheap ones.
		zeroDiag = true
		for i := 0; i < n; i++ {
			if a.At(i, i) != 0 || b.At(i, i) != 0 {
				zeroDiag = false
				break
			}
		}
	}

	// Build (or rebuild in place) the reduction instance once: the A/B legs
	// never change across the binary search, only the threshold leg is
	// rewritten per step.
	var inst *tripartiteInstance
	if !opts.DisableIncremental {
		inst, err = ws.instance(a, b)
		if err != nil {
			return nil, err
		}
	}
	// refresh installs D into the instance, rebuilding from scratch when
	// the incremental path is disabled (regression baseline).
	refresh := func(d *matrix.Matrix) (triangles.Instance, error) {
		if opts.DisableIncremental {
			g, s, err := tripartite(a, b, d)
			if err != nil {
				return triangles.Instance{}, err
			}
			return triangles.Instance{G: g, S: s}, nil
		}
		if err := inst.ResetThresholdLeg(d); err != nil {
			return triangles.Instance{}, err
		}
		return triangles.Instance{G: inst.g, S: inst.s}, nil
	}

	// Infinity probe: with D ≡ m+1, any pair NOT in a negative triangle
	// has C[i,j] ≥ m+1, i.e. C[i,j] = +Inf. The threshold matrix and the
	// per-entry search state live on the workspace, reused across steps,
	// products, and squaring iterations.
	d, finite, lo, hi := ws.searchBuffers(n)
	d.Fill(m + 1)
	if err := opts.ctxErr(); err != nil {
		return nil, err
	}
	ti, err := refresh(d)
	if err != nil {
		return nil, err
	}
	edges, err := FindEdges(ti, opts, rng.SplitN("step", 0).Seed())
	if err != nil {
		return nil, fmt.Errorf("distprod: infinity probe: %w", err)
	}
	stats.BinarySearchSteps++

	// Invariant: C[i,j] ∈ [lo, hi] for finite entries (lo/hi hold stale
	// values elsewhere and are only read under the finite mask). In grid
	// mode lo/hi hold ladder *indices* and the invariant is that the
	// snap-up target grid index lies in [lo, hi].
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if edges[graph.MakePair(i, n+j)] {
				finite[i*n+j] = true
				if grid != nil {
					top := gridTop
					if zeroDiag {
						if bound := min(a.At(i, j), b.At(i, j)); bound < m {
							top = int64(gridIdxAtLeast(grid, bound))
						}
					}
					lo[i*n+j] = 0
					hi[i*n+j] = top
				} else {
					lo[i*n+j] = -m
					hi[i*n+j] = m
				}
			}
		}
	}

	// Per-entry binary search, all entries advanced by one shared
	// FindEdges call per step.
	for step := 1; ; step++ {
		converged := true
		for idx := range lo {
			if finite[idx] && lo[idx] < hi[idx] {
				converged = false
				break
			}
		}
		if converged {
			break
		}
		// Cancellation checkpoint of the squaring chain's inner loop: every
		// step is a full FindEdges call, the natural unit a deadline skips.
		if err := opts.ctxErr(); err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				idx := i*n + j
				if !finite[idx] || lo[idx] >= hi[idx] {
					// Query a threshold that cannot trigger: D = -m keeps
					// resolved and infinite entries out of the output.
					d.Set(i, j, -m-1)
					continue
				}
				mid := floorMid(lo[idx], hi[idx])
				if grid != nil {
					// Probe "C ≤ grid[mid]", i.e. C < grid[mid]+1.
					d.Set(i, j, grid[mid]+1)
				} else {
					d.Set(i, j, mid+1)
				}
			}
		}
		ti, err := refresh(d)
		if err != nil {
			return nil, err
		}
		edges, err = FindEdges(ti, opts, rng.SplitN("step", step).Seed())
		if err != nil {
			return nil, fmt.Errorf("distprod: step %d: %w", step, err)
		}
		stats.BinarySearchSteps++
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				idx := i*n + j
				if !finite[idx] || lo[idx] >= hi[idx] {
					continue
				}
				mid := floorMid(lo[idx], hi[idx])
				if edges[graph.MakePair(i, n+j)] {
					// C[i,j] < mid+1 ⟹ C ≤ mid.
					hi[idx] = mid
				} else {
					lo[idx] = mid + 1
				}
			}
		}
	}

	c.Fill(graph.Inf)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			idx := i*n + j
			if finite[idx] {
				if grid != nil {
					c.Set(i, j, grid[lo[idx]])
				} else {
					c.Set(i, j, lo[idx])
				}
			}
		}
	}
	stats.Rounds = net.DeltaSince(baseline).Rounds
	return stats, nil
}

// gridIdxAtLeast returns the smallest index with grid[idx] >= v; the caller
// guarantees the grid top covers v.
func gridIdxAtLeast(grid []int64, v int64) int {
	return sort.Search(len(grid), func(i int) bool { return grid[i] >= v })
}

func floorMid(lo, hi int64) int64 {
	mid := (lo + hi) / 2
	if (lo+hi) < 0 && (lo+hi)%2 != 0 {
		mid-- // floor division for negative sums
	}
	return mid
}

// GossipProductPar is the naive O(n)-round distance product: every node
// broadcasts its row of B (n words, full gossip), then computes its row of
// A ⋆ B locally. It operates on an n-node network. The per-node local
// min-plus work runs on a bounded worker pool; workers <= 0 selects
// GOMAXPROCS, and the network charge and the result are identical for
// every worker count.
func GossipProductPar(net *congest.Network, workers int) matrix.Product {
	return func(a, b *matrix.Matrix) (*matrix.Matrix, error) {
		if net != nil {
			if err := net.BroadcastAll("gossip-product", int64(b.N())); err != nil {
				return nil, err
			}
		}
		return matrix.DistanceProductPar(a, b, workers)
	}
}

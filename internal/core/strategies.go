package core

// The four exact pipelines, expressed as engine strategies: each solve is
// an ordered list of named stages over one network, so the engine can
// checkpoint between stages (cancellation) and attribute every round to a
// stage (telemetry). The stage decomposition mirrors the paper's structure:
// an encode stage (A_G, zero rounds), one stage per distance product of the
// Proposition 3 squaring chain, and an extract stage. Round accounting is
// bit-identical to the pre-engine monolithic driver: the same network, the
// same operation order, the same seed derivation.

import (
	"context"
	"fmt"
	"math"

	"qclique/internal/congest"
	"qclique/internal/distprod"
	"qclique/internal/engine"
	"qclique/internal/graph"
	"qclique/internal/matrix"
	"qclique/internal/xrand"
)

func init() {
	engine.Register(&searchPipeline{name: StrategyQuantum, solver: distprod.SolverQuantum})
	engine.Register(&searchPipeline{name: StrategyClassicalSearch, solver: distprod.SolverClassicalScan}, "classical")
	engine.Register(&searchPipeline{name: StrategyDolev, solver: distprod.SolverDolev}, "dolev-listing")
	engine.Register(gossipPipeline{})
}

// FindEdgesSolver returns the FindEdges solver driving the distance
// products of the named search pipeline (a registry name or alias). ok is
// false for gossip, the approximate strategies and unregistered names:
// only the search pipelines have a FindEdges role of their own.
func FindEdgesSolver(name string) (distprod.Solver, bool) {
	st, _ := engine.Lookup(name)
	p, ok := st.(*searchPipeline)
	if !ok {
		return 0, false
	}
	return p.solver, true
}

// searchPipeline is the FindEdges-driven exact pipeline (Theorem 1 and its
// classical baselines): ⌈log₂ n⌉ distance products, each a binary search
// over FindEdges calls on the tripartite reduction.
type searchPipeline struct {
	name   string
	solver distprod.Solver
}

func (p *searchPipeline) Name() string              { return p.name }
func (p *searchPipeline) Guarantee(float64) float64 { return 1 }

// costAnchor is one committed benchmark measurement (a BENCH_1.json entry)
// plus the power-law exponents that extrapolate it across sizes.
type costAnchor struct {
	n         int
	prior     engine.CostPrior
	roundsExp float64
	wallExp   float64
}

// searchAnchors hold the exact search pipelines' cost anchors at n=64, on
// the scaled preset. The quantum entry is measured (E1APSPQuantum/n=64);
// the classical baselines run the same reduction with costlier per-product
// searches, so their anchors are scaled guesses ordered by the theorems
// (Õ(√n) > Õ(n^{1/3}) > Õ(n^{1/4}) per product) — coarse priors the
// planner corrects with live telemetry after the first solve.
var searchAnchors = map[string]costAnchor{
	StrategyQuantum:         {n: 64, prior: engine.CostPrior{Rounds: 615_866, WallNs: 2_240_000_000}, roundsExp: 1.5, wallExp: 3.2},
	StrategyClassicalSearch: {n: 64, prior: engine.CostPrior{Rounds: 1_400_000, WallNs: 4_000_000_000}, roundsExp: 1.6, wallExp: 3.2},
	StrategyDolev:           {n: 64, prior: engine.CostPrior{Rounds: 900_000, WallNs: 3_000_000_000}, roundsExp: 1.55, wallExp: 3.2},
}

func (p *searchPipeline) Capabilities() engine.Capabilities { return engine.Capabilities{} }

func (p *searchPipeline) PredictCost(f graph.Features, _ float64) engine.CostPrior {
	a := searchAnchors[p.name]
	prior := a.prior.ScaleFrom(a.n, f.N, a.roundsExp, a.wallExp)
	// Each distance product binary-searches ⌈log₂(4M+2)⌉ FindEdges calls;
	// the anchors were measured at W=8, so a wider weight range deepens
	// every product proportionally.
	if w := f.MaxAbsWeight; w > 8 {
		factor := math.Log2(float64(4*w+2)) / math.Log2(34)
		prior.Rounds = int64(float64(prior.Rounds) * factor)
		prior.WallNs = int64(float64(prior.WallNs) * factor)
	}
	return prior
}

func (p *searchPipeline) Stages(req *engine.Request, out *engine.Outcome) (*engine.Plan, error) {
	n := req.G.N()
	// The reduction runs on tripartite instances with 3n vertices; each
	// network node simulates three of them (constant-factor overhead),
	// realized as a 3n-node clique.
	net, err := congest.NewNetwork(3 * n)
	if err != nil {
		return nil, err
	}
	st := &searchRun{req: req, out: out, net: net, solver: p.solver, dp: distprod.NewWorkspace(), rng: xrand.New(req.Seed)}
	stages := []engine.Stage{{Name: "encode", Run: st.encode}}
	for i := 0; i < matrix.SquaringBudget(n); i++ {
		stages = append(stages, engine.Stage{Name: fmt.Sprintf("square-%d", i+1), Run: st.square})
	}
	stages = append(stages, engine.Stage{Name: "extract", Run: st.extract})
	return &engine.Plan{Net: net, Stages: stages}, nil
}

// searchRun is the mutable state the stages of one searchPipeline solve
// share: the ping-pong matrices, the distance-product workspace its
// products reuse, and the cumulative FindEdges-call counter that drives
// the per-product seeds.
type searchRun struct {
	req    *engine.Request
	out    *engine.Outcome
	net    *congest.Network
	solver distprod.Solver
	dp     *distprod.Workspace
	rng    *xrand.Source

	cur, next *matrix.Matrix
	calls     int
}

func (st *searchRun) encode(context.Context) error {
	st.cur = matrix.FromDigraph(st.req.G)
	st.next = matrix.New(st.cur.N())
	return nil
}

func (st *searchRun) square(ctx context.Context) error {
	if err := negInfInput(st.cur); err != nil {
		return err
	}
	stats, err := distprod.ProductInto(st.next, st.cur, st.cur, distprod.Options{
		Solver:    st.solver,
		Params:    st.req.Params,
		Seed:      st.rng.SplitN("product", st.calls).Seed(),
		Net:       st.net,
		Workers:   st.req.Workers,
		Workspace: st.dp,
		Ctx:       ctx,
	})
	if err != nil {
		return err
	}
	st.calls += stats.BinarySearchSteps
	st.out.Products++
	st.cur, st.next = st.next, st.cur
	return nil
}

// negInfInput returns the error a solve answers when m, a product input of
// the squaring chain, holds a −∞ entry, which the distance product
// refuses: ErrNegativeCycle next to a negative diagonal entry, which
// already proves a negative cycle, and ErrSaturatedDistance otherwise,
// where saturation alone produced the −∞. It is nil on every other input.
// Without −∞ the chain runs on, a negative cycle included, to charge its
// rounds.
func negInfInput(m *matrix.Matrix) error {
	switch {
	case !m.HasNegInf():
		return nil
	case m.HasNegativeDiagonal():
		return ErrNegativeCycle
	default:
		return ErrSaturatedDistance
	}
}

func (st *searchRun) extract(context.Context) error {
	st.out.Dist = st.cur
	st.out.FindEdgesCalls = st.calls
	return nil
}

// gossipPipeline is the naive O(n)-round baseline: one full adjacency
// gossip, then node-local APSP at every node. That local work charges no
// rounds, so it needs only the squaring chain's fixed point, not the
// whole ⌈log₂ n⌉ budget: one Floyd–Warshall pass computes it and the
// number of squarings the chain would run to reach it
// (matrix.SquaringFixedPoint), and the chain itself
// (matrix.APSPBySquaringInto) runs only on the inputs the pass declines.
// Both give the same distances and Products.
type gossipPipeline struct{}

func (gossipPipeline) Name() string              { return StrategyGossip }
func (gossipPipeline) Guarantee(float64) float64 { return 1 }

func (gossipPipeline) Capabilities() engine.Capabilities { return engine.Capabilities{} }

// gossipAnchor is gossip's cost anchor, the BENCH_1.json entry
// GossipAPSP/n=256 (GOMAXPROCS=1). The full row gossip is n rounds (every
// node pushes its n-word row over n−1 links). The wall cost is the
// node-local work, O(n³), and the prior scales the one measurement by n³.
// That entry timed the squaring chain (3 of its 8 squarings on that E1
// graph); the one-pass fixed point that replaced it does about the work
// of one squaring, so the prior overestimates gossip's wall time until
// the baseline is re-measured on current code (ROADMAP item 1(b)).
var gossipAnchor = costAnchor{n: 256, prior: engine.CostPrior{Rounds: 256, WallNs: 30_970_000}, roundsExp: 1, wallExp: 3}

func (gossipPipeline) PredictCost(f graph.Features, _ float64) engine.CostPrior {
	a := gossipAnchor
	return a.prior.ScaleFrom(a.n, f.N, a.roundsExp, a.wallExp)
}

func (gossipPipeline) Stages(req *engine.Request, out *engine.Outcome) (*engine.Plan, error) {
	n := req.G.N()
	net, err := congest.NewNetwork(n)
	if err != nil {
		return nil, err
	}
	var ag *matrix.Matrix
	return &engine.Plan{Net: net, Stages: []engine.Stage{
		{Name: "encode", Run: func(context.Context) error {
			ag = matrix.FromDigraph(req.G)
			return nil
		}},
		{Name: "gossip", Run: func(context.Context) error {
			return net.BroadcastAll("gossip/rows", int64(n))
		}},
		{Name: "local-squaring", Run: func(ctx context.Context) error {
			// All communication already happened. The chain runs,
			// checkpointed per squaring, only where the one-pass fixed
			// point declines.
			dist, sq, ok, err := matrix.SquaringFixedPoint(ag, req.Workers, ctx.Err)
			if err != nil {
				return err
			}
			if !ok {
				prod := func(dst, a, b *matrix.Matrix) error {
					if err := ctx.Err(); err != nil {
						return err
					}
					return matrix.MulMinPlusInto(dst, a, b, req.Workers)
				}
				if dist, sq, err = matrix.APSPBySquaringInto(ag, prod); err != nil {
					return err
				}
			}
			out.Dist = dist
			out.Products = sq.Products
			return nil
		}},
	}}, nil
}

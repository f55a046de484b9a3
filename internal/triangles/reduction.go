package triangles

import (
	"errors"
	"fmt"

	"qclique/internal/congest"
	"qclique/internal/graph"
	"qclique/internal/xrand"
)

// This file implements Proposition 1: the randomized reduction from
// FindEdges (no promise) to O(log n) instances of FindEdgesWithPromise.
// Algorithm B: while the sampling level is coarse enough, sample the legs
// of the graph so that pairs with many negative triangles still see one
// w.h.p. but the per-pair triangle count in the sampled graph is
// O(log n); solve the promise problem on the sampled instance; remove the
// found pairs from S. A final unsampled call catches the remaining
// low-count pairs.
//
// Sampling semantics: the level-i instance keeps every edge independently
// with probability √(Reduction·2^i·log n / n) as a *leg*; the pair edge
// {u,v} itself is always read from G (only the two legs {u,w}, {w,v} of a
// triangle are subject to sampling), so that E[Γ_G'(u,v)] =
// Γ_G(u,v)·Reduction·2^i·log(n)/n exactly as in the Proposition 1 proof.

// FindEdgesReport is the outcome of FindEdges.
type FindEdgesReport struct {
	// Edges is the output: all pairs of S with Γ(u,v) > 0. The report owns
	// it.
	Edges *graph.PairSet
	// Rounds is the total rounds across all promise instances.
	Rounds int64
	// Metrics is the aggregate network accounting.
	Metrics congest.Metrics
	// PromiseCalls counts the FindEdgesWithPromise invocations
	// (Proposition 1: O(log n)).
	PromiseCalls int
	// Levels records the sampling level of each call (-1 = final
	// unsampled call).
	Levels []int
	// SubReports are the per-call reports; each owns its Edges.
	SubReports []*Report
}

// FindEdges solves the unpromised problem on (G, S): report every pair of
// S involved in a negative triangle. opts.Net is created fresh if nil so
// the cost of all promise instances accumulates in one place.
func FindEdges(inst Instance, opts Options) (*FindEdgesReport, error) {
	if err := inst.check(); err != nil {
		return nil, err
	}
	if inst.Legs != nil {
		return nil, errors.New("triangles: FindEdges manages leg sampling itself; Instance.Legs must be nil")
	}
	n := inst.G.N()
	net := opts.Net
	var err error
	if net == nil {
		net, err = congest.NewNetwork(n)
		if err != nil {
			return nil, err
		}
	}
	params := opts.params()
	rng := xrand.New(opts.Seed)
	sc := opts.Scratch
	if sc == nil {
		sc = NewScratch()
	}
	opts.Scratch = sc // the promise calls below share the same workspace

	// Working copy of S: nil means all pairs; materialize it so pairs can
	// be removed as they are resolved. The caller's S is only read, and
	// the copy keeps its storage on the scratch across the solve's
	// FindEdges calls.
	s := &sc.sWork
	if inst.S == nil {
		s.Reset(n)
		s.Fill()
	} else {
		s.CopyFrom(inst.S)
	}

	out := &FindEdgesReport{Edges: graph.NewPairSet(n)}
	callPromise := func(legs *graph.Undirected, level int) error {
		// Cancellation checkpoint of the triangle-enumeration loop: each
		// promise instance is the unit of work a deadline can skip.
		if err := opts.ctxErr(); err != nil {
			return err
		}
		if s.Len() == 0 {
			// Every pair already resolved at a coarser sampling level; the
			// remaining calls of Algorithm B are no-ops.
			return nil
		}
		sub := Instance{G: inst.G, Legs: legs, S: s}
		subOpts := opts
		subOpts.Net = net
		subOpts.Seed = rng.SplitN("call", out.PromiseCalls).Seed()
		rep, err := FindEdgesWithPromise(sub, subOpts)
		if err != nil {
			return fmt.Errorf("promise call %d (level %d): %w", out.PromiseCalls, level, err)
		}
		out.PromiseCalls++
		out.Levels = append(out.Levels, level)
		out.SubReports = append(out.SubReports, rep)
		out.Edges.Union(rep.Edges)
		s.Subtract(rep.Edges)
		return nil
	}

	// Step 2: the while loop over sampling levels. One scratch-retained
	// subgraph buffer backs every level's sampled legs: each level fully
	// rewrites it, and the promise call consuming it completes before the
	// next level samples.
	for i := 0; params.reductionLoopActive(n, i); i++ {
		prob := params.reductionProb(n, i)
		legRng := rng.SplitN("legs", i)
		if sc.legs == nil || sc.legs.N() != n {
			sc.legs = graph.NewUndirected(n)
		}
		if err := inst.G.SubgraphInto(sc.legs, func(u, v int) bool { return legRng.Bool(prob) }); err != nil {
			return nil, err
		}
		if err := callPromise(sc.legs, i); err != nil {
			return nil, err
		}
	}
	// Step 3: final unsampled call on the residual S.
	if err := callPromise(nil, -1); err != nil {
		return nil, err
	}

	out.Rounds = net.Rounds()
	out.Metrics = net.Metrics()
	return out, nil
}

package triangles

import (
	"errors"

	"qclique/internal/congest"
	"qclique/internal/graph"
	"qclique/internal/xrand"
)

// This file exposes measurement harnesses over the package's unexported
// machinery for the experiment suite (package internal/experiments):
// Lemma 2 covering statistics, Proposition 5 classification accuracy, and
// the Section 4.2 congestion comparison.

// CoveringStats reports one Lemma 2 trial over a full set of √n coverings
// for one (u,v) group.
type CoveringStats struct {
	// Aborted reports whether any covering failed the well-balancedness
	// check.
	Aborted bool
	// CoveredFraction is the fraction of P(u,v) covered by the union of
	// the Λx sets (Lemma 2 (ii) demands 1 w.h.p.).
	CoveredFraction float64
	// MaxPerVertex is the largest per-endpoint pair count observed across
	// coverings (the Lemma 2 (i) quantity).
	MaxPerVertex int
	// Bound is the well-balancedness bound the trial was checked against.
	Bound int
}

// CoveringTrial samples all √n coverings of group (u,v) = (0, min(1,q-1))
// for an n-vertex instance and reports the Lemma 2 statistics.
func CoveringTrial(n int, params Params, seed uint64) (*CoveringStats, error) {
	pt, err := NewPartitions(n)
	if err != nil {
		return nil, err
	}
	rng := xrand.New(seed)
	v := 0
	if pt.NumCoarse() > 1 {
		v = 1
	}
	st := &CoveringStats{Bound: params.wellBalancedBound(n)}
	covered := make(map[graph.Pair]bool)
	for x := 0; x < pt.NumFine(); x++ {
		label := SearchLabel{U: 0, V: v, X: x}
		pairs, err := pt.sampleCovering(label, params, rng.SplitN("x", x))
		if err != nil {
			var nwb *NotWellBalancedError
			if errors.As(err, &nwb) {
				st.Aborted = true
				if nwb.Count > st.MaxPerVertex {
					st.MaxPerVertex = nwb.Count
				}
				continue
			}
			return nil, err
		}
		perVertex := make(map[int]int)
		for _, p := range pairs {
			covered[p] = true
			perVertex[p.U]++
			perVertex[p.V]++
		}
		for _, c := range perVertex {
			if c > st.MaxPerVertex {
				st.MaxPerVertex = c
			}
		}
	}
	all := pt.PairsBetween(0, v)
	if len(all) > 0 {
		st.CoveredFraction = float64(len(covered)) / float64(len(all))
	} else {
		st.CoveredFraction = 1
	}
	return st, nil
}

// ClassAccuracy reports one Proposition 5 trial.
type ClassAccuracy struct {
	// Aborted reports a Figure 2 Step 1 abort.
	Aborted bool
	// Triples is the number of triple labels classified.
	Triples int
	// Satisfied counts triples whose true |Δ(u,v;w)| lies inside the
	// Proposition 5 interval for their assigned class.
	Satisfied int
	// MaxClass is the largest class assigned.
	MaxClass int
}

// IdentifyClassTrial runs Algorithm IdentifyClass on g and verifies the
// Proposition 5 interval for every triple against the exact |Δ(u,v;w)|.
func IdentifyClassTrial(g *graph.Undirected, params Params, seed uint64) (*ClassAccuracy, error) {
	n := g.N()
	pt, err := NewPartitions(n)
	if err != nil {
		return nil, err
	}
	net, err := congest.NewNetwork(n)
	if err != nil {
		return nil, err
	}
	inst := &Instance{G: g}
	sc := NewScratch()
	pl, err := runPlacement(net, pt, inst.legs(), DataDirect, sc)
	if err != nil {
		return nil, err
	}
	cls, err := runIdentifyClass(net, pt, inst, pl, params, sc, xrand.New(seed))
	if err != nil {
		var ia *IdentifyAbortError
		if errors.As(err, &ia) {
			return &ClassAccuracy{Aborted: true}, nil
		}
		return nil, err
	}
	acc := &ClassAccuracy{MaxClass: cls.maxClass}
	q := pt.NumCoarse()
	s := pt.NumFine()
	for u := 0; u < q; u++ {
		for v := 0; v < q; v++ {
			for w := 0; w < s; w++ {
				alpha := cls.classOf[pt.TripleIndex(TripleLabel{U: u, V: v, W: w})]
				lo, hi := Proposition5Bounds(alpha, n, params)
				delta := float64(deltaSize(pt, inst, pl, u, v, w))
				acc.Triples++
				if delta >= lo && delta <= hi {
					acc.Satisfied++
				}
			}
		}
	}
	return acc, nil
}

// CongestionStats compares the Section 4.2 motivation scenario (every
// search instance queries the same element, x = (x, x, …, x)) against the
// Figure 4 load-balanced schedule.
type CongestionStats struct {
	// NaiveMaxLinkLoad is the per-link word load a naive simultaneous
	// query injection would place on the hottest link.
	NaiveMaxLinkLoad int64
	// BalancedMaxLinkLoad is the hottest per-link load of the Figure 4
	// schedule under a typical query assignment.
	BalancedMaxLinkLoad int64
	// SlotCap is the schedule's per-destination cap.
	SlotCap int
	// Instances is the total number of parallel searches.
	Instances int
}

// CongestionTrial measures both loads on the standard workload.
func CongestionTrial(g *graph.Undirected, params Params, seed uint64) (*CongestionStats, error) {
	n := g.N()
	pt, err := NewPartitions(n)
	if err != nil {
		return nil, err
	}
	net, err := congest.NewNetwork(n)
	if err != nil {
		return nil, err
	}
	rng := xrand.New(seed)
	inst := &Instance{G: g}
	sc := NewScratch()
	pl, err := runPlacement(net, pt, inst.legs(), DataDirect, sc)
	if err != nil {
		return nil, err
	}
	cls, err := runIdentifyClass(net, pt, inst, pl, params, sc, rng.Split("identify"))
	if err != nil {
		return nil, err
	}
	st, err := runCoverings(net, pt, inst, params, sc, rng.Split("cover"))
	if err != nil {
		return nil, err
	}
	b := newEvalBuilder(pt, pl, st, cls, params, 0, sc, rng.Split("eval"))
	if b.spaceSize == 0 {
		return nil, errors.New("triangles: class 0 empty; workload too sparse")
	}
	out := &CongestionStats{SlotCap: params.slotCap(n, 0), Instances: st.index.Instances()}

	// Naive: every instance of a node queries the same w (the adversarial
	// x = (x,…,x) of Section 4.2); per (label, hottest w) the full m_k
	// entries land on one link at once.
	naive := make(map[[2]congest.NodeID]int64)
	for li, cov := range st.coverings {
		if len(cov.Pairs) == 0 {
			continue
		}
		label := pt.SearchFromIndex(li)
		g0 := b.classLists[b.groupOf(li)]
		if len(g0) == 0 {
			continue
		}
		w := g0[0]
		src := pt.SearchNode(label)
		dst := pt.TripleNode(TripleLabel{U: label.U, V: label.V, W: w})
		if src == dst {
			continue
		}
		k := [2]congest.NodeID{src, dst}
		naive[k] += int64(3 * len(cov.Pairs))
		if naive[k] > out.NaiveMaxLinkLoad {
			out.NaiveMaxLinkLoad = naive[k]
		}
	}

	// Balanced: execute the Figure 4 schedule on a network of its own, so
	// the peak it reports is the schedule's and not the coverings'.
	evalNet, err := congest.NewNetwork(n)
	if err != nil {
		return nil, err
	}
	if _, err := b.evalFunc()(evalNet); err != nil {
		return nil, err
	}
	out.BalancedMaxLinkLoad = evalNet.Metrics().MaxLinkLoad
	return out, nil
}

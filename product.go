package qclique

import (
	"qclique/internal/congest"
	"qclique/internal/core"
	"qclique/internal/distprod"
	"qclique/internal/matrix"
)

// productFor dispatches a distance product to the solver selected by the
// options; DistanceProduct has already rejected strategies without one.
func productFor(a, b *matrix.Matrix, o Options) (*matrix.Matrix, int64, error) {
	if o.Strategy == Gossip {
		net, err := congest.NewNetwork(maxInt(a.N(), 1))
		if err != nil {
			return nil, 0, err
		}
		c, err := distprod.GossipProductPar(net, o.Workers)(a, b)
		if err != nil {
			return nil, 0, err
		}
		return c, net.Rounds(), nil
	}
	solver, _ := core.FindEdgesSolver(string(o.Strategy))
	c, stats, err := distprod.Product(a, b, distprod.Options{
		Solver:  solver,
		Params:  o.Preset.Params(),
		Seed:    o.Seed,
		Workers: o.Workers,
	})
	if err != nil {
		return nil, 0, err
	}
	return c, stats.Rounds, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

package qclique

import (
	"errors"
	"fmt"

	"qclique/internal/core"
	"qclique/internal/matrix"
	"qclique/internal/serve"
)

// ErrNoPath is returned by ShortestPath for unreachable pairs.
var ErrNoPath = core.ErrNoPath

// ErrUndefinedDistance is returned by ShortestPath for a pair whose
// distance in a hand-assembled APSPResult is −∞ (a negative-cycle region):
// no shortest path exists, so none is fabricated. No solve returns −∞; it
// answers ErrNegativeCycle or ErrSaturatedDistance instead.
var ErrUndefinedDistance = errors.New("qclique: distance undefined (negative-cycle region)")

// ErrApproxPaths is returned by path reconstruction against approximate
// results: the successor walk relies on exact tightness, which
// ladder-snapped distances do not satisfy. Ask an exact strategy for
// paths; approximate solves answer distance queries only.
var ErrApproxPaths = serve.ErrApproxPaths

// ShortestPath reconstructs one shortest path from src to dst out of an
// APSP result (footnote 1 of the paper: lengths extend to paths via the
// standard successor technique). The result must come from SolveAPSP on
// the same graph. Reconstruction reads the solver's retained distance
// matrix, not the exported res.Dist rows — editing res.Dist does not
// change the paths returned here. It returns the path Solver.ShortestPath
// and Solver.PathsBatch return: all three walk one successor structure.
func ShortestPath(g *Digraph, res *APSPResult, src, dst int) ([]int, error) {
	if g == nil || res == nil {
		return nil, errors.New("qclique: nil graph or result")
	}
	if res.Epsilon > 0 {
		return nil, ErrApproxPaths
	}
	n := g.N()
	if len(res.Dist) != n {
		return nil, fmt.Errorf("qclique: result is for n=%d, graph has n=%d", len(res.Dist), n)
	}
	dist, err := res.matrix()
	if err != nil {
		return nil, err
	}
	oracle, err := core.NewPathOracle(g.g, dist)
	if err != nil {
		return nil, err
	}
	// Only a hand-assembled result can carry −∞, where every arc into the
	// region looks tight and the walk would fabricate a path.
	if d, err := oracle.Dist(src, dst); err != nil {
		return nil, err
	} else if d <= -Inf {
		return nil, ErrUndefinedDistance
	}
	return oracle.Path(src, dst)
}

// matrix returns the retained distance matrix when the result came from a
// solver, and otherwise rebuilds one from the exported rows (the slow path
// for hand-assembled results).
func (res *APSPResult) matrix() (*matrix.Matrix, error) {
	if res.dist != nil {
		return res.dist, nil
	}
	n := len(res.Dist)
	dist := matrix.New(n)
	for i := 0; i < n; i++ {
		if len(res.Dist[i]) != n {
			return nil, fmt.Errorf("qclique: ragged distance row %d", i)
		}
		for j := 0; j < n; j++ {
			dist.Set(i, j, res.Dist[i][j])
		}
	}
	return dist, nil
}

// SolveSSSP computes single-source shortest distances from src (the paper
// notes the APSP algorithm is also the best known exact SSSP in the
// CONGEST-CLIQUE model; this runs the same pipeline and projects one row).
func SolveSSSP(g *Digraph, src int, opts ...Option) ([]int64, *APSPResult, error) {
	if g == nil {
		return nil, nil, errors.New("qclique: nil graph")
	}
	if src < 0 || src >= g.N() {
		return nil, nil, fmt.Errorf("qclique: source %d out of range", src)
	}
	res, err := SolveAPSP(g, opts...)
	if err != nil {
		return nil, nil, err
	}
	row := make([]int64, g.N())
	copy(row, res.Dist[src])
	return row, res, nil
}

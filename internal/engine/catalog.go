package engine

import (
	"math"

	"qclique/internal/graph"
)

// Capabilities declares what inputs a strategy accepts and which accuracy
// class it belongs to — the static half of the catalog the serving layer's
// planner queries. The zero value declares an exact strategy that accepts
// any graph.
type Capabilities struct {
	// Approximate marks a pipeline that trades exactness for rounds and
	// therefore requires an epsilon budget (Request.Epsilon > 0).
	Approximate bool `json:"approximate"`
	// RejectsNegative marks pipelines that refuse graphs with negative arc
	// weights (multiplicative stretch is meaningless below zero).
	RejectsNegative bool `json:"rejects_negative,omitempty"`
	// NeedsSymmetric marks pipelines restricted to weight-symmetric graphs
	// (the directed encoding of undirected inputs).
	NeedsSymmetric bool `json:"needs_symmetric,omitempty"`
	// MinEpsilon/MaxEpsilon bound the accepted stretch budget (both 0 for
	// exact strategies, which take none).
	MinEpsilon float64 `json:"min_epsilon,omitempty"`
	MaxEpsilon float64 `json:"max_epsilon,omitempty"`
}

// Viable reports whether a graph with profile f satisfies the strategy's
// input constraints.
func (c Capabilities) Viable(f graph.Features) bool {
	if c.RejectsNegative && f.NegativeArcs {
		return false
	}
	if c.NeedsSymmetric && !f.Symmetric {
		return false
	}
	return true
}

// CostPrior is a strategy's a-priori cost estimate for one solve: simulated
// rounds and host wall time. Priors are coarse by design — power-law
// extrapolations from committed benchmark anchors ("Mind the Õ": asymptotic
// claims mispredict real cost, so measured anchors beat exponents read off
// the theorems) — and the planner corrects them with live telemetry as
// solves complete.
type CostPrior struct {
	// Rounds is the expected simulated CONGEST-CLIQUE round charge.
	Rounds int64 `json:"rounds"`
	// WallNs is the expected host wall-clock time in nanoseconds.
	WallNs int64 `json:"wall_ns"`
}

// ScaleFrom extrapolates an anchored measurement (taken at anchorN
// vertices) to an n-vertex input via per-axis power laws, flooring both
// axes at 1 so a prior never degenerates to "free".
func (p CostPrior) ScaleFrom(anchorN, n int, roundsExp, wallExp float64) CostPrior {
	if n <= 0 || anchorN <= 0 {
		return CostPrior{Rounds: 1, WallNs: 1}
	}
	ratio := float64(n) / float64(anchorN)
	out := CostPrior{
		Rounds: int64(float64(p.Rounds) * math.Pow(ratio, roundsExp)),
		WallNs: int64(float64(p.WallNs) * math.Pow(ratio, wallExp)),
	}
	if out.Rounds < 1 {
		out.Rounds = 1
	}
	if out.WallNs < 1 {
		out.WallNs = 1
	}
	return out
}

package engine

import (
	"fmt"
	"sort"
	"sync"

	"qclique/internal/graph"
)

// Strategy describes one registered APSP pipeline: its canonical name, its
// accuracy contract, the inputs it accepts and what a solve is predicted
// to cost (the catalog the serving layer's planner ranks), and how to
// assemble its staged execution plan for one solve.
type Strategy interface {
	// Name is the canonical registry key ("quantum", "approx-skeleton", …).
	Name() string
	// Guarantee returns the multiplicative stretch bound for budget eps:
	// 1 for exact pipelines, 1+ε or 2+ε for the approximate ones.
	Guarantee(eps float64) float64
	// Capabilities declares the strategy's accuracy class, input
	// constraints and epsilon domain.
	Capabilities() Capabilities
	// PredictCost estimates one solve's cost for a graph with profile f
	// under stretch budget eps (ignored by exact strategies).
	PredictCost(f graph.Features, eps float64) CostPrior
	// Stages assembles the staged pipeline for req. Stages write their
	// results into out as they run; the engine fills the telemetry fields.
	// The caller guarantees req.G is non-nil with at least one vertex and
	// that Epsilon has been validated against Capabilities().Approximate.
	Stages(req *Request, out *Outcome) (*Plan, error)
}

var registry = struct {
	mu      sync.RWMutex
	byName  map[string]Strategy // canonical names and aliases
	aliases map[string]bool     // keys of byName that are aliases
}{
	byName:  make(map[string]Strategy),
	aliases: make(map[string]bool),
}

// Register adds a strategy under its canonical name plus any aliases
// ("classical" for "classical-search", …). Strategies register themselves
// from init, so a duplicate name is a programming error and panics.
func Register(s Strategy, aliases ...string) {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	name := s.Name()
	if name == "" {
		panic("engine: strategy with empty name")
	}
	if _, dup := registry.byName[name]; dup {
		panic(fmt.Sprintf("engine: strategy %q registered twice", name))
	}
	registry.byName[name] = s
	for _, a := range aliases {
		if _, dup := registry.byName[a]; dup {
			panic(fmt.Sprintf("engine: strategy alias %q already registered", a))
		}
		registry.byName[a] = s
		registry.aliases[a] = true
	}
}

// Lookup resolves a canonical name or alias.
func Lookup(name string) (Strategy, bool) {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	s, ok := registry.byName[name]
	return s, ok
}

// Strategies returns every registered strategy, sorted by canonical name
// (aliases do not produce duplicates).
func Strategies() []Strategy {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	out := make([]Strategy, 0, len(registry.byName))
	for name, s := range registry.byName {
		if !registry.aliases[name] {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// Names returns the sorted canonical names of every registered strategy.
func Names() []string {
	ss := Strategies()
	names := make([]string, len(ss))
	for i, s := range ss {
		names[i] = s.Name()
	}
	return names
}

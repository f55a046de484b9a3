// Command trianglehunt runs the FindEdges problem (Section 3 of the
// paper) standalone: report every edge of a weighted graph involved in a
// negative triangle, with the quantum pipeline or a classical baseline.
//
// Usage:
//
//	trianglehunt [-n 81] [-strategy quantum|classical|dolev] [-planted 4]
//	             [-seed 1] [-list]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"qclique"
	"qclique/internal/graph"
	"qclique/internal/xrand"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "trianglehunt:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("trianglehunt", flag.ContinueOnError)
	var (
		n        = fs.Int("n", 81, "vertex count")
		strategy = fs.String("strategy", "quantum", "registered exact pipeline name (quantum | classical | dolev), or \"list\"")
		planted  = fs.Int("planted", 4, "planted negative triangles")
		seed     = fs.Uint64("seed", 1, "randomness seed")
		list     = fs.Bool("list", false, "list the found edges")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// FindEdges is a sub-problem of the search pipelines; enumerate the
	// registry rather than hand-maintaining the name set, rejecting the
	// strategies whose StrategyInfo carries no FindEdges role (the
	// approximate ones are APSP-only, and gossip never solves FindEdges —
	// it bypasses the whole triangle machinery with a broadcast).
	if *strategy == "list" {
		fmt.Println("registered strategies (findedges solvers drive this tool):")
		for _, si := range qclique.Strategies() {
			role := "findedges solver"
			if !si.FindEdges {
				role = "apsp-only"
				if si.Approximate {
					role = fmt.Sprintf("apsp-only (stretch %g+ε)", si.Guarantee(0))
				}
			}
			fmt.Printf("  %-18s %s\n", si.Strategy, role)
		}
		return nil
	}
	strat, err := qclique.ParseStrategy(*strategy)
	if err != nil {
		return err
	}
	if info, ok := qclique.StrategyInfoFor(strat); !ok || !info.FindEdges {
		return fmt.Errorf("strategy %q has no FindEdges role; pick a findedges solver from -strategy list", *strategy)
	}

	rng := xrand.New(*seed)
	inner, err := graph.RandomUndirected(*n, graph.UndirectedOpts{
		EdgeProb: 0.15, MinWeight: 1, MaxWeight: 40,
	}, rng)
	if err != nil {
		return err
	}
	if *planted > 0 {
		if _, err := graph.PlantNegativeTriangles(inner, *planted, 30, rng.Split("plant")); err != nil {
			return err
		}
	}

	g := qclique.NewGraph(*n)
	for u := 0; u < *n; u++ {
		for v := u + 1; v < *n; v++ {
			if w, ok := inner.Weight(u, v); ok {
				if err := g.SetEdge(u, v, w); err != nil {
					return err
				}
			}
		}
	}

	rep, err := qclique.FindNegativeTriangleEdges(g,
		qclique.WithStrategy(strat),
		qclique.WithSeed(*seed),
		qclique.WithParams(qclique.ScaledConstants),
	)
	if err != nil {
		return err
	}
	fmt.Printf("strategy=%v n=%d edges-in-negative-triangles=%d rounds=%d\n",
		strat, *n, len(rep.Edges), rep.Rounds)
	if *list {
		edges := append([]qclique.Edge(nil), rep.Edges...)
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].U != edges[j].U {
				return edges[i].U < edges[j].U
			}
			return edges[i].V < edges[j].V
		})
		for _, e := range edges {
			fmt.Printf("{%d,%d}\n", e.U, e.V)
		}
	}
	return nil
}

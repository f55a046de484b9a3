// Arbitrage detection: the negative-triangle primitive applied to a
// currency market. Each currency pair trades at a symmetric over-the-
// counter quote whose weight is the integer-scaled −log effective rate
// including spread; a healthy market prices every three-currency round
// trip at a net cost (positive triangle weight), while a mispriced loop
// shows up as a triangle whose weights sum below zero. Finding every pair
// involved in such a loop is exactly the FindEdges problem (Section 3 of
// the paper) that the APSP reduction is built on.
package main

import (
	"fmt"
	"log"
	"slices"

	"qclique"
	"qclique/internal/graph"
	"qclique/internal/xrand"
)

func main() {
	const currencies = 32
	rng := xrand.New(7)

	// Healthy market: every pairwise quote carries a positive
	// spread-inclusive cost, so all round trips lose money.
	market, err := graph.RandomUndirected(currencies, graph.UndirectedOpts{
		EdgeProb: 0.6, MinWeight: 2, MaxWeight: 25,
	}, rng)
	if err != nil {
		log.Fatal(err)
	}
	// Two mispriced three-currency loops slip in.
	planted, err := graph.PlantNegativeTriangles(market, 2, 20, rng.Split("misprice"))
	if err != nil {
		log.Fatal(err)
	}

	g := qclique.NewGraph(currencies)
	for u := 0; u < currencies; u++ {
		for v := u + 1; v < currencies; v++ {
			if w, ok := market.Weight(u, v); ok {
				if err := g.SetEdge(u, v, w); err != nil {
					log.Fatal(err)
				}
			}
		}
	}

	rep, err := qclique.FindNegativeTriangleEdges(g,
		qclique.WithStrategy(qclique.Quantum),
		qclique.WithParams(qclique.ScaledConstants),
		qclique.WithSeed(99),
	)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("market with %d currencies, %d planted mispriced loops\n", currencies, len(planted))
	fmt.Printf("edges flagged as arbitrage-involved: %d (CONGEST-CLIQUE rounds: %d)\n",
		len(rep.Edges), rep.Rounds)

	flagged := make(map[[2]int]bool)
	for _, e := range rep.Edges {
		flagged[[2]int{e.U, e.V}] = true
	}
	for _, loop := range planted {
		hit := 0
		pairs := [][2]int{{loop[0], loop[1]}, {loop[0], loop[2]}, {loop[1], loop[2]}}
		for _, p := range pairs {
			a, b := p[0], p[1]
			if a > b {
				a, b = b, a
			}
			if flagged[[2]int{a, b}] {
				hit++
			}
		}
		fmt.Printf("  loop %d–%d–%d: %d/3 legs flagged\n", loop[0], loop[1], loop[2], hit)
	}

	// Cross-check against the classical listing baseline.
	check, err := qclique.FindNegativeTriangleEdges(g,
		qclique.WithStrategy(qclique.DolevListing),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("classical listing agrees: %v (%d edges, %d rounds)\n",
		slices.Equal(check.Edges, rep.Edges), len(check.Edges), check.Rounds)
}

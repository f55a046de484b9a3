package core

import (
	"testing"

	"qclique/internal/matrix"
	"qclique/internal/triangles"
	"qclique/internal/xrand"
)

// TestParallelWorkersDeterministic asserts the seeded-run reproducibility
// contract of the worker pool: for every strategy, the solve with a
// parallel worker pool must produce bit-identical distances and round
// counts to the serial run.
func TestParallelWorkersDeterministic(t *testing.T) {
	for _, strat := range []string{StrategyQuantum, StrategyClassicalSearch, StrategyDolev, StrategyGossip} {
		for _, n := range []int{5, 9} {
			g := randomAPSPInput(t, n, uint64(n))
			params := triangles.BenchParams()
			serial, err := Solve(g, Config{Strategy: strat, Params: &params, Seed: 3, Workers: 1})
			if err != nil {
				t.Fatalf("%v n=%d serial: %v", strat, n, err)
			}
			for _, workers := range []int{2, 4, 7} {
				parallel, err := Solve(g, Config{Strategy: strat, Params: &params, Seed: 3, Workers: workers})
				if err != nil {
					t.Fatalf("%v n=%d workers=%d: %v", strat, n, workers, err)
				}
				if !parallel.Dist.Equal(serial.Dist) {
					t.Fatalf("%v n=%d workers=%d: distances diverge from serial", strat, n, workers)
				}
				if parallel.Rounds != serial.Rounds {
					t.Fatalf("%v n=%d workers=%d: rounds %d != serial %d",
						strat, n, workers, parallel.Rounds, serial.Rounds)
				}
			}
		}
	}
}

// TestDistanceProductParMatchesSerial pins the parallel row-split min-plus
// product to the serial reference on larger inputs.
func TestDistanceProductParMatchesSerial(t *testing.T) {
	rng := xrand.New(21)
	n := 33
	mk := func(r *xrand.Source) *matrix.Matrix {
		m := matrix.New(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if r.Bool(0.3) {
					continue
				}
				m.Set(i, j, r.Int64N(41)-20)
			}
		}
		return m
	}
	a, b := mk(rng.Split("a")), mk(rng.Split("b"))
	want, err := matrix.DistanceProduct(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 2, 8} {
		got, err := matrix.DistanceProductPar(a, b, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("workers=%d: parallel product differs from serial", workers)
		}
	}
}

package qsearch

import (
	"slices"
	"testing"

	"qclique/internal/congest"
	"qclique/internal/xrand"
)

// searchOutcome is everything a MultiSearch run decides, copied out of the
// Result so a reused Scratch cannot change it afterwards.
type searchOutcome struct {
	found      []bool
	witness    []int
	evalCalls  int64
	iterations int64
	passes     int
	rounds     int64
}

// FuzzMultiSearchSharedRows holds MultiSearch to the shared-row contract:
// k rows plus an instance→row index search exactly as one private copy of
// each instance's row does, with the identity index — the same found set,
// witnesses, schedule and charged rounds — at every worker count, with or
// without a reused Scratch.
func FuzzMultiSearchSharedRows(f *testing.F) {
	f.Add(uint64(1), uint16(200), uint16(14), uint8(16), uint8(20), uint8(2))
	f.Add(uint64(2), uint16(1999), uint16(142), uint8(31), uint8(8), uint8(4))
	f.Add(uint64(3), uint16(50), uint16(0), uint8(7), uint8(128), uint8(1))    // one row for every instance
	f.Add(uint64(4), uint16(299), uint16(299), uint8(0), uint8(200), uint8(3)) // |X| = 1, k = m
	f.Add(uint64(5), uint16(120), uint16(30), uint8(9), uint8(0), uint8(2))    // no row feasible
	f.Fuzz(func(t *testing.T, seed uint64, m, k uint16, size, density, workers uint8) {
		nm := 1 + int(m)%2000
		nk := 1 + int(k)%nm
		nx := 1 + int(size)%32
		nw := 1 + int(workers)%4
		rng := xrand.New(seed)
		rows := make([][]bool, nk)
		for r := range rows {
			rows[r] = make([]bool, nx)
			for x := range rows[r] {
				rows[r][x] = rng.Bool(float64(density) / 255)
			}
		}
		of := make([]int32, nm)
		private := make([][]bool, nm)
		for i := range of {
			of[i] = int32(rng.IntN(nk))
			private[i] = slices.Clone(rows[of[i]])
		}
		index := groupByRow(t, of, nk)
		shared := func(net *congest.Network) (Tables, error) {
			tabs, err := LocalEval(rows, 1)(net)
			tabs.Index = index
			return tabs, err
		}

		run := func(eval EvalFunc, sc *Scratch) searchOutcome {
			t.Helper()
			net, err := congest.NewNetwork(4)
			if err != nil {
				t.Fatal(err)
			}
			res, err := MultiSearch(net, Spec{SpaceSize: nx, Instances: nm, Eval: eval, Workers: nw, Scratch: sc}, xrand.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			return searchOutcome{
				found:      slices.Clone(res.Found),
				witness:    slices.Clone(res.Witness),
				evalCalls:  res.EvalCalls,
				iterations: res.Iterations,
				passes:     res.Passes,
				rounds:     net.Rounds(),
			}
		}
		want := run(LocalEval(private, 1), nil)
		sc := &Scratch{}
		for _, tc := range []struct {
			name string
			eval EvalFunc
			sc   *Scratch
		}{
			{"shared", shared, nil},
			{"shared, scratch", shared, sc},
			{"private, same scratch", LocalEval(private, 1), sc},
			{"shared, same scratch again", shared, sc},
		} {
			got := run(tc.eval, tc.sc)
			if got.evalCalls != want.evalCalls || got.iterations != want.iterations ||
				got.passes != want.passes || got.rounds != want.rounds {
				t.Fatalf("%s (m=%d k=%d |X|=%d workers=%d): evalCalls/iterations/passes/rounds %d/%d/%d/%d, private rows %d/%d/%d/%d",
					tc.name, nm, nk, nx, nw, got.evalCalls, got.iterations, got.passes, got.rounds,
					want.evalCalls, want.iterations, want.passes, want.rounds)
			}
			for i := range want.found {
				if got.found[i] != want.found[i] || got.witness[i] != want.witness[i] {
					t.Fatalf("%s (m=%d k=%d |X|=%d workers=%d): instance %d (row %d) found %v witness %d, private rows %v %d",
						tc.name, nm, nk, nx, nw, i, of[i], got.found[i], got.witness[i], want.found[i], want.witness[i])
				}
			}
		}
	})
}

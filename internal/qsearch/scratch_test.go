package qsearch

import (
	"slices"
	"testing"

	"qclique/internal/congest"
	"qclique/internal/xrand"
)

// TestScratchDeterminism asserts the reused==fresh contract: MultiSearch
// through one reused Scratch returns exactly the results of scratchless
// calls, across repeated invocations that leave stale state behind.
func TestScratchDeterminism(t *testing.T) {
	const m, size = 60, 16
	rng := xrand.New(7)
	tables := make([][]bool, m)
	for i := range tables {
		tables[i] = make([]bool, size)
		if i%5 != 0 { // leave some instances unsatisfiable
			tables[i][rng.IntN(size)] = true
		}
	}
	sc := &Scratch{}
	for trial := 0; trial < 3; trial++ {
		spec := Spec{SpaceSize: size, Instances: m, Eval: LocalEval(tables, 1), Workers: 3}
		freshNet, _ := congest.NewNetwork(4)
		fresh, err := MultiSearch(freshNet, spec, xrand.New(uint64(trial)))
		if err != nil {
			t.Fatal(err)
		}
		spec.Scratch = sc
		pooledNet, _ := congest.NewNetwork(4)
		pooled, err := MultiSearch(pooledNet, spec, xrand.New(uint64(trial)))
		if err != nil {
			t.Fatal(err)
		}
		if fresh.EvalCalls != pooled.EvalCalls || fresh.Iterations != pooled.Iterations || fresh.Passes != pooled.Passes {
			t.Fatalf("trial %d: cost drivers diverged (fresh %+v pooled %+v)", trial, fresh, pooled)
		}
		if freshNet.Rounds() != pooledNet.Rounds() {
			t.Fatalf("trial %d: rounds %d != %d", trial, pooledNet.Rounds(), freshNet.Rounds())
		}
		for i := range fresh.Found {
			if fresh.Found[i] != pooled.Found[i] || fresh.Witness[i] != pooled.Witness[i] {
				t.Fatalf("trial %d instance %d: fresh (%v,%d) pooled (%v,%d)",
					trial, i, fresh.Found[i], fresh.Witness[i], pooled.Found[i], pooled.Witness[i])
			}
		}
	}
}

// TestScratchShrinkingInstances re-runs a scratch on a smaller spec so the
// stale tail of its buffers (previous Found/Witness entries) must not leak
// into the shorter result.
func TestScratchShrinkingInstances(t *testing.T) {
	sc := &Scratch{}
	big := make([][]bool, 30)
	for i := range big {
		big[i] = []bool{true, false}
	}
	net, _ := congest.NewNetwork(2)
	if _, err := MultiSearch(net, Spec{SpaceSize: 2, Instances: 30, Eval: LocalEval(big, 1), Scratch: sc}, xrand.New(1)); err != nil {
		t.Fatal(err)
	}
	small := [][]bool{{false, false}, {false, true}}
	res, err := MultiSearch(net, Spec{SpaceSize: 2, Instances: 2, Eval: LocalEval(small, 1), Scratch: sc}, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Found) != 2 || len(res.Witness) != 2 {
		t.Fatalf("result length %d/%d, want 2", len(res.Found), len(res.Witness))
	}
	if res.Found[0] || res.Witness[0] != -1 {
		t.Fatalf("stale scratch state leaked into unsatisfiable instance: %+v", res)
	}
	if !res.Found[1] || res.Witness[1] != 1 {
		t.Fatalf("satisfiable instance wrong: %+v", res)
	}
}

// TestScratchReuseAcrossShapes runs one Scratch through searches whose
// instance counts shrink and grow again, with unsatisfiable rows in each:
// every result must equal a fresh search's, so no found entry or witness
// of an earlier search survives into a later one.
func TestScratchReuseAcrossShapes(t *testing.T) {
	const size = 6
	rng := xrand.New(11)
	sc := &Scratch{}
	for trial, m := range []int{40, 3, 64, 10, 64, 80, 1, 80} {
		tables := make([][]bool, m)
		for i := range tables {
			tables[i] = make([]bool, size)
			if rng.Bool(0.6) {
				tables[i][rng.IntN(size)] = true
			}
		}
		spec := Spec{SpaceSize: size, Instances: m, Eval: LocalEval(tables, 1), Workers: 2}
		freshNet, _ := congest.NewNetwork(4)
		fresh, err := MultiSearch(freshNet, spec, xrand.New(uint64(trial)))
		if err != nil {
			t.Fatal(err)
		}
		spec.Scratch = sc
		reusedNet, _ := congest.NewNetwork(4)
		reused, err := MultiSearch(reusedNet, spec, xrand.New(uint64(trial)))
		if err != nil {
			t.Fatal(err)
		}
		if reused.FoundCount != fresh.FoundCount || !slices.Equal(reused.Found, fresh.Found) ||
			!slices.Equal(reused.Witness, fresh.Witness) || !slices.Equal(reused.RowFound, fresh.RowFound) {
			t.Fatalf("trial %d (m=%d): reused scratch found %d %v witnesses %v, fresh %d %v %v",
				trial, m, reused.FoundCount, reused.Found, reused.Witness, fresh.FoundCount, fresh.Found, fresh.Witness)
		}
		for i, ok := range reused.Found {
			if !ok && reused.Witness[i] != -1 {
				t.Fatalf("trial %d: instance %d not found but witness %d", trial, i, reused.Witness[i])
			}
		}
	}
}

package qsearch

import (
	"testing"

	"qclique/internal/congest"
	"qclique/internal/xrand"
)

// BenchmarkMultiSearchE1Shape times one class search of the shape Step 3
// runs at E1 n = 64 under the scaled constants, where Step 2's covering
// clips: the per-search average of a solve's 162 searches, about 97,000
// instances over 6,900 truth-table rows of |X| = 14, each row shared by
// the 14 labels of its group, and 15% of the rows holding a witness. As in
// that solve, about two thirds of the feasible rows are marked throughout
// and the rest hold one to four witnesses, instances are numbered label by
// label, so a row's instances are spread across the whole range, and the
// Scratch is reused.
func BenchmarkMultiSearchE1Shape(b *testing.B) {
	const rows, perRow, size = 6900, 14, 14
	rng := xrand.New(64)
	tables := make([][]bool, rows)
	for r := range tables {
		tables[r] = make([]bool, size)
		if !rng.Bool(0.15) {
			continue
		}
		if rng.Bool(0.68) {
			for x := range tables[r] {
				tables[r][x] = true
			}
			continue
		}
		for t := 1 + rng.IntN(4); t > 0; t-- {
			tables[r][rng.IntN(size)] = true
		}
	}
	starts := make([]int32, rows+1)
	insts := make([]int32, 0, rows*perRow)
	for r := range tables {
		for x := 0; x < perRow; x++ {
			insts = append(insts, int32(x*rows+r))
		}
		starts[r+1] = int32(len(insts))
	}
	index, err := NewRowIndex(starts, insts)
	if err != nil {
		b.Fatal(err)
	}
	eval := func(*congest.Network) (Tables, error) { return Tables{Rows: tables, Index: index}, nil }
	spec := Spec{SpaceSize: size, Instances: len(insts), Eval: eval, Scratch: &Scratch{}}
	net, err := congest.NewNetwork(64)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		if _, err := MultiSearch(net, spec, rng.SplitN("search", i)); err != nil {
			b.Fatal(err)
		}
	}
}

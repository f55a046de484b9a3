package triangles

import (
	"errors"
	"testing"
	"testing/quick"

	"qclique/internal/graph"
	"qclique/internal/xrand"
)

func TestSplitEven(t *testing.T) {
	cases := []struct {
		n, parts  int
		wantParts int
	}{
		{16, 4, 4},
		{17, 4, 4},
		{3, 5, 3}, // parts clipped to n
		{10, 1, 1},
	}
	for _, c := range cases {
		blocks := splitEven(c.n, c.parts)
		if len(blocks) != c.wantParts {
			t.Errorf("splitEven(%d,%d): %d parts, want %d", c.n, c.parts, len(blocks), c.wantParts)
		}
		seen := make([]bool, c.n)
		minSize, maxSize := c.n+1, 0
		for _, b := range blocks {
			if len(b) < minSize {
				minSize = len(b)
			}
			if len(b) > maxSize {
				maxSize = len(b)
			}
			for _, v := range b {
				if v < 0 || v >= c.n || seen[v] {
					t.Fatalf("splitEven(%d,%d) not a partition", c.n, c.parts)
				}
				seen[v] = true
			}
		}
		for v, ok := range seen {
			if !ok {
				t.Fatalf("splitEven(%d,%d) missed vertex %d", c.n, c.parts, v)
			}
		}
		if maxSize-minSize > 1 {
			t.Errorf("splitEven(%d,%d) uneven: sizes %d..%d", c.n, c.parts, minSize, maxSize)
		}
	}
}

func TestPartitionsShape(t *testing.T) {
	// Perfect fourth powers give the paper's exact shape.
	for _, n := range []int{16, 81, 256, 625} {
		pt, err := NewPartitions(n)
		if err != nil {
			t.Fatal(err)
		}
		q4 := pt.NumCoarse()
		if q4*q4*q4*q4 != n {
			t.Errorf("n=%d: coarse parts %d, want n^{1/4}", n, q4)
		}
		s := pt.NumFine()
		if s*s != n {
			t.Errorf("n=%d: fine parts %d, want √n", n, s)
		}
		if pt.NumTriples() != n {
			t.Errorf("n=%d: %d triples, want n", n, pt.NumTriples())
		}
		if pt.NumSearchLabels() != n {
			t.Errorf("n=%d: %d search labels, want n", n, pt.NumSearchLabels())
		}
	}
	if _, err := NewPartitions(0); err == nil {
		t.Error("n=0 should fail")
	}
}

func TestPartitionsBlockLookups(t *testing.T) {
	pt, err := NewPartitions(81)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 81; v++ {
		cb := pt.CoarseOf(v)
		found := false
		for _, x := range pt.Coarse[cb] {
			if x == v {
				found = true
			}
		}
		if !found {
			t.Fatalf("CoarseOf(%d) = %d does not contain it", v, cb)
		}
	}
}

func TestTripleIndexRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 4 + rng.IntN(200)
		pt, err := NewPartitions(n)
		if err != nil {
			return false
		}
		for i := 0; i < pt.NumTriples(); i++ {
			tl := pt.TripleFromIndex(i)
			if pt.TripleIndex(tl) != i {
				return false
			}
			if tl.U < 0 || tl.U >= pt.NumCoarse() || tl.V < 0 || tl.V >= pt.NumCoarse() || tl.W < 0 || tl.W >= pt.NumFine() {
				return false
			}
			if node := pt.TripleNode(tl); node < 0 || int(node) >= n {
				return false
			}
		}
		for i := 0; i < pt.NumSearchLabels(); i++ {
			sl := pt.SearchFromIndex(i)
			if pt.SearchIndex(sl) != i {
				return false
			}
			if node := pt.SearchNode(sl); node < 0 || int(node) >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPairsBetween(t *testing.T) {
	pt, err := NewPartitions(16)
	if err != nil {
		t.Fatal(err)
	}
	// Distinct blocks: |A|·|B| pairs.
	pairs := pt.PairsBetween(0, 1)
	want := len(pt.Coarse[0]) * len(pt.Coarse[1])
	if len(pairs) != want {
		t.Errorf("cross pairs = %d, want %d", len(pairs), want)
	}
	// Same block: |A| choose 2.
	pairs = pt.PairsBetween(0, 0)
	a := len(pt.Coarse[0])
	if len(pairs) != a*(a-1)/2 {
		t.Errorf("within pairs = %d, want %d", len(pairs), a*(a-1)/2)
	}
	// All pairs normalized and unique.
	seen := make(map[graph.Pair]bool)
	for _, p := range pairs {
		if p.U >= p.V || seen[p] {
			t.Fatalf("bad pair %v", p)
		}
		seen[p] = true
	}
}

func TestPairsBetweenCoverAllPairs(t *testing.T) {
	// Every pair of P(V) appears in at least one group's pair set.
	pt, err := NewPartitions(20)
	if err != nil {
		t.Fatal(err)
	}
	covered := make(map[graph.Pair]bool)
	q := pt.NumCoarse()
	for u := 0; u < q; u++ {
		for v := 0; v < q; v++ {
			for _, p := range pt.PairsBetween(u, v) {
				covered[p] = true
			}
		}
	}
	for a := 0; a < 20; a++ {
		for b := a + 1; b < 20; b++ {
			if !covered[graph.MakePair(a, b)] {
				t.Fatalf("pair {%d,%d} uncovered", a, b)
			}
		}
	}
}

func TestSampleCoveringBalanceAbort(t *testing.T) {
	pt, err := NewPartitions(81)
	if err != nil {
		t.Fatal(err)
	}
	// Pathological params: sample everything, bound of 1 → must abort.
	params := PaperParams()
	params.CoverSample = 1e9
	params.WellBalanced = 1e-9
	_, err = pt.sampleCovering(SearchLabel{U: 0, V: 1, X: 0}, params, xrand.New(1))
	var nwb *NotWellBalancedError
	if !errors.As(err, &nwb) {
		t.Fatalf("err = %v, want NotWellBalancedError", err)
	}
	if nwb.Error() == "" {
		t.Error("empty error message")
	}
}

func TestSampleCoveringPaperParamsBalanced(t *testing.T) {
	pt, err := NewPartitions(256)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(2)
	params := PaperParams()
	for x := 0; x < pt.NumFine(); x++ {
		if _, err := pt.sampleCovering(SearchLabel{U: 0, V: 1, X: x}, params, rng.SplitN("x", x)); err != nil {
			t.Fatalf("x=%d: unexpected abort: %v", x, err)
		}
	}
}

func TestCoveringCoversAllPairsWHP(t *testing.T) {
	// Lemma 2 (ii): the union of the Λx(u,v) over x covers P(u,v).
	pt, err := NewPartitions(81)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(3)
	params := PaperParams()
	covered := make(map[graph.Pair]bool)
	for x := 0; x < pt.NumFine(); x++ {
		pairs, err := pt.sampleCovering(SearchLabel{U: 0, V: 1, X: x}, params, rng.SplitN("x", x))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pairs {
			covered[p] = true
		}
	}
	for _, p := range pt.PairsBetween(0, 1) {
		if !covered[p] {
			t.Errorf("pair %v uncovered", p)
		}
	}
}

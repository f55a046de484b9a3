package matrix

import (
	"testing"

	"qclique/internal/graph"
	"qclique/internal/xrand"
)

func wsRandomMatrix(n int, seed uint64) *Matrix {
	rng := xrand.New(seed)
	m := New(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Bool(0.25) {
				continue // leave +Inf
			}
			m.Set(i, j, rng.Int64N(41)-20)
		}
	}
	return m
}

func TestMulMinPlusIntoMatchesDistanceProduct(t *testing.T) {
	for _, n := range []int{0, 1, 4, 9} {
		a := wsRandomMatrix(n, uint64(n)+1)
		b := wsRandomMatrix(n, uint64(n)+100)
		want, err := DistanceProduct(a, b)
		if err != nil {
			t.Fatal(err)
		}
		dst := New(n)
		dst.Fill(-3) // stale contents must be fully overwritten
		if err := MulMinPlusInto(dst, a, b, 3); err != nil {
			t.Fatal(err)
		}
		if !want.Equal(dst) {
			t.Fatalf("n=%d: MulMinPlusInto differs from DistanceProduct", n)
		}
	}
}

func TestMulMinPlusIntoRejectsAliasing(t *testing.T) {
	a := wsRandomMatrix(4, 1)
	if err := MulMinPlusInto(a, a, a, 1); err == nil {
		t.Fatal("aliased destination accepted")
	}
}

func TestAPSPBySquaringIntoMatchesAllocating(t *testing.T) {
	for _, n := range []int{1, 2, 7, 12} {
		ag := Identity(n)
		rng := xrand.New(uint64(n))
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && rng.Bool(0.5) {
					ag.Set(i, j, rng.Int64N(9)+1)
				}
			}
		}
		prod := func(a, b *Matrix) (*Matrix, error) { return DistanceProduct(a, b) }
		want, wantStats, err := APSPBySquaring(ag, prod)
		if err != nil {
			t.Fatal(err)
		}
		prodInto := func(dst, a, b *Matrix) error { return MulMinPlusInto(dst, a, b, 1) }
		got, gotStats, err := APSPBySquaringInto(ag, prodInto)
		if err != nil {
			t.Fatal(err)
		}
		if !want.Equal(got) {
			t.Fatalf("n=%d: in-place squaring differs", n)
		}
		if wantProducts := fixedPointIndex(t, ag); gotStats.Products != wantProducts {
			t.Fatalf("n=%d: products %d, want %d (full budget %d)", n, gotStats.Products, wantProducts, wantStats.Products)
		}
	}
}

// fixedPointIndex runs the full-budget reference chain one squaring at a
// time and returns the index of the first squaring that returned its input
// unchanged, or the budget when none did: the product count
// APSPBySquaringInto must report.
func fixedPointIndex(t *testing.T, ag *Matrix) int {
	t.Helper()
	budget := SquaringBudget(ag.N())
	cur := ag.Clone()
	for k := 1; k <= budget; k++ {
		next, err := DistanceProduct(cur, cur)
		if err != nil {
			t.Fatal(err)
		}
		if next.Equal(cur) {
			return k
		}
		cur = next
	}
	return budget
}

// fixedPointMatrix draws an A_G-shaped matrix (zero diagonal) for the
// fixed-point property test. kind selects the weight regime: 0 small
// weights of both signs (negative cycles are common at high density), 1
// small weights plus a sprinkle of −∞ arcs, 2 magnitudes near 2⁴⁰ of both
// signs, which force the int64 kernel and saturate along long walks.
func fixedPointMatrix(rng *xrand.Source, n, kind int, density float64) *Matrix {
	m := Identity(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || !rng.Bool(density) {
				continue
			}
			switch {
			case kind == 1 && rng.Bool(0.03):
				m.Set(i, j, graph.NegInf)
			case kind == 2:
				w := int64(1)<<40 + rng.Int64N(1<<20)
				if rng.Bool(0.5) {
					w = -w
				}
				m.Set(i, j, w)
			default:
				m.Set(i, j, rng.Int64N(17)-5)
			}
		}
	}
	return m
}

// TestAPSPBySquaringIntoFixedPoint is the fixed-point exit's property test:
// on random digraphs with negative arcs, negative cycles, −∞ arcs and
// |w| ≈ 2⁴⁰, the early-exit chain equals the full-budget APSPBySquaring bit
// for bit, and its Products is exactly the index of the first squaring
// that returned its input (the budget if none did).
func TestAPSPBySquaringIntoFixedPoint(t *testing.T) {
	early := 0
	for n := 1; n <= 40; n++ {
		for kind := 0; kind < 3; kind++ {
			for di, density := range []float64{0.05, 0.2, 0.6} {
				rng := xrand.New(uint64(n*100 + kind*10 + di))
				ag := fixedPointMatrix(rng, n, kind, density)
				want, _, err := APSPBySquaring(ag, DistanceProduct)
				if err != nil {
					t.Fatal(err)
				}
				wantProducts := fixedPointIndex(t, ag)
				for _, workers := range []int{1, 2} {
					prodInto := func(dst, a, b *Matrix) error { return MulMinPlusInto(dst, a, b, workers) }
					got, stats, err := APSPBySquaringInto(ag, prodInto)
					if err != nil {
						t.Fatal(err)
					}
					if !got.Equal(want) {
						t.Fatalf("n=%d kind=%d density=%v workers=%d: early-exit chain diverges from the full budget\ngot:\n%swant:\n%s",
							n, kind, density, workers, got, want)
					}
					if stats.Products != wantProducts {
						t.Fatalf("n=%d kind=%d density=%v: products %d, want %d", n, kind, density, stats.Products, wantProducts)
					}
					if stats.Products < SquaringBudget(n) {
						early++
					}
				}
			}
		}
	}
	if early == 0 {
		t.Fatal("no instance stopped before its budget: the fixed-point exit is untested")
	}
}

// TestAPSPBySquaringIntoProductCount pins the product count at both ends:
// a directed path needs every squaring of its budget, and a graph whose
// arcs are already shortest paths is its own square.
func TestAPSPBySquaringIntoProductCount(t *testing.T) {
	prodInto := func(dst, a, b *Matrix) error { return MulMinPlusInto(dst, a, b, 1) }

	const pathN = 17
	path := Identity(pathN)
	for i := 0; i+1 < pathN; i++ {
		path.Set(i, i+1, 1)
	}
	got, stats, err := APSPBySquaringInto(path, prodInto)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Products != 5 || SquaringBudget(pathN) != 5 {
		t.Errorf("17-vertex path: %d products (budget %d), want all 5", stats.Products, SquaringBudget(pathN))
	}
	if d := got.At(0, pathN-1); d != pathN-1 {
		t.Errorf("17-vertex path: d(0,16) = %d, want 16", d)
	}

	const completeN = 12
	complete := Identity(completeN)
	for i := 0; i < completeN; i++ {
		for j := 0; j < completeN; j++ {
			if i != j {
				complete.Set(i, j, 3)
			}
		}
	}
	got, stats, err = APSPBySquaringInto(complete, prodInto)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Products != 1 {
		t.Errorf("complete graph with shortest arcs: %d products, want 1", stats.Products)
	}
	if !got.Equal(complete) {
		t.Error("complete graph with shortest arcs: distances differ from the arcs")
	}
}

func TestRowViewAliases(t *testing.T) {
	m := New(3)
	m.Set(1, 2, 42)
	v := m.RowView(1)
	if v[2] != 42 {
		t.Fatalf("RowView read %d, want 42", v[2])
	}
	v[0] = 7
	if m.At(1, 0) != 7 {
		t.Fatal("write through RowView did not reach the matrix")
	}
	r := m.Row(1)
	r[1] = 99
	if m.At(1, 1) == 99 {
		t.Fatal("Row must copy, not alias")
	}
}

package matrix

import (
	"strings"
	"testing"
	"testing/quick"

	"qclique/internal/graph"
	"qclique/internal/xrand"
)

// Identity returns the min-plus identity: 0 on the diagonal, +∞ elsewhere.
func Identity(n int) *Matrix {
	m := New(n)
	for i := 0; i < n; i++ {
		m.a[i*n+i] = 0
	}
	return m
}

func TestNewAndIdentity(t *testing.T) {
	m := New(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != graph.Inf {
				t.Fatalf("New entry (%d,%d) = %d", i, j, m.At(i, j))
			}
		}
	}
	id := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := graph.Inf
			if i == j {
				want = 0
			}
			if id.At(i, j) != want {
				t.Fatalf("Identity entry (%d,%d) = %d", i, j, id.At(i, j))
			}
		}
	}
}

func TestIdentityIsProductIdentity(t *testing.T) {
	rng := xrand.New(1)
	m := randomMatrix(6, 30, rng)
	id := Identity(6)
	left, err := DistanceProduct(id, m)
	if err != nil {
		t.Fatal(err)
	}
	right, err := DistanceProduct(m, id)
	if err != nil {
		t.Fatal(err)
	}
	if !left.Equal(m) || !right.Equal(m) {
		t.Error("Identity must be a two-sided min-plus identity")
	}
}

func TestSetClampsAndAt(t *testing.T) {
	m := New(2)
	m.Set(0, 1, graph.Inf+100)
	if m.At(0, 1) != graph.Inf {
		t.Error("Set must clamp at +Inf")
	}
	m.Set(1, 0, graph.NegInf-100)
	if m.At(1, 0) != graph.NegInf {
		t.Error("Set must clamp at -Inf")
	}
	m.Set(0, 0, -7)
	if m.At(0, 0) != -7 {
		t.Error("Set/At roundtrip failed")
	}
}

func TestFromRows(t *testing.T) {
	m, err := FromRows([][]int64{{0, 5}, {3, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 1) != 5 || m.At(1, 0) != 3 {
		t.Error("FromRows entries wrong")
	}
	if _, err := FromRows([][]int64{{0, 5}, {3}}); err == nil {
		t.Error("ragged rows should fail")
	}
}

func TestDistanceProductSmall(t *testing.T) {
	a, err := FromRows([][]int64{
		{0, 2, graph.Inf},
		{graph.Inf, 0, -1},
		{4, graph.Inf, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := DistanceProduct(a, a)
	if err != nil {
		t.Fatal(err)
	}
	// c[0][2] = a[0][1] + a[1][2] = 1.
	if c.At(0, 2) != 1 {
		t.Errorf("c[0,2] = %d, want 1", c.At(0, 2))
	}
	// c[2][1] = a[2][0] + a[0][1] = 6.
	if c.At(2, 1) != 6 {
		t.Errorf("c[2,1] = %d, want 6", c.At(2, 1))
	}
	if c.At(1, 1) != 0 {
		t.Errorf("c[1,1] = %d, want 0", c.At(1, 1))
	}
}

func TestDistanceProductInfinityConventions(t *testing.T) {
	a, err := FromRows([][]int64{
		{graph.Inf, graph.NegInf},
		{5, graph.Inf},
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := FromRows([][]int64{
		{graph.Inf, graph.Inf},
		{7, graph.NegInf},
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := DistanceProduct(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// c[0,0] = min(Inf+Inf, -Inf+7) = -Inf.
	if c.At(0, 0) != graph.NegInf {
		t.Errorf("c[0,0] = %d, want -Inf", c.At(0, 0))
	}
	// c[0,1] = min(Inf+Inf, -Inf + -Inf) = -Inf.
	if c.At(0, 1) != graph.NegInf {
		t.Errorf("c[0,1] = %d, want -Inf", c.At(0, 1))
	}
	// c[1,0] = min(5+Inf, Inf+7) = Inf.
	if c.At(1, 0) != graph.Inf {
		t.Errorf("c[1,0] = %d, want Inf", c.At(1, 0))
	}
}

func TestDistanceProductDimensionMismatch(t *testing.T) {
	if _, err := DistanceProduct(New(2), New(3)); err == nil {
		t.Error("dimension mismatch should fail")
	}
}

func TestDistanceProductAssociativityProperty(t *testing.T) {
	// (A⋆B)⋆C == A⋆(B⋆C) on random finite matrices — a semiring law the
	// reference implementation must satisfy.
	rng := xrand.New(77)
	for trial := 0; trial < 25; trial++ {
		r := rng.SplitN("t", trial)
		a := randomMatrix(7, 50, r.Split("a"))
		b := randomMatrix(7, 50, r.Split("b"))
		c := randomMatrix(7, 50, r.Split("c"))
		ab, err := DistanceProduct(a, b)
		if err != nil {
			t.Fatal(err)
		}
		abc1, err := DistanceProduct(ab, c)
		if err != nil {
			t.Fatal(err)
		}
		bc, err := DistanceProduct(b, c)
		if err != nil {
			t.Fatal(err)
		}
		abc2, err := DistanceProduct(a, bc)
		if err != nil {
			t.Fatal(err)
		}
		if !abc1.Equal(abc2) {
			t.Fatalf("trial %d: associativity violated", trial)
		}
	}
}

func TestAPSPBySquaringMatchesFloydWarshall(t *testing.T) {
	rng := xrand.New(4242)
	for trial := 0; trial < 15; trial++ {
		n := 4 + rng.IntN(12)
		g, err := graph.RandomDigraph(n, graph.DigraphOpts{
			ArcProb:          0.45,
			MinWeight:        -6,
			MaxWeight:        15,
			NoNegativeCycles: true,
		}, rng.SplitN("g", trial))
		if err != nil {
			t.Fatal(err)
		}
		want, err := graph.FloydWarshall(g)
		if err != nil {
			t.Fatal(err)
		}
		got, stats, err := APSPBySquaring(FromDigraph(g), DistanceProduct)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if got.At(i, j) != want[i*n+j] {
					t.Fatalf("trial %d n=%d: d(%d,%d) = %d, want %d", trial, n, i, j, got.At(i, j), want[i*n+j])
				}
			}
		}
		// Proposition 3: at most ceil(log2(n)) products.
		maxProducts := 0
		for l := 1; l < n; l *= 2 {
			maxProducts++
		}
		if stats.Products != maxProducts {
			t.Errorf("trial %d: %d products, want %d", trial, stats.Products, maxProducts)
		}
	}
}

func TestAPSPBySquaringDetectsNegativeCycle(t *testing.T) {
	g := graph.NewDigraph(3)
	for _, a := range [][3]int64{{0, 1, 1}, {1, 2, -5}, {2, 0, 1}} {
		if err := g.SetArc(int(a[0]), int(a[1]), a[2]); err != nil {
			t.Fatal(err)
		}
	}
	got, _, err := APSPBySquaring(FromDigraph(g), DistanceProduct)
	if err != nil {
		t.Fatal(err)
	}
	if !got.HasNegativeDiagonal() {
		t.Error("negative cycle must surface as a negative diagonal entry")
	}
}

func TestAPSPBySquaringTrivialSizes(t *testing.T) {
	for _, n := range []int{0, 1, 2} {
		m, stats, err := APSPBySquaring(Identity(n), DistanceProduct)
		if err != nil {
			t.Fatal(err)
		}
		if m.N() != n {
			t.Errorf("n=%d: result dimension %d", n, m.N())
		}
		if n <= 2 && stats.Products > 1 {
			t.Errorf("n=%d: %d products", n, stats.Products)
		}
	}
}

func TestFromDigraph(t *testing.T) {
	g := graph.NewDigraph(3)
	if err := g.SetArc(0, 1, -2); err != nil {
		t.Fatal(err)
	}
	m := FromDigraph(g)
	if m.At(0, 0) != 0 || m.At(1, 1) != 0 {
		t.Error("diagonal must be 0")
	}
	if m.At(0, 1) != -2 {
		t.Error("arc weight must carry over")
	}
	if m.At(1, 0) != graph.Inf {
		t.Error("absent arc must be Inf")
	}
}

func TestCloneAndEqual(t *testing.T) {
	rng := xrand.New(8)
	m := randomMatrix(5, 20, rng)
	c := m.Clone()
	if !m.Equal(c) {
		t.Error("clone must equal original")
	}
	c.Set(2, 2, 999)
	if m.Equal(c) {
		t.Error("mutating clone must not affect original")
	}
	if m.Equal(New(4)) {
		t.Error("different dimensions are not equal")
	}
}

func TestMaxAbsFinite(t *testing.T) {
	m := New(2)
	if m.MaxAbsFinite() != 0 {
		t.Error("all-Inf matrix should report 0")
	}
	m.Set(0, 1, -9)
	m.Set(1, 0, 4)
	if m.MaxAbsFinite() != 9 {
		t.Errorf("MaxAbsFinite = %d, want 9", m.MaxAbsFinite())
	}
}

func TestStringRendering(t *testing.T) {
	m := New(2)
	m.Set(0, 0, 0)
	m.Set(0, 1, graph.NegInf)
	s := m.String()
	if !strings.Contains(s, "-inf") || !strings.Contains(s, "inf") {
		t.Errorf("String() = %q", s)
	}
}

func TestRowReturnsCopy(t *testing.T) {
	m := Identity(3)
	r := m.Row(1)
	r[1] = 42
	if m.At(1, 1) != 0 {
		t.Error("Row must return a copy")
	}
}

func TestDistanceProductMonotoneProperty(t *testing.T) {
	// Lowering any entry of A can only lower (or keep) entries of A⋆B.
	rng := xrand.New(55)
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		a := randomMatrix(5, 30, r.Split("a"))
		b := randomMatrix(5, 30, r.Split("b"))
		c1, err := DistanceProduct(a, b)
		if err != nil {
			return false
		}
		i, j := r.IntN(5), r.IntN(5)
		a2 := a.Clone()
		if v := a2.At(i, j); graph.IsFinite(v) {
			a2.Set(i, j, v-10)
		} else {
			a2.Set(i, j, 0)
		}
		c2, err := DistanceProduct(a2, b)
		if err != nil {
			return false
		}
		for x := 0; x < 5; x++ {
			for y := 0; y < 5; y++ {
				if c2.At(x, y) > c1.At(x, y) {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Values: nil}
	_ = cfg
	for trial := 0; trial < 40; trial++ {
		if !f(rng.Uint64()) {
			t.Fatalf("monotonicity violated at trial %d", trial)
		}
	}
}

// randomMatrix builds a matrix with entries uniform in [-maxAbs, maxAbs] and
// ~20% +Inf entries (diagonal kept at 0 so squaring behaves like a graph).
func randomMatrix(n int, maxAbs int64, rng *xrand.Source) *Matrix {
	m := New(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				m.Set(i, j, 0)
				continue
			}
			if rng.Bool(0.2) {
				continue // leave +Inf
			}
			m.Set(i, j, rng.Int64N(2*maxAbs+1)-maxAbs)
		}
	}
	return m
}

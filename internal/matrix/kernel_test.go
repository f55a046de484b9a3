package matrix

import (
	"fmt"
	"testing"

	"qclique/internal/graph"
	"qclique/internal/xrand"
)

// mulMinPlusReference is the unblocked i-k-j product the kernels replaced,
// kept here as the property-test oracle: one row at a time, saturating
// arithmetic, ∞-row skip.
func mulMinPlusReference(dst, a, b *Matrix) {
	n := a.n
	for i := 0; i < n; i++ {
		rowC := dst.a[i*n : (i+1)*n]
		for j := range rowC {
			rowC[j] = graph.Inf
		}
		for k := 0; k < n; k++ {
			aik := a.a[i*n+k]
			if aik >= graph.Inf {
				continue
			}
			rowB := b.a[k*n : (k+1)*n]
			for j := 0; j < n; j++ {
				if s := graph.SaturatingAdd(aik, rowB[j]); s < rowC[j] {
					rowC[j] = s
				}
			}
		}
	}
}

// randomKernelMatrix fills an n×n matrix with entries drawn from
// [-maxW, maxW], an infDensity fraction of +∞, and (when negInf is set) a
// sprinkle of −∞ entries.
func randomKernelMatrix(rng *xrand.Source, n int, maxW int64, infDensity float64, negInf bool) *Matrix {
	m := New(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			switch {
			case rng.Bool(infDensity):
				// leave +∞
			case negInf && rng.Bool(0.05):
				m.Set(i, j, graph.NegInf)
			default:
				m.Set(i, j, rng.Int64N(2*maxW+1)-maxW)
			}
		}
	}
	return m
}

// kernelCase is one weight regime of the kernel property test.
type kernelCase struct {
	maxW       int64
	infDensity float64
	negInf     bool
}

var kernelCases = []kernelCase{
	{maxW: 50, infDensity: 0.2, negInf: false},             // int32 path
	{maxW: 1000, infDensity: 0.7, negInf: false},           // int32, mostly ∞
	{maxW: 3, infDensity: 0.0, negInf: false},              // int32, dense
	{maxW: 50, infDensity: 0.2, negInf: true},              // −∞ forces int64
	{maxW: int64(1) << 40, infDensity: 0.3, negInf: false}, // magnitude forces int64
}

// checkBlockedAgainstReference draws two n×n matrices of case ci and
// requires MulMinPlusInto to equal the unblocked reference bit for bit at
// each worker count, for a product and for a squaring (a==b, where both
// operands share one compacted buffer).
func checkBlockedAgainstReference(t *testing.T, n, ci int, workerCounts []int) {
	t.Helper()
	tc := kernelCases[ci]
	rng := xrand.New(uint64(n*100 + ci))
	a := randomKernelMatrix(rng, n, tc.maxW, tc.infDensity, tc.negInf)
	b := randomKernelMatrix(rng, n, tc.maxW, tc.infDensity, tc.negInf)
	want := New(n)
	mulMinPlusReference(want, a, b)
	wantSq := New(n)
	mulMinPlusReference(wantSq, a, a)
	for _, workers := range workerCounts {
		got := New(n)
		if err := MulMinPlusInto(got, a, b, workers); err != nil {
			t.Fatalf("n=%d case=%d workers=%d: %v", n, ci, workers, err)
		}
		if !got.Equal(want) {
			t.Fatalf("n=%d case=%d workers=%d: blocked product diverges from reference\ngot:\n%swant:\n%s",
				n, ci, workers, got, want)
		}
		if err := MulMinPlusInto(got, a, a, workers); err != nil {
			t.Fatalf("n=%d case=%d workers=%d squaring: %v", n, ci, workers, err)
		}
		if !got.Equal(wantSq) {
			t.Fatalf("n=%d case=%d workers=%d: blocked squaring diverges from reference", n, ci, workers)
		}
	}
}

// TestBlockedEquivalentToReference is the kernel property test: random
// seeds, a spread of ∞ densities, negative weights, and weight magnitudes
// that force the int32 path on some instances and the int64 path (−∞
// entries or huge weights) on others; MulMinPlusInto must equal the
// unblocked reference bit for bit, at several worker counts. Every n in
// 1..65 crosses each rowBlock and tileK boundary and every remainder of
// the int32 kernel's four-way k fold; n ∈ {127, 128, 129, 256} crosses the
// tileJ boundary, once on each kernel.
func TestBlockedEquivalentToReference(t *testing.T) {
	for n := 1; n <= 65; n++ {
		for ci := range kernelCases {
			checkBlockedAgainstReference(t, n, ci, []int{1, 2, 5})
		}
	}
	for _, n := range []int{127, 128, 129, 256} {
		checkBlockedAgainstReference(t, n, 0, []int{1, 2}) // int32
		checkBlockedAgainstReference(t, n, 4, []int{1, 2}) // int64
	}
}

// TestKernelPathSelection pins which inputs reach the compacted kernel.
func TestKernelPathSelection(t *testing.T) {
	rng := xrand.New(7)
	small := randomKernelMatrix(rng, 16, 100, 0.3, false)
	if _, ok := mulMinPlusSelect32(small, small); !ok {
		t.Error("small weights must select the int32 kernel")
	}
	withNegInf := small.Clone()
	withNegInf.Set(3, 4, graph.NegInf)
	if _, ok := mulMinPlusSelect32(withNegInf, small); ok {
		t.Error("a −∞ entry must force the int64 kernel")
	}
	if _, ok := mulMinPlusSelect32(small, withNegInf); ok {
		t.Error("a −∞ entry in B must force the int64 kernel")
	}
	huge := small.Clone()
	huge.Set(0, 1, int64(1)<<40)
	if _, ok := mulMinPlusSelect32(huge, small); ok {
		t.Error("weights beyond int32 headroom must force the int64 kernel")
	}
	// Boundary: the selection inequality is inf32 > 2·maxA + maxB.
	lim := New(4)
	lim.Set(0, 1, (int64(inf32)-1)/3)
	if _, ok := mulMinPlusSelect32(lim, lim); !ok {
		t.Error("weights just inside the headroom bound must select int32")
	}
	over := New(4)
	over.Set(0, 1, int64(inf32)/3+1)
	if _, ok := mulMinPlusSelect32(over, over); ok {
		t.Error("weights just beyond the headroom bound must not select int32")
	}
}

// TestCompactRoundTripExtremes exercises the decompaction boundary: sums
// exactly at the finite bound M stay finite, and ∞-leg sums (which land
// above M but below inf32) restore to +∞.
func TestCompactRoundTripExtremes(t *testing.T) {
	const w = 1 << 20
	n := 3
	a := New(n)
	b := New(n)
	// a[0,1] = w, b[1,2] = w → c[0,2] = 2w = M exactly.
	a.Set(0, 1, w)
	b.Set(1, 2, w)
	// a[1,0] = -w: every leg of row 1 crosses a +∞ entry, so c[1,2] must
	// come out +∞ even though the compacted sum -w + inf32 is below inf32.
	a.Set(1, 0, -w)
	maxSum, ok := mulMinPlusSelect32(a, b)
	if !ok || maxSum != 2*w {
		t.Fatalf("selection: ok=%v maxSum=%d, want true, %d", ok, maxSum, 2*w)
	}
	got := New(n)
	if err := MulMinPlusInto(got, a, b, 1); err != nil {
		t.Fatal(err)
	}
	want := New(n)
	mulMinPlusReference(want, a, b)
	if !got.Equal(want) {
		t.Fatalf("extremes diverge\ngot:\n%swant:\n%s", got, want)
	}
	if got.At(0, 2) != 2*w {
		t.Errorf("sum at the bound M: got %d want %d", got.At(0, 2), 2*w)
	}
	if got.At(1, 2) != graph.Inf {
		t.Errorf("∞-leg sum must decompact to +∞, got %d", got.At(1, 2))
	}
}

// BenchmarkMulMinPlus times one n=256 product through the int32 kernel, on
// a dense random matrix and on the sparse A_G of an E1-style digraph (arc
// probability 0.4, weights −8…8), the first squaring of the gossip chain.
func BenchmarkMulMinPlus(b *testing.B) {
	const n = 256
	g, err := graph.RandomDigraph(n, graph.DigraphOpts{
		ArcProb: 0.4, MinWeight: -8, MaxWeight: 8, NoNegativeCycles: true,
	}, xrand.New(n))
	if err != nil {
		b.Fatal(err)
	}
	inputs := []struct {
		name string
		m    *Matrix
	}{
		{"dense", randomKernelMatrix(xrand.New(1), n, 1000, 0, false)},
		{"ag", FromDigraph(g)},
	}
	for _, in := range inputs {
		b.Run(fmt.Sprintf("%s/n=%d", in.name, n), func(b *testing.B) {
			dst := New(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := MulMinPlusInto(dst, in.m, in.m, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

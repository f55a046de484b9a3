package quantum

import (
	"math"
	"testing"

	"qclique/internal/xrand"
)

func TestPoissonBinomialTailExactSmall(t *testing.T) {
	// Two fair coins: Pr[S > 1] = Pr[S=2] = 1/4.
	got := PoissonBinomialTail([]float64{0.5, 0.5}, 1)
	if math.Abs(got-0.25) > 1e-12 {
		t.Errorf("tail = %f, want 0.25", got)
	}
	// Pr[S > 0] = 1 - 1/4 = 3/4.
	got = PoissonBinomialTail([]float64{0.5, 0.5}, 0)
	if math.Abs(got-0.75) > 1e-12 {
		t.Errorf("tail = %f, want 0.75", got)
	}
	if PoissonBinomialTail([]float64{0.5}, -1) != 1 {
		t.Error("threshold below 0 means certain exceedance")
	}
	if PoissonBinomialTail([]float64{0.5, 0.5}, 2) != 0 {
		t.Error("S cannot exceed m")
	}
}

func TestPoissonBinomialMatchesBinomial(t *testing.T) {
	// Equal probabilities reduce to a binomial; compare against a direct
	// binomial sum.
	m, p, thr := 20, 0.3, 8
	probs := make([]float64, m)
	for i := range probs {
		probs[i] = p
	}
	got := PoissonBinomialTail(probs, thr)
	var want float64
	for k := thr + 1; k <= m; k++ {
		want += binomPMF(m, k, p)
	}
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("tail = %g, want %g", got, want)
	}
}

func binomPMF(n, k int, p float64) float64 {
	logc := 0.0
	for i := 0; i < k; i++ {
		logc += math.Log(float64(n-i)) - math.Log(float64(i+1))
	}
	return math.Exp(logc + float64(k)*math.Log(p) + float64(n-k)*math.Log(1-p))
}

func TestPoissonBinomialMonteCarlo(t *testing.T) {
	rng := xrand.New(31)
	probs := []float64{0.1, 0.8, 0.4, 0.4, 0.25, 0.6, 0.05}
	thr := 3
	want := PoissonBinomialTail(probs, thr)
	const trials = 40000
	hits := 0
	for i := 0; i < trials; i++ {
		s := 0
		for _, p := range probs {
			if rng.Bool(p) {
				s++
			}
		}
		if s > thr {
			hits++
		}
	}
	got := float64(hits) / trials
	if math.Abs(got-want) > 0.01 {
		t.Errorf("Monte Carlo %f vs exact %f", got, want)
	}
}

func TestChernoffFrequencyTailBoundsExact(t *testing.T) {
	// The Chernoff bound must upper-bound the exact tail.
	probs := make([]float64, 100)
	mu := 0.0
	for i := range probs {
		probs[i] = 0.1
		mu += 0.1
	}
	for _, thr := range []int{15, 20, 30} {
		exact := PoissonBinomialTail(probs, thr-1) // Pr[S >= thr]
		bound := ChernoffFrequencyTail(mu, thr)
		if bound < exact {
			t.Errorf("thr=%d: Chernoff %g below exact %g", thr, bound, exact)
		}
	}
	if ChernoffFrequencyTail(0, 1) != 0 {
		t.Error("zero mean cannot exceed positive threshold")
	}
	if ChernoffFrequencyTail(0, 0) != 1 {
		t.Error("vacuous threshold must return 1")
	}
	if ChernoffFrequencyTail(5, 3) != 1 {
		t.Error("threshold below mean must return the trivial bound")
	}
}

func TestAtypicalMassUniformIsTiny(t *testing.T) {
	// m=200 instances uniform over |X|=8 with β=8m/|X|·(1.0+) → mass must
	// be small; compare exact and Chernoff variants.
	m, sizeX := 200, 8
	beta := 8 * m / sizeX // = 200; expected frequency is m/|X| = 25
	uni := make([][]float64, m)
	for i := range uni {
		row := make([]float64, sizeX)
		for x := range row {
			row[x] = 1 / float64(sizeX)
		}
		uni[i] = row
	}
	exact := AtypicalMass(uni, beta, true)
	cher := AtypicalMass(uni, beta, false)
	if exact > 1e-9 {
		t.Errorf("exact atypical mass %g too large", exact)
	}
	if cher < exact {
		t.Errorf("Chernoff %g below exact %g", cher, exact)
	}
	if AtypicalMass(nil, 10, true) != 0 {
		t.Error("no instances means no atypical mass")
	}
}

func TestAtypicalMassSkewedIsLarge(t *testing.T) {
	// Every instance concentrated on element 0: frequency of 0 is m,
	// hugely above β → mass ≈ 1.
	m, sizeX := 50, 8
	rows := make([][]float64, m)
	for i := range rows {
		row := make([]float64, sizeX)
		row[0] = 1
		rows[i] = row
	}
	if got := AtypicalMass(rows, 10, true); got < 0.999 {
		t.Errorf("skewed mass = %f, want ~1", got)
	}
}

func TestLemma5MassBound(t *testing.T) {
	// Bound formula sanity: |X|·exp(−2m/(9|X|)).
	got := Lemma5MassBound(900, 10)
	want := 10 * math.Exp(-2*900.0/(9*10))
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("bound = %g, want %g", got, want)
	}
	if Lemma5MassBound(0, 10) != 0 || Lemma5MassBound(10, 0) != 0 {
		t.Error("degenerate inputs should be 0")
	}
	// Under the Theorem 3 precondition |X| < m/(36 log m) the bound is tiny.
	m := 10000
	sizeX := 5
	if b := Lemma5MassBound(m, sizeX); b > 1e-9 {
		t.Errorf("bound %g too large under preconditions", b)
	}
}

func TestTruncationDeviationBound(t *testing.T) {
	if TruncationDeviationBound(0, 100, 4) != 0 {
		t.Error("zero iterations means zero deviation")
	}
	// Monotone in k.
	a := TruncationDeviationBound(1, 1000, 4)
	b := TruncationDeviationBound(10, 1000, 4)
	if b <= a {
		t.Error("deviation bound must grow with k")
	}
	// The proof's punchline: under |X| < m/(36 log m), the bound is at
	// most 2k/m³. The paper's constant is loose right at the boundary, so
	// verify the inequality at a point comfortably inside the region.
	m := 6000
	sizeX := 4 // 4 « 6000/(36·log 6000) ≈ 19.2
	if !Theorem3Preconditions(m, sizeX, 8*float64(m)/float64(sizeX)+1) {
		t.Fatal("test parameters should satisfy preconditions")
	}
	k := int64(40)
	bound := TruncationDeviationBound(k, m, sizeX)
	punchline := 2 * float64(k) / (float64(m) * float64(m) * float64(m))
	if bound > punchline {
		t.Errorf("deviation bound %g exceeds 2k/m³ = %g", bound, punchline)
	}
}

func TestTheorem3Preconditions(t *testing.T) {
	if Theorem3Preconditions(1, 4, 100) {
		t.Error("m=1 cannot satisfy preconditions")
	}
	if Theorem3Preconditions(100, 50, 1000) {
		t.Error("|X| ≥ m/(36 log m) must fail")
	}
	m, sizeX := 10000, 5
	if !Theorem3Preconditions(m, sizeX, 8*float64(m)/float64(sizeX)+1) {
		t.Error("valid triple rejected")
	}
	if Theorem3Preconditions(m, sizeX, 8*float64(m)/float64(sizeX)-1) {
		t.Error("β below 8m/|X| must fail")
	}
}

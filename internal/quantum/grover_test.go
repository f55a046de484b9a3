package quantum

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"qclique/internal/xrand"
)

func TestUniformIsUnit(t *testing.T) {
	for _, n := range []int{1, 2, 7, 64} {
		amps := uniform(n)
		if err := validateDistribution(amps, 1e-9); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
	}
	if uniform(0) != nil || uniform(-1) != nil {
		t.Error("degenerate sizes should return nil")
	}
}

func TestIteratePreservesNorm(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 2 + rng.IntN(40)
		marked := make([]bool, n)
		for i := range marked {
			marked[i] = rng.Bool(0.3)
		}
		amps := uniform(n)
		for it := 0; it < 10; it++ {
			iterate(amps, marked)
			if validateDistribution(amps, 1e-6) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestGroverAmplification(t *testing.T) {
	// One marked element out of 64: after ⌊π/4·√64⌋ = 6 iterations the
	// success probability must be near 1 (theory: sin²((2k+1)θ) ≈ 0.997).
	n := 64
	marked := make([]bool, n)
	marked[17] = true
	k := iterationsForKnown(n, 1)
	if k != 6 {
		t.Fatalf("iterationsForKnown(64,1) = %d, want 6", k)
	}
	amps := amplitudeAfter(marked, k)
	if p := successProbability(amps, marked); p < 0.95 {
		t.Errorf("success probability %f after %d iterations", p, k)
	}
}

func TestIterationsForKnownShape(t *testing.T) {
	// √N shape: k(N,1) grows like (π/4)√N.
	for _, n := range []int{16, 64, 256, 1024, 4096} {
		k := iterationsForKnown(n, 1)
		ideal := math.Pi / 4 * math.Sqrt(float64(n))
		if math.Abs(float64(k)-ideal) > ideal/3+1 {
			t.Errorf("n=%d: k=%d, ideal %f", n, k, ideal)
		}
	}
	if iterationsForKnown(10, 0) != 0 || iterationsForKnown(0, 1) != 0 {
		t.Error("degenerate cases should be 0")
	}
	if iterationsForKnown(10, 6) != 0 {
		t.Error("majority-marked space needs no iterations")
	}
}

func TestNoOvershootAtOptimalIterations(t *testing.T) {
	// For several (n, t) the optimal count must land at >= 1-t/n... use a
	// conservative 0.8 threshold.
	cases := [][2]int{{16, 1}, {64, 3}, {256, 5}, {100, 2}}
	for _, c := range cases {
		n, tt := c[0], c[1]
		marked := make([]bool, n)
		for i := 0; i < tt; i++ {
			marked[i*7%n] = true
		}
		if countMarked(marked) != tt {
			continue // collision in placement; skip
		}
		k := iterationsForKnown(n, tt)
		amps := amplitudeAfter(marked, k)
		if p := successProbability(amps, marked); p < 0.8 {
			t.Errorf("n=%d t=%d k=%d: p=%f", n, tt, k, p)
		}
	}
}

func TestMeasureStatistics(t *testing.T) {
	rng := xrand.New(5)
	n := 8
	marked := make([]bool, n)
	marked[3] = true
	amps := amplitudeAfter(marked, iterationsForKnown(n, 1))
	hits := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		if measure(amps, rng) == 3 {
			hits++
		}
	}
	want := successProbability(amps, marked)
	got := float64(hits) / trials
	if math.Abs(got-want) > 0.05 {
		t.Errorf("measured rate %f, amplitude says %f", got, want)
	}
}

func TestSearchFindsPlantedSolution(t *testing.T) {
	rng := xrand.New(11)
	for trial := 0; trial < 50; trial++ {
		r := rng.SplitN("t", trial)
		n := 4 + r.IntN(60)
		target := r.IntN(n)
		res := Search(n, func(x int) bool { return x == target }, r)
		if !res.Found || res.X != target {
			t.Fatalf("trial %d: search failed: %+v", trial, res)
		}
	}
}

func TestSearchNoSolution(t *testing.T) {
	rng := xrand.New(13)
	res := Search(64, func(int) bool { return false }, rng)
	if res.Found {
		t.Fatal("found a solution in an empty oracle")
	}
	// Cost cap: O(√n log n) iterations.
	if res.Iterations > 8*64 {
		t.Errorf("no-solution search used %d iterations", res.Iterations)
	}
	if res.Verifications == 0 {
		t.Error("search must verify candidates")
	}
}

func TestSearchCostScalesLikeSqrtN(t *testing.T) {
	// Average BBHT iteration count for single-solution instances must grow
	// sublinearly — close to c√n. Compare n=64 vs n=4096: the ratio of
	// costs should be near 8 (=√64), certainly below 20 (linear would be 64).
	rng := xrand.New(17)
	avg := func(n int) float64 {
		var total int64
		const trials = 60
		for i := 0; i < trials; i++ {
			r := rng.SplitN("s", n*1000+i)
			target := r.IntN(n)
			res := Search(n, func(x int) bool { return x == target }, r)
			if !res.Found {
				t.Fatalf("n=%d trial %d: not found", n, i)
			}
			total += res.OracleCalls()
		}
		return float64(total) / trials
	}
	small := avg(64)
	big := avg(4096)
	ratio := big / small
	if ratio > 20 {
		t.Errorf("cost ratio %f suggests super-√n scaling (small=%f big=%f)", ratio, small, big)
	}
}

func TestSearchManySolutions(t *testing.T) {
	rng := xrand.New(19)
	n := 128
	res := Search(n, func(x int) bool { return x%4 == 0 }, rng)
	if !res.Found || res.X%4 != 0 {
		t.Fatalf("search failed: %+v", res)
	}
	// With n/4 solutions, very few iterations are needed.
	if res.Iterations > 64 {
		t.Errorf("many-solution search used %d iterations", res.Iterations)
	}
}

func TestSearchDegenerate(t *testing.T) {
	rng := xrand.New(23)
	if res := Search(0, func(int) bool { return true }, rng); res.Found {
		t.Error("empty space cannot contain a solution")
	}
	res := Search(1, func(x int) bool { return x == 0 }, rng)
	if !res.Found || res.X != 0 {
		t.Errorf("singleton search: %+v", res)
	}
}

// FixedScheduleProbe runs exactly j Grover iterations from the uniform
// state and measures once with one draw from rng: MeasurementTable
// followed by Measure, the probe every round of a search makes.
func FixedScheduleProbe(marked []bool, j int, rng *xrand.Source) (x int, hit bool) {
	x = Measure(MeasurementTable(marked, j, nil), rng.Float64())
	return x, marked[x]
}

// TestSearchMatchesProbes holds Search, which keeps one measurement table
// for all its rounds, to the BBHT schedule run probe by probe through
// FixedScheduleProbe: the same draws in the same order give the same
// result, on tables that fit the stack buffer and tables that do not.
func TestSearchMatchesProbes(t *testing.T) {
	rng := xrand.New(37)
	for _, n := range []int{1, 5, 64, 65, 300, 1024} {
		for trial := 0; trial < 20; trial++ {
			marked := make([]bool, n)
			switch trial % 3 {
			case 0: // none marked
			case 1:
				marked[rng.IntN(n)] = true
			default:
				for i := range marked {
					marked[i] = rng.Bool(0.1)
				}
			}
			got := Search(n, func(x int) bool { return marked[x] }, xrand.New(uint64(trial)))

			var want SearchResult
			probeRng := xrand.New(uint64(trial))
			m := 1.0
			for round := 0; round < 4+3*int(math.Ceil(math.Log2(float64(n+1)))); round++ {
				j := probeRng.IntN(int(math.Ceil(m)) + 1)
				want.Iterations += int64(j)
				x, hit := FixedScheduleProbe(marked, j, probeRng)
				want.Verifications++
				if hit {
					want.Found, want.X = true, x
					break
				}
				m = math.Min(6.0/5.0*m, math.Sqrt(float64(n)))
			}
			if got != want {
				t.Fatalf("|X|=%d trial %d: Search %+v, probe by probe %+v", n, trial, got, want)
			}
		}
	}
}

func TestFixedScheduleProbe(t *testing.T) {
	rng := xrand.New(29)
	n := 64
	marked := make([]bool, n)
	marked[9] = true
	k := iterationsForKnown(n, 1)
	hits := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		if _, hit := FixedScheduleProbe(marked, k, rng); hit {
			hits++
		}
	}
	if float64(hits)/trials < 0.9 {
		t.Errorf("fixed-schedule hit rate %d/%d", hits, trials)
	}
}

func TestMarkedFromOracleAndCount(t *testing.T) {
	marked := MarkedFromOracle(10, func(x int) bool { return x%2 == 1 })
	if countMarked(marked) != 5 {
		t.Errorf("count = %d", countMarked(marked))
	}
	if marked[0] || !marked[1] {
		t.Error("truth table wrong")
	}
}

func TestOracleCalls(t *testing.T) {
	r := SearchResult{Iterations: 5, Verifications: 2}
	if r.OracleCalls() != 7 {
		t.Error("OracleCalls must sum iterations and verifications")
	}
}

// TestFixedScheduleProbeMatchesStateVector holds the two-amplitude probe
// to the full state-vector simulation: for every oracle and iteration
// count, the same random stream measures the same index.
func TestFixedScheduleProbeMatchesStateVector(t *testing.T) {
	rng := xrand.New(31)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.IntN(40)
		marked := make([]bool, n)
		for i := range marked {
			marked[i] = rng.Bool(0.2)
		}
		j := rng.IntN(8)
		x, hit := FixedScheduleProbe(marked, j, xrand.New(uint64(trial)))
		want := measure(amplitudeAfter(marked, j), xrand.New(uint64(trial)))
		if x != want || hit != marked[want] {
			t.Fatalf("trial %d (n=%d, j=%d): probe measured (%d, %v), state vector %d", trial, n, j, x, hit, want)
		}
	}
}

// legacyProbe is FixedScheduleProbe as it was before the measurement table
// was split out, with the uniform draw r passed in: j Grover iterations on
// the two amplitudes, then the first i with r < the running sum of squared
// amplitudes, or the last index. It is cut in two after the evolution, so
// a test can evolve once and measure many draws.
func legacyProbe(marked []bool, j int, r float64) (x int, hit bool) {
	aM, aU := legacyEvolve(marked, j)
	return legacyMeasure(marked, aM, aU, r)
}

func legacyEvolve(marked []bool, j int) (aM, aU float64) {
	n := len(marked)
	a := 1 / math.Sqrt(float64(n))
	aM, aU = a, a
	for it := 0; it < j; it++ {
		fm := -aM
		var sum float64
		for _, m := range marked {
			if m {
				sum += fm
			} else {
				sum += aU
			}
		}
		mean := sum / float64(n)
		aM = 2*mean - fm
		aU = 2*mean - aU
	}
	return aM, aU
}

func legacyMeasure(marked []bool, aM, aU, r float64) (x int, hit bool) {
	n := len(marked)
	aM2, aU2 := aM*aM, aU*aU
	var acc float64
	for i, m := range marked {
		if m {
			acc += aM2
		} else {
			acc += aU2
		}
		if r < acc {
			return i, m
		}
	}
	return n - 1, marked[n-1]
}

// TestMeasureMatchesLegacyProbe holds MeasurementTable and Measure to the
// probe they replace, bit for bit: |X| from 1 to 40, j from 0 to ⌈√|X|⌉+3,
// random, one-marked and all-marked rows, 10⁴ uniform draws each, plus
// draws equal to every table entry (which the old probe never selects), 0,
// and 1−2⁻⁵³, where rounding can leave the table's total below the draw.
// FixedScheduleProbe, the two parts composed, must measure what the old
// probe measures from the same stream.
func TestMeasureMatchesLegacyProbe(t *testing.T) {
	rng := xrand.New(37)
	const draws = 10_000
	for n := 1; n <= 40; n++ {
		random := make([]bool, n)
		for i := range random {
			random[i] = rng.Bool(0.3)
		}
		one := make([]bool, n)
		one[rng.IntN(n)] = true
		all := make([]bool, n)
		for i := range all {
			all[i] = true
		}
		for _, row := range []struct {
			name   string
			marked []bool
		}{{"random", random}, {"one marked", one}, {"all marked", all}} {
			for j := 0; j <= int(math.Ceil(math.Sqrt(float64(n))))+3; j++ {
				table := MeasurementTable(row.marked, j, nil)
				aM, aU := legacyEvolve(row.marked, j)
				check := func(r float64) {
					x := Measure(table, r)
					wantX, wantHit := legacyMeasure(row.marked, aM, aU, r)
					if x != wantX || row.marked[x] != wantHit {
						t.Fatalf("%s row, |X|=%d, j=%d, r=%v: measured %d, old probe %d", row.name, n, j, r, x, wantX)
					}
				}
				for _, c := range table {
					check(c)
				}
				check(0)
				check(1 - 0x1p-53)
				for d := 0; d < draws; d++ {
					check(rng.Float64())
				}
				seed := rng.Uint64()
				x, hit := FixedScheduleProbe(row.marked, j, xrand.New(seed))
				wantX, wantHit := legacyProbe(row.marked, j, xrand.New(seed).Float64())
				if x != wantX || hit != wantHit {
					t.Fatalf("%s row, |X|=%d, j=%d: FixedScheduleProbe measured (%d, %v), old probe (%d, %v)", row.name, n, j, x, hit, wantX, wantHit)
				}
			}
		}
	}
}

// The full state-vector simulation of Grover search. It is the reference
// FixedScheduleProbe is held to bit for bit, and the model the
// amplification tests above check against Grover's analysis.

// uniform returns the uniform superposition over N elements.
func uniform(n int) []float64 {
	if n <= 0 {
		return nil
	}
	amps := make([]float64, n)
	a := 1 / math.Sqrt(float64(n))
	for i := range amps {
		amps[i] = a
	}
	return amps
}

// iterate applies one Grover iteration in place: a phase flip on marked
// elements followed by inversion about the mean (the diffusion operator).
func iterate(amps []float64, marked []bool) {
	for i := range amps {
		if marked[i] {
			amps[i] = -amps[i]
		}
	}
	var mean float64
	for _, a := range amps {
		mean += a
	}
	mean /= float64(len(amps))
	for i := range amps {
		amps[i] = 2*mean - amps[i]
	}
}

// successProbability returns the probability that measuring amps yields a
// marked element.
func successProbability(amps []float64, marked []bool) float64 {
	var p float64
	for i, a := range amps {
		if marked[i] {
			p += a * a
		}
	}
	return p
}

// measure samples an index from the squared-amplitude distribution.
func measure(amps []float64, rng *xrand.Source) int {
	r := rng.Float64()
	var acc float64
	for i, a := range amps {
		acc += a * a
		if r < acc {
			return i
		}
	}
	// Floating-point slack: return the last index.
	return len(amps) - 1
}

// iterationsForKnown returns the optimal Grover iteration count
// ⌊(π/4)·√(N/t)⌋ for a space of size n with t known solutions.
func iterationsForKnown(n, t int) int {
	if t <= 0 || n <= 0 {
		return 0
	}
	if 2*t >= n {
		return 0 // solutions are already likely under uniform measurement
	}
	theta := math.Asin(math.Sqrt(float64(t) / float64(n)))
	k := math.Floor(math.Pi / (4 * theta))
	if k < 0 {
		return 0
	}
	return int(k)
}

// countMarked returns the number of true entries.
func countMarked(marked []bool) int {
	c := 0
	for _, m := range marked {
		if m {
			c++
		}
	}
	return c
}

// amplitudeAfter returns the state after j iterations from uniform.
func amplitudeAfter(marked []bool, j int) []float64 {
	amps := uniform(len(marked))
	for it := 0; it < j; it++ {
		iterate(amps, marked)
	}
	return amps
}

// norm returns the L2 norm of the amplitude vector (should remain 1 up to
// floating-point error; Grover's operator is unitary).
func norm(amps []float64) float64 {
	var s float64
	for _, a := range amps {
		s += a * a
	}
	return math.Sqrt(s)
}

// validateDistribution checks that amps is a unit vector within tolerance.
func validateDistribution(amps []float64, tol float64) error {
	n := norm(amps)
	if math.Abs(n-1) > tol {
		return fmt.Errorf("quantum: state norm %g deviates from 1 beyond %g", n, tol)
	}
	return nil
}

// Package quantum provides an exact simulation of Grover search, the
// quantum primitive underlying the paper's distributed algorithm
// (Section 4), together with the "typical inputs" analysis of Theorem 3
// (Poisson-binomial frequency tails, Lemma 5 amplitude-mass bounds).
//
// Search spaces in the paper have size |X| ≤ √n (subsets of the vertex
// partition V'), so the algorithm is simulated exactly: Grover's operator
// keeps amplitudes real, and the simulation reproduces amplitudes,
// iteration counts and measurement statistics without approximation. The
// package's tests hold it to an |X|-dimensional state-vector simulation.
package quantum

import (
	"math"

	"qclique/internal/xrand"
)

// Oracle answers membership queries g(x) for x in [0, N).
type Oracle func(x int) bool

// MarkedFromOracle materializes the oracle's truth table.
func MarkedFromOracle(n int, g Oracle) []bool {
	marked := make([]bool, n)
	for i := range marked {
		marked[i] = g(i)
	}
	return marked
}

// SearchResult reports the outcome and cost of a Grover search.
type SearchResult struct {
	// Found reports whether a solution was located.
	Found bool
	// X is the located solution when Found.
	X int
	// Iterations is the total number of Grover iterations executed; each
	// iteration makes one oracle query (in the distributed setting, one
	// invocation of the evaluation procedure).
	Iterations int64
	// Verifications is the number of classical verification queries made
	// on measured candidates.
	Verifications int64
}

// OracleCalls is the total number of oracle invocations (iterations plus
// candidate verifications), the quantity the distributed round accounting
// multiplies by the evaluation cost.
func (r SearchResult) OracleCalls() int64 { return r.Iterations + r.Verifications }

// Search locates a solution of g over [0, n) with an unknown number of
// solutions using the Boyer–Brassard–Høyer–Tapp schedule: geometrically
// growing random iteration counts. It performs O(√n) iterations in
// expectation when a solution exists and gives up (Found=false) after the
// schedule is exhausted, which for a solution-free oracle happens within
// O(√n log n) iterations.
func Search(n int, g Oracle, rng *xrand.Source) SearchResult {
	var res SearchResult
	if n <= 0 {
		return res
	}
	marked := MarkedFromOracle(n, g)
	return searchMarked(n, marked, rng, &res)
}

// searchMarked runs the BBHT schedule against a materialized truth table,
// accumulating costs into res. Each round's probe runs j Grover iterations
// from the uniform state and measures once: MeasurementTable, then Measure
// with one draw from rng. The search keeps one table for all its rounds,
// on the stack when |X| ≤ 64.
func searchMarked(n int, marked []bool, rng *xrand.Source, res *SearchResult) SearchResult {
	sqrtN := math.Sqrt(float64(n))
	m := 1.0
	const lambda = 6.0 / 5.0
	// After O(log n) rounds m saturates at √n; a few more rounds at the
	// saturated value drive the failure probability for nonempty oracles
	// below 2^-Ω(rounds). 4+3·log₂ n rounds bounds total iterations by
	// O(√n log n).
	maxRounds := 4 + 3*int(math.Ceil(math.Log2(float64(n+1))))
	var buf [64]float64
	table := buf[:]
	for round := 0; round < maxRounds; round++ {
		j := rng.IntN(int(math.Ceil(m)) + 1)
		res.Iterations += int64(j)
		table = MeasurementTable(marked, j, table)
		x := Measure(table, rng.Float64())
		res.Verifications++
		if marked[x] {
			res.Found = true
			res.X = x
			return *res
		}
		m = math.Min(lambda*m, sqrtN)
	}
	res.Found = false
	return *res
}

// MeasurementTable evolves j Grover iterations from the uniform state over
// the truth table marked and returns the cumulative distribution of one
// measurement: entry i is the probability of measuring an index ≤ i. The
// table is written into dst when it has room for len(marked) entries, and
// into a new slice otherwise. It depends only on (marked, j), so a
// multi-search whose instances share a truth table builds it once for all
// of them, and every instance runs the same j: the global quantum circuit
// applies the same number of UmCm steps to all registers.
//
// Starting from the uniform state, every marked element always shares one
// amplitude and every unmarked element another, so the evolution tracks
// just those two values instead of a full state vector. Bit-exactness with
// the state-vector simulation (the tests' reference) is preserved by
// folding the mean and the distribution in index order with the identical
// per-element addends — the same sequence of floating-point operations, so
// the same rounding and the same table, with no amplitude buffer at all.
func MeasurementTable(marked []bool, j int, dst []float64) []float64 {
	n := len(marked)
	a := 1 / math.Sqrt(float64(n))
	aM, aU := a, a // marked / unmarked amplitudes
	for it := 0; it < j; it++ {
		fm := -aM // phase flip on marked elements
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
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	table := dst[:n]
	aM2, aU2 := aM*aM, aU*aU
	var acc float64
	for i, m := range marked {
		if m {
			acc += aM2
		} else {
			acc += aU2
		}
		table[i] = acc
	}
	return table
}

// Measure returns the index that a measurement with uniform draw r ∈ [0, 1)
// selects from a MeasurementTable: the first i with r < table[i], or the
// last index when floating-point slack leaves the table's total at or
// below r. The table never decreases (each entry adds a square), so that
// index is the number of entries ≤ r, capped at len(table)−1; counting it
// takes no branch that depends on the data.
func Measure(table []float64, r float64) int {
	k := 0
	for _, c := range table {
		if c <= r {
			k++
		}
	}
	return min(k, len(table)-1)
}

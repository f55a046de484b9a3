package quantum

// This file implements the quantitative side of Section 4.2 / Theorem 3 /
// Lemma 5: how much amplitude mass a joint state of m parallel searches
// places outside the typical set Υβ(m,X), and therefore how much error the
// truncated evaluation procedure C̃m introduces.
//
// Υβ(m,X) ⊆ X^m is the set of query tuples in which every element of X
// appears at most β times. For a product state whose i-th register has
// marginal distribution pᵢ over X, the frequency of a fixed element x
// across the m registers is a Poisson-binomial random variable with
// parameters (p₁(x),…,p_m(x)); a union bound over x ∈ X bounds the mass
// outside Υβ. Lemma 5 instantiates this at the worst case produced by the
// Grover subspace H_m and yields the closed-form bound
// |X|·exp(−2m/(9|X|)).

import "math"

// Lemma5MassBound is the paper's closed-form bound on ‖Πm|ϕ⟩‖² for any
// state |ϕ⟩ in the invariant subspace H_m: at most |X|·exp(−2m/(9|X|)),
// valid under the Theorem 3 preconditions (β > 8m/|X| and all solution
// tuples β/2-typical).
func Lemma5MassBound(m, sizeX int) float64 {
	if sizeX <= 0 || m <= 0 {
		return 0
	}
	return float64(sizeX) * math.Exp(-2*float64(m)/(9*float64(sizeX)))
}

// TruncationDeviationBound is the Theorem 3 proof's bound on the state
// deviation after k iterations of the truncated algorithm Q̃ versus the
// ideal algorithm Q: ‖|Φk⟩−|Φ̃k⟩‖ ≤ 2k·√(|X|·exp(−m/(9|X|))).
func TruncationDeviationBound(k int64, m, sizeX int) float64 {
	if sizeX <= 0 || m <= 0 || k <= 0 {
		return 0
	}
	return 2 * float64(k) * math.Sqrt(float64(sizeX)*math.Exp(-float64(m)/(9*float64(sizeX))))
}

// Theorem3Preconditions reports whether the (m, |X|, β) triple satisfies
// the hypotheses of Theorem 3: |X| < m/(36·log m) and β > 8m/|X|.
func Theorem3Preconditions(m, sizeX int, beta float64) bool {
	if m < 2 || sizeX <= 0 {
		return false
	}
	if float64(sizeX) >= float64(m)/(36*math.Log(float64(m))) {
		return false
	}
	return beta > 8*float64(m)/float64(sizeX)
}

// PoissonBinomialTail computes Pr[S > threshold] exactly, where S is the
// sum of independent Bernoulli variables with the given success
// probabilities, by dynamic programming in O(m·threshold) time. It is used
// for exact typicality mass at simulable sizes.
func PoissonBinomialTail(probs []float64, threshold int) float64 {
	if threshold < 0 {
		return 1
	}
	m := len(probs)
	if threshold >= m {
		return 0
	}
	// dp[j] = Pr[S = j] restricted to j <= threshold; excess mass is the
	// answer's complement.
	dp := make([]float64, threshold+1)
	dp[0] = 1
	for _, p := range probs {
		hi := threshold
		for j := hi; j >= 1; j-- {
			dp[j] = dp[j]*(1-p) + dp[j-1]*p
		}
		dp[0] *= 1 - p
	}
	var within float64
	for _, v := range dp {
		within += v
	}
	if within > 1 {
		within = 1
	}
	return 1 - within
}

// ChernoffFrequencyTail upper-bounds Pr[S ≥ threshold] for a
// Poisson-binomial S with mean mu via the multiplicative Chernoff bound
// Pr[S ≥ (1+δ)μ] ≤ exp(−δ²μ/(2+δ)). Used when m is too large for the
// exact DP.
func ChernoffFrequencyTail(mu float64, threshold int) float64 {
	t := float64(threshold)
	if mu <= 0 {
		if t > 0 {
			return 0
		}
		return 1
	}
	if t <= mu {
		return 1
	}
	delta := t/mu - 1
	return math.Exp(-delta * delta * mu / (2 + delta))
}

// AtypicalMass bounds the probability that a tuple drawn from the product
// of the given marginals lies outside Υβ(m,X): a union bound over x ∈ X of
// the per-element frequency tails. marginals[i][x] is the i-th register's
// probability of x. exact selects the DP (O(m·β) per element) over the
// Chernoff bound.
func AtypicalMass(marginals [][]float64, beta int, exact bool) float64 {
	if len(marginals) == 0 {
		return 0
	}
	sizeX := len(marginals[0])
	var total float64
	probs := make([]float64, len(marginals))
	for x := 0; x < sizeX; x++ {
		var mu float64
		for i, mi := range marginals {
			probs[i] = mi[x]
			mu += mi[x]
		}
		if exact {
			total += PoissonBinomialTail(probs, beta)
		} else {
			total += ChernoffFrequencyTail(mu, beta+1)
		}
	}
	if total > 1 {
		return 1
	}
	return total
}

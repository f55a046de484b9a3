package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The quartiles must be Python's statistics.quantiles(xs, n=4), the rule
// the run-to-run spread is judged by; the expected values are Python's.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{1.5, 2.5, 10, 4, 7, 3.25}, 2.25, 7.75},
		{[]float64{3}, 3, 3},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.9, 3.7}} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no values is not NaN")
	}
	if got := spread([]float64{1, 2, 3, 4, 5}); !near(got, 1) {
		t.Errorf("spread = %v, want 1", got)
	}
}

// A tail percentile is reported only with ten samples beyond it.
func TestTailSupported(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{100, 0.90, true}, {99, 0.90, false},
		{1000, 0.99, true}, {999, 0.99, false},
		{10000, 0.999, true}, {9999, 0.999, false},
		{16, 0.90, false}, {20, 0.5, true},
	} {
		if got := tailSupported(c.n, c.p); got != c.want {
			t.Errorf("tailSupported(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	oc := newOutcome()
	setLatency(oc, make([]float64, 150))
	if _, ok := oc.diag["p90_ms"]; !ok {
		t.Error("150 samples: p90 not reported")
	}
	if _, ok := oc.diag["p99_ms"]; ok {
		t.Error("150 samples: p99 reported")
	}
}

func TestVerdict(t *testing.T) {
	a := []float64{100, 101, 102, 103, 104}
	for _, c := range []struct {
		b     []float64
		lower bool
		want  string
	}{
		{[]float64{101, 102, 103, 104, 105}, true, "within"},
		{[]float64{120, 121, 122, 123, 124}, true, "worse"},
		{[]float64{120, 121, 122, 123, 124}, false, "within"},
		{[]float64{50, 100, 150, 200, 250}, true, "unresolved"},
		// Noisy, but every run of b beats every run of a.
		{[]float64{10, 20, 40, 60, 90}, true, "within"},
	} {
		if got := verdict(a, c.b, 0.1, c.lower); got != c.want {
			t.Errorf("verdict(a, %v, lower=%v) = %s, want %s", c.b, c.lower, got, c.want)
		}
	}
}

package expfit

import (
	"math"
	"strings"
	"testing"

	"qclique/internal/xrand"
)

func TestFitExponentExactPowerLaw(t *testing.T) {
	var pts []Point
	for _, n := range []int{16, 64, 256, 1024} {
		pts = append(pts, Point{N: n, Value: 3 * math.Pow(float64(n), 0.5)})
	}
	fit, err := FitExponent(pts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Exponent-0.5) > 1e-9 {
		t.Errorf("exponent = %f, want 0.5", fit.Exponent)
	}
	if math.Abs(fit.Coeff-3) > 1e-9 {
		t.Errorf("coeff = %f, want 3", fit.Coeff)
	}
	if fit.R2 < 1-1e-12 {
		t.Errorf("R² = %f, want 1", fit.R2)
	}
}

func TestFitExponentNoisy(t *testing.T) {
	rng := xrand.New(1)
	var pts []Point
	for _, n := range []int{16, 32, 64, 128, 256, 512, 1024} {
		noise := 0.9 + 0.2*rng.Float64()
		pts = append(pts, Point{N: n, Value: 7 * math.Pow(float64(n), 0.33) * noise})
	}
	fit, err := FitExponent(pts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Exponent-0.33) > 0.05 {
		t.Errorf("exponent = %f, want ≈0.33", fit.Exponent)
	}
}

func TestFitExponentErrors(t *testing.T) {
	if _, err := FitExponent(nil); err == nil {
		t.Error("empty input must fail")
	}
	if _, err := FitExponent([]Point{{N: 4, Value: 1}}); err == nil {
		t.Error("single point must fail")
	}
	if _, err := FitExponent([]Point{{N: 4, Value: 1}, {N: 4, Value: 2}}); err == nil {
		t.Error("degenerate x must fail")
	}
	// Non-positive values are skipped, not fatal, as long as two remain.
	fit, err := FitExponent([]Point{{N: 4, Value: 2}, {N: -1, Value: 5}, {N: 8, Value: 4}, {N: 9, Value: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Exponent-1) > 1e-9 {
		t.Errorf("exponent = %f, want 1", fit.Exponent)
	}
}

func TestPolylogAdjustedFit(t *testing.T) {
	// Values n^{1/4}·log²n must fit exponent 1/4 after k=2 adjustment.
	var pts []Point
	for _, n := range []int{16, 64, 256, 1024, 4096} {
		l := math.Log(float64(n))
		pts = append(pts, Point{N: n, Value: math.Pow(float64(n), 0.25) * l * l})
	}
	raw, err := FitExponent(pts)
	if err != nil {
		t.Fatal(err)
	}
	adj, err := PolylogAdjustedFit(pts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(adj.Exponent-0.25) > 1e-9 {
		t.Errorf("adjusted exponent = %f, want 0.25", adj.Exponent)
	}
	if raw.Exponent <= adj.Exponent {
		t.Error("raw exponent should exceed the adjusted one")
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("n", "rounds")
	tab.Add("16", "120")
	tab.AddF(256, 3.14159)
	s := tab.String()
	if !strings.Contains(s, "rounds") || !strings.Contains(s, "3.142") {
		t.Errorf("table:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 4 {
		t.Errorf("expected 4 lines, got %d:\n%s", len(lines), s)
	}
	// Short rows pad.
	tab2 := NewTable("a", "b", "c")
	tab2.Add("1")
	if len(tab2.Rows[0]) != 3 {
		t.Error("short row must pad")
	}
}

func TestRenderSeries(t *testing.T) {
	series := []Series{
		{Name: "quantum", Points: []Point{{16, 32}, {256, 128}}},
		{Name: "classical", Points: []Point{{16, 64}, {256, 1024}}},
	}
	out := RenderSeries(series)
	if !strings.Contains(out, "quantum") || !strings.Contains(out, "classical") {
		t.Errorf("series render:\n%s", out)
	}
	if !strings.Contains(out, "fit quantum") {
		t.Errorf("missing fits:\n%s", out)
	}
	// n column sorted ascending.
	i16 := strings.Index(out, "16")
	i256 := strings.Index(out, "256")
	if i16 < 0 || i256 < 0 || i16 > i256 {
		t.Errorf("n ordering wrong:\n%s", out)
	}
}

// Package expfit provides the small analysis toolkit behind the
// experiment harness: least-squares power-law fits in log-log space (to
// recover round-complexity exponents from measured sweeps) and plain-text
// table rendering for the experiment reports.
package expfit

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Point is one measurement: a problem size and a value (rounds, calls, …).
type Point struct {
	N     int
	Value float64
}

// Fit is a fitted power law Value ≈ Coeff · N^Exponent.
type Fit struct {
	Exponent float64
	Coeff    float64
	// R2 is the coefficient of determination of the log-log regression;
	// 1 means a perfect power law.
	R2 float64
}

// FitExponent fits a power law by ordinary least squares on (ln n,
// ln value). It requires at least two points with positive N and Value.
func FitExponent(points []Point) (Fit, error) {
	var xs, ys []float64
	for _, p := range points {
		if p.N <= 0 || p.Value <= 0 {
			continue
		}
		xs = append(xs, math.Log(float64(p.N)))
		ys = append(ys, math.Log(p.Value))
	}
	if len(xs) < 2 {
		return Fit{}, errors.New("expfit: need at least two positive points")
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return Fit{}, errors.New("expfit: degenerate x values")
	}
	slope := (n*sxy - sx*sy) / den
	intercept := (sy - slope*sx) / n

	// R².
	meanY := sy / n
	var ssTot, ssRes float64
	for i := range xs {
		pred := slope*xs[i] + intercept
		ssRes += (ys[i] - pred) * (ys[i] - pred)
		ssTot += (ys[i] - meanY) * (ys[i] - meanY)
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return Fit{Exponent: slope, Coeff: math.Exp(intercept), R2: r2}, nil
}

// PolylogAdjustedFit divides each value by log(n)^k before fitting,
// recovering the polynomial exponent under an assumed polylog factor — the
// Õ(·) convention of the paper.
func PolylogAdjustedFit(points []Point, k int) (Fit, error) {
	adj := make([]Point, 0, len(points))
	for _, p := range points {
		if p.N <= 1 {
			continue
		}
		l := math.Pow(math.Log(float64(p.N)), float64(k))
		adj = append(adj, Point{N: p.N, Value: p.Value / l})
	}
	return FitExponent(adj)
}

// Table is a plain-text aligned table.
type Table struct {
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(headers ...string) *Table {
	return &Table{Headers: headers}
}

// Add appends a row; short rows are padded with empty cells.
func (t *Table) Add(cells ...string) {
	row := make([]string, len(t.Headers))
	copy(row, cells)
	t.Rows = append(t.Rows, row)
}

// AddF appends a row of formatted values.
func (t *Table) AddF(cells ...any) {
	row := make([]string, 0, len(cells))
	for _, c := range cells {
		switch v := c.(type) {
		case string:
			row = append(row, v)
		case float64:
			row = append(row, fmt.Sprintf("%.3f", v))
		default:
			row = append(row, fmt.Sprint(v))
		}
	}
	t.Add(row...)
}

// String renders the table with aligned columns and a separator line.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Series is a named measurement series over a shared N axis, the textual
// stand-in for a log-log figure.
type Series struct {
	Name   string
	Points []Point
}

// RenderSeries prints several series side by side over the union of their
// N values, with per-series fitted exponents in the footer.
func RenderSeries(series []Series) string {
	nsSet := map[int]bool{}
	for _, s := range series {
		for _, p := range s.Points {
			nsSet[p.N] = true
		}
	}
	var ns []int
	for n := range nsSet {
		ns = append(ns, n)
	}
	for i := 0; i < len(ns); i++ {
		for j := i + 1; j < len(ns); j++ {
			if ns[j] < ns[i] {
				ns[i], ns[j] = ns[j], ns[i]
			}
		}
	}
	headers := append([]string{"n"}, func() []string {
		out := make([]string, len(series))
		for i, s := range series {
			out[i] = s.Name
		}
		return out
	}()...)
	tab := NewTable(headers...)
	for _, n := range ns {
		row := []string{fmt.Sprint(n)}
		for _, s := range series {
			cell := ""
			for _, p := range s.Points {
				if p.N == n {
					cell = fmt.Sprintf("%.0f", p.Value)
					break
				}
			}
			row = append(row, cell)
		}
		tab.Add(row...)
	}
	var b strings.Builder
	b.WriteString(tab.String())
	for _, s := range series {
		if fit, err := FitExponent(s.Points); err == nil {
			fmt.Fprintf(&b, "fit %-24s exponent %.3f  (R²=%.3f)\n", s.Name+":", fit.Exponent, fit.R2)
		}
	}
	return b.String()
}

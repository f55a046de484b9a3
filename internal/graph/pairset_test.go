package graph

import (
	"slices"
	"testing"

	"qclique/internal/xrand"
)

// pairModel is the map form a PairSet replaces; checkPairSet holds a set to
// it.
type pairModel map[Pair]bool

func checkPairSet(t *testing.T, label string, s *PairSet, n int, m pairModel) {
	t.Helper()
	if s.N() != n {
		t.Fatalf("%s: set over %d vertices, want %d", label, s.N(), n)
	}
	if s.Len() != len(m) {
		t.Fatalf("%s: Len %d, model holds %d pairs", label, s.Len(), len(m))
	}
	var got []Pair
	for p := range s.All() {
		got = append(got, p)
	}
	want := make([]Pair, 0, len(m))
	for p := range m {
		want = append(want, p)
	}
	byUV := func(a, b Pair) int {
		if a.U != b.U {
			return a.U - b.U
		}
		return a.V - b.V
	}
	slices.SortFunc(want, byUV)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: All yields %v, model sorted by (U, V) is %v", label, got, want)
	}
	for u := -1; u <= n; u++ {
		for v := -1; v <= n; v++ {
			p := Pair{U: u, V: v}
			if s.Has(p) != m[p] {
				t.Fatalf("%s: Has(%v) = %v, model %v", label, p, s.Has(p), m[p])
			}
		}
	}
}

// TestPairSetMatchesMapModel drives random sets through every operation,
// at sizes whose n² is below, at and across word boundaries, and holds
// each result to a map model: membership of every pair (unnormalized and
// out-of-range ones included), the count, and All's (U, V) order.
func TestPairSetMatchesMapModel(t *testing.T) {
	rng := xrand.New(7)
	for _, n := range []int{0, 1, 2, 7, 8, 9, 13, 33} {
		random := func() (*PairSet, pairModel) {
			s, m := NewPairSet(n), pairModel{}
			if n < 2 {
				return s, m
			}
			for range rng.IntN(n * n) {
				u, v := rng.IntN(n), rng.IntN(n)
				if u == v {
					continue
				}
				s.Add(MakePair(u, v))
				m[MakePair(u, v)] = true
			}
			return s, m
		}
		for trial := range 20 {
			a, ma := random()
			b, mb := random()
			checkPairSet(t, "random", a, n, ma)

			var c PairSet
			c.CopyFrom(a)
			checkPairSet(t, "copy", &c, n, ma)
			c.Union(b)
			union := pairModel{}
			for p := range ma {
				union[p] = true
			}
			for p := range mb {
				union[p] = true
			}
			checkPairSet(t, "union", &c, n, union)
			checkPairSet(t, "union's source", a, n, ma)
			c.Subtract(a)
			diff := pairModel{}
			for p := range union {
				if !ma[p] {
					diff[p] = true
				}
			}
			checkPairSet(t, "difference", &c, n, diff)

			full := pairModel{}
			for u := 0; u < n; u++ {
				for v := u + 1; v < n; v++ {
					full[Pair{U: u, V: v}] = true
				}
			}
			// Reset reuses storage sized for a larger n: no stale bit of
			// the copy may survive into the filled or emptied set.
			c.CopyFrom(b)
			c.Reset(n)
			checkPairSet(t, "reset", &c, n, pairModel{})
			c.Fill()
			checkPairSet(t, "fill", &c, n, full)
			c.Subtract(b)
			for p := range mb {
				delete(full, p)
			}
			checkPairSet(t, "fill minus random", &c, n, full)
			if trial == 0 && n > 2 {
				c.Reset(n - 1)
				c.Fill()
				smaller := pairModel{}
				for u := 0; u < n-1; u++ {
					for v := u + 1; v < n-1; v++ {
						smaller[Pair{U: u, V: v}] = true
					}
				}
				checkPairSet(t, "refilled smaller", &c, n-1, smaller)
			}
		}
	}
}

// TestPairSetRejectsForeignPairs: adding a pair that is not normalized or
// not over the set's vertices, or combining sets over different vertex
// counts, panics instead of touching another pair's bit.
func TestPairSetRejectsForeignPairs(t *testing.T) {
	mustPanic := func(label string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", label)
			}
		}()
		f()
	}
	s := NewPairSet(4)
	mustPanic("Add of a reversed pair", func() { s.Add(Pair{U: 2, V: 1}) })
	mustPanic("Add of a loop", func() { s.Add(Pair{U: 1, V: 1}) })
	mustPanic("Add past n", func() { s.Add(Pair{U: 1, V: 4}) })
	mustPanic("Add below 0", func() { s.Add(Pair{U: -1, V: 2}) })
	mustPanic("Union across sizes", func() { s.Union(NewPairSet(5)) })
	mustPanic("Subtract across sizes", func() { s.Subtract(NewPairSet(3)) })
	mustPanic("negative size", func() { NewPairSet(-1) })
	if s.Len() != 0 {
		t.Fatalf("rejected operations left %d pairs", s.Len())
	}
}

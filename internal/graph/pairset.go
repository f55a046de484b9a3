package graph

import (
	"fmt"
	"iter"
	"math/bits"
)

// PairSet is a set of pairs of an n-vertex graph, held densely: one bit per
// pair {U,V} at index U·n+V, and a count. A membership test or an update is
// one word operation, a union or difference costs n²/64 word operations
// however many pairs the sets hold, and All visits the pairs sorted by
// (U, V). The zero PairSet is an empty set over 0 vertices.
type PairSet struct {
	n     int
	words []uint64
	count int
}

// NewPairSet returns an empty set of pairs over n vertices.
func NewPairSet(n int) *PairSet {
	s := new(PairSet)
	s.Reset(n)
	return s
}

// N returns the vertex count the set is sized for.
func (s *PairSet) N() int { return s.n }

// Len returns the number of pairs in the set.
func (s *PairSet) Len() int { return s.count }

// Reset empties the set and sizes it for n vertices, reusing its storage
// when it is large enough.
func (s *PairSet) Reset(n int) {
	if n < 0 {
		panic(fmt.Sprintf("graph: pair set over %d vertices", n))
	}
	k := (n*n + 63) / 64
	if cap(s.words) < k {
		s.words = make([]uint64, k)
	} else {
		s.words = s.words[:k]
		clear(s.words)
	}
	s.n, s.count = n, 0
}

// Fill adds every pair of the n vertices to the set: P(V).
func (s *PairSet) Fill() {
	for u := 0; u < s.n; u++ {
		for i := u*s.n + u + 1; i < (u+1)*s.n; i++ {
			s.words[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	s.count = s.n * (s.n - 1) / 2
}

// CopyFrom makes s a copy of o, sized for o's vertex count.
func (s *PairSet) CopyFrom(o *PairSet) {
	if cap(s.words) < len(o.words) {
		s.words = make([]uint64, len(o.words))
	}
	s.words = s.words[:len(o.words)]
	copy(s.words, o.words)
	s.n, s.count = o.n, o.count
}

// bit locates p's bit; ok is false when p is not a normalized pair of the
// set's vertices.
func (s *PairSet) bit(p Pair) (word int, mask uint64, ok bool) {
	if p.U < 0 || p.U >= p.V || p.V >= s.n {
		return 0, 0, false
	}
	i := p.U*s.n + p.V
	return i >> 6, 1 << (uint(i) & 63), true
}

// Has reports whether p is in the set. A pair that is not normalized, or
// not over the set's vertices, is in no set.
func (s *PairSet) Has(p Pair) bool {
	w, mask, ok := s.bit(p)
	return ok && s.words[w]&mask != 0
}

// Add inserts p, which must be a normalized pair of the set's vertices.
func (s *PairSet) Add(p Pair) {
	w, mask, ok := s.bit(p)
	if !ok {
		panic(fmt.Sprintf("graph: pair %v outside a pair set over %d vertices", p, s.n))
	}
	if s.words[w]&mask == 0 {
		s.words[w] |= mask
		s.count++
	}
}

// Union adds every pair of o to s; both must be sized for the same vertex
// count.
func (s *PairSet) Union(o *PairSet) {
	s.mustMatch(o)
	for i, w := range o.words {
		old := s.words[i]
		s.words[i] = old | w
		s.count += bits.OnesCount64(w &^ old)
	}
}

// Subtract removes every pair of o from s; both must be sized for the same
// vertex count.
func (s *PairSet) Subtract(o *PairSet) {
	s.mustMatch(o)
	for i, w := range o.words {
		old := s.words[i]
		s.words[i] = old &^ w
		s.count -= bits.OnesCount64(old & w)
	}
}

func (s *PairSet) mustMatch(o *PairSet) {
	if s.n != o.n {
		panic(fmt.Sprintf("graph: pair sets over %d and %d vertices", s.n, o.n))
	}
}

// All yields the pairs of the set sorted by (U, V).
func (s *PairSet) All() iter.Seq[Pair] {
	return func(yield func(Pair) bool) {
		for wi, w := range s.words {
			for w != 0 {
				i := wi<<6 + bits.TrailingZeros64(w)
				w &= w - 1
				if !yield(Pair{U: i / s.n, V: i % s.n}) {
					return
				}
			}
		}
	}
}

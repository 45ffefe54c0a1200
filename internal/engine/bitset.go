package engine

import "math/bits"

// Bitset is a fixed-size bit vector over dense IDs. The SoA engine keeps
// its per-UE membership sets (assigned, candidate-exhausted) as bitsets:
// one cache line covers 512 UEs, so the set-membership tests in the merge
// and event-emission passes stay memory-bound on the pending list, not on
// the population.
//
// The propose and select workers only read bitsets; all writes happen
// serially, in the merge and after the select join. That split is what
// makes sharing them across workers race-free without padding each UE to
// a word.
type Bitset struct {
	words []uint64
	n     int
}

// Reset sizes the set for n bits, all clear, reusing storage when it
// suffices.
func (s *Bitset) Reset(n int) {
	w := (n + 63) / 64
	if cap(s.words) < w {
		s.words = make([]uint64, w)
	} else {
		s.words = s.words[:w]
		for i := range s.words {
			s.words[i] = 0
		}
	}
	s.n = n
}

// Len returns the bit capacity set by Reset.
func (s *Bitset) Len() int { return s.n }

// Set marks bit i.
func (s *Bitset) Set(i int32) { s.words[i>>6] |= 1 << (uint(i) & 63) }

// Clear unmarks bit i.
func (s *Bitset) Clear(i int32) { s.words[i>>6] &^= 1 << (uint(i) & 63) }

// Get reports bit i.
func (s *Bitset) Get(i int32) bool { return s.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// Drain appends the set bits to dst in ascending order, clears them, and
// returns the extended slice.
func (s *Bitset) Drain(dst []int32) []int32 {
	for i, w := range s.words {
		if w == 0 {
			continue
		}
		s.words[i] = 0
		for w != 0 {
			dst = append(dst, int32(i<<6|bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}

// Count returns the number of set bits.
func (s *Bitset) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

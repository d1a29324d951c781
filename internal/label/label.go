// Package label implements the label machinery of Miller & Pelc's
// rendezvous algorithms: the prefix-free transformation M(ℓ) used by
// Algorithm Fast (due to Dieudonné, Pelc & Villain [29]), and the
// combinatorial relabeling used by Algorithm FastWithRelabeling, which
// maps each label to the lexicographically ℓ-th smallest w-subset of
// {1..t} so that every transformed label has Hamming weight exactly w.
package label

import (
	"fmt"
	"math"
	"math/bits"
)

// Bits returns the binary representation c1..cr of ℓ, most significant
// bit first. ℓ must be positive (labels come from {1..L}).
func Bits(l int) []byte {
	if l <= 0 {
		panic(fmt.Sprintf("label: Bits(%d): labels are positive", l))
	}
	r := bits.Len(uint(l))
	out := make([]byte, r)
	for i := 0; i < r; i++ {
		out[i] = byte((l >> (r - 1 - i)) & 1)
	}
	return out
}

// Transform returns the modified label M(ℓ) of the paper: with binary
// representation (c1 ... cr) of ℓ, M(ℓ) = (c1 c1 c2 c2 ... cr cr 0 1).
// For distinct x and y, M(x) is never a prefix of M(y); this is the
// property Algorithm Fast relies on. The length of M(ℓ) is 2z+2 where
// z = 1+⌊log₂ ℓ⌋.
func Transform(l int) []byte {
	b := Bits(l)
	out := make([]byte, 0, 2*len(b)+2)
	for _, c := range b {
		out = append(out, c, c)
	}
	out = append(out, 0, 1)
	return out
}

// TransformLen returns len(Transform(l)) without materialising the
// sequence.
func TransformLen(l int) int {
	return 2*bits.Len(uint(l)) + 2
}

// Weight returns the Hamming weight (number of 1 bits) of the sequence.
func Weight(s []byte) int {
	w := 0
	for _, b := range s {
		if b != 0 {
			w++
		}
	}
	return w
}

// IsPrefix reports whether p is a prefix of s.
func IsPrefix(p, s []byte) bool {
	if len(p) > len(s) {
		return false
	}
	for i := range p {
		if p[i] != s[i] {
			return false
		}
	}
	return true
}

// Binomial returns C(n,k), saturating at math.MaxInt64 instead of
// overflowing. Arguments outside 0 <= k <= n yield 0.
func Binomial(n, k int) int64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	var result uint64 = 1
	for i := 0; i < k; i++ {
		// result = result·(n-i)/(i+1) is always integral (it equals
		// C(n,i+1)); use a 128-bit intermediate so exact values near
		// MaxInt64 survive the multiply-then-divide.
		hi, lo := bits.Mul64(result, uint64(n-i))
		div := uint64(i + 1)
		if hi >= div {
			return math.MaxInt64 // quotient would not fit in 64 bits
		}
		q, _ := bits.Div64(hi, lo, div)
		if q > math.MaxInt64 {
			return math.MaxInt64
		}
		result = q
	}
	return int64(result)
}

// SmallestT returns the smallest positive integer t such that
// C(t, w) >= L, as required by FastWithRelabeling. Both w and L must be
// positive. C(t, w) grows with t from C(w-1, w) = 0, and C(t, w) >= t
// once t > w, so t lies in [w, max(w+1, L)]: SmallestT bisects that
// range, O(log L) binomials of O(w) steps each (L <= C(t, w) <= t^w,
// so O(w log t)), where a scan up from w costs O(t).
func SmallestT(L, w int) int {
	if L <= 0 || w <= 0 {
		panic(fmt.Sprintf("label: SmallestT(%d,%d): need positive arguments", L, w))
	}
	lo, hi := w-1, max(w+1, L) // C(lo, w) < L <= C(hi, w)
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if Binomial(mid, w) >= int64(L) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// UnrankSubset returns the characteristic t-bit string of the
// lexicographically k-th smallest w-subset of {1..t}, with k in
// {1..C(t,w)}. Lexicographic order is on the characteristic strings: a
// subset avoiding early elements is smaller (its string starts with 0s),
// so rank 1 is {t-w+1, ..., t} and rank C(t,w) is {1, ..., w}.
//
// With need elements left to place and rank r among the subsets of the
// positions from i on, position i stays 0 while r <= C(t-i-1, need),
// the number of subsets that leave it out. That count falls as i grows,
// so UnrankSubset bisects for each 1-bit instead of stepping over the
// 0-bits before it: O(w log t) binomials.
func UnrankSubset(k, t, w int) ([]byte, error) {
	total := Binomial(t, w)
	if k < 1 || int64(k) > total {
		return nil, fmt.Errorf("label: UnrankSubset(%d,%d,%d): rank out of range [1,%d]", k, t, w, total)
	}
	out := make([]byte, t)
	remaining := int64(k)
	from := 0 // the first position not yet decided
	for need := w; need > 0; need-- {
		// The next 1-bit is at the first position i >= from with
		// C(t-i-1, need) < remaining: find the largest m = t-i-1 with
		// C(m, need) < remaining. C(need-1, need) = 0 qualifies, so a
		// bit is always placed with room for the need-1 after it.
		lo, hi := need-1, t-from // C(lo, need) < remaining; hi is past the range
		for hi-lo > 1 {
			mid := lo + (hi-lo)/2
			if Binomial(mid, need) < remaining {
				lo = mid
			} else {
				hi = mid
			}
		}
		i := t - 1 - lo
		out[i] = 1
		remaining -= Binomial(lo, need)
		from = i + 1
	}
	return out, nil
}

// RankSubset is the inverse of UnrankSubset: given the characteristic
// t-bit string of a w-subset, it returns the subset's 1-based
// lexicographic rank.
func RankSubset(s []byte) (int, error) {
	t := len(s)
	w := Weight(s)
	if w == 0 {
		return 0, fmt.Errorf("label: RankSubset: empty subset has no rank among w-subsets")
	}
	rank := int64(1)
	need := w
	for i := 0; i < t && need > 0; i++ {
		if s[i] == 1 {
			rank += Binomial(t-i-1, need)
			need--
		}
	}
	if rank > int64(math.MaxInt) {
		return 0, fmt.Errorf("label: RankSubset: rank overflows int")
	}
	return int(rank), nil
}

// Relabel computes the new label of Algorithm FastWithRelabeling(w): the
// t-bit characteristic string of the lexicographically ℓ-th smallest
// w-subset of {1..t}, where t = SmallestT(L, w). It requires
// 1 <= ℓ <= L and 1 <= w.
func Relabel(l, L, w int) ([]byte, error) {
	if l < 1 || l > L {
		return nil, fmt.Errorf("label: Relabel(%d,%d,%d): label out of range [1,%d]", l, L, w, L)
	}
	t := SmallestT(L, w)
	return UnrankSubset(l, t, w)
}

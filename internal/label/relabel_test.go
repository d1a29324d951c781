package label

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// smallestTLinear is the reference SmallestT: scan t upward from w, one
// binomial per step.
func smallestTLinear(L, w int) int {
	for t := w; ; t++ {
		if Binomial(t, w) >= int64(L) {
			return t
		}
	}
}

// unrankSubsetLinear is the reference UnrankSubset: decide the t
// positions one at a time, one binomial per position.
func unrankSubsetLinear(k, t, w int) ([]byte, error) {
	total := Binomial(t, w)
	if k < 1 || int64(k) > total {
		return nil, fmt.Errorf("rank %d out of range [1,%d]", k, total)
	}
	out := make([]byte, t)
	remaining := int64(k)
	need := w
	for i := 0; i < t && need > 0; i++ {
		zeroCount := Binomial(t-i-1, need)
		if remaining <= zeroCount {
			continue
		}
		remaining -= zeroCount
		out[i] = 1
		need--
	}
	if need != 0 {
		return nil, fmt.Errorf("%d elements unplaced", need)
	}
	return out, nil
}

// checkUnrank requires UnrankSubset(k, t, w) to equal the linear
// reference.
func checkUnrank(t *testing.T, k, tt, w int) {
	t.Helper()
	got, err := UnrankSubset(k, tt, w)
	want, werr := unrankSubsetLinear(k, tt, w)
	if err != nil || werr != nil || !bytes.Equal(got, want) {
		t.Fatalf("UnrankSubset(%d,%d,%d) = %v, %v; linear scan %v, %v", k, tt, w, got, err, want, werr)
	}
}

// TestRelabelMatchesLinearScanExhaustive differences the bisecting
// SmallestT and UnrankSubset against the linear scans for
// every L <= 600 and w <= 9, and every rank of every (t, w) those
// reach.
func TestRelabelMatchesLinearScanExhaustive(t *testing.T) {
	for w := 1; w <= 9; w++ {
		reached := map[int]bool{}
		for L := 1; L <= 600; L++ {
			tt := SmallestT(L, w)
			if want := smallestTLinear(L, w); tt != want {
				t.Fatalf("SmallestT(%d,%d) = %d, linear scan %d", L, w, tt, want)
			}
			reached[tt] = true
		}
		for tt := range reached {
			for k := 1; int64(k) <= Binomial(tt, w); k++ {
				checkUnrank(t, k, tt, w)
			}
		}
	}
}

// TestRelabelMatchesLinearScanLarge does the same at the E14 label-space
// size L = 4096, where a zero run is up to 4,095 positions long: for
// each w = 1..14, the first, second, second-to-last and last ranks plus
// 200 seeded ones.
func TestRelabelMatchesLinearScanLarge(t *testing.T) {
	const L = 4096
	rng := rand.New(rand.NewSource(4096))
	for w := 1; w <= 14; w++ {
		tt := SmallestT(L, w)
		if want := smallestTLinear(L, w); tt != want {
			t.Fatalf("SmallestT(%d,%d) = %d, linear scan %d", L, w, tt, want)
		}
		ranks := []int{1, 2, L - 1, L}
		for range 200 {
			ranks = append(ranks, 1+rng.Intn(L))
		}
		for _, k := range ranks {
			checkUnrank(t, k, tt, w)
		}
	}
}

// TestSmallestTExtremes pins the bisection's edges: L = 1, w > L, and
// an L near MaxInt64, where the range's midpoint must not overflow.
func TestSmallestTExtremes(t *testing.T) {
	for _, tc := range []struct{ L, w, want int }{
		{1, 1, 1}, {1, 7, 7}, {2, 1, 2}, {2, 5, 6}, {3, 9, 10},
		{1 << 62, 1, 1 << 62}, {1<<62 + 12345, 1, 1<<62 + 12345},
	} {
		if got := SmallestT(tc.L, tc.w); got != tc.want {
			t.Errorf("SmallestT(%d,%d) = %d, want %d", tc.L, tc.w, got, tc.want)
		}
	}
}

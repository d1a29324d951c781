package label

import (
	"bytes"
	"math"
	"testing"
)

// FuzzTransformPrefixFree fuzzes the property Algorithm Fast's
// correctness rests on: M(x) is never a prefix of M(y) for x != y.
func FuzzTransformPrefixFree(f *testing.F) {
	f.Add(1, 2)
	f.Add(7, 15)
	f.Add(1023, 1024)
	f.Add(1, 1_000_000)
	f.Fuzz(func(t *testing.T, a, b int) {
		x := a%1_000_000 + 1_000_001 // positive
		y := b%1_000_000 + 1_000_001
		if x == y {
			return
		}
		mx, my := Transform(x), Transform(y)
		if IsPrefix(mx, my) || IsPrefix(my, mx) {
			t.Fatalf("M(%d)=%v and M(%d)=%v are prefix-related", x, mx, y, my)
		}
	})
}

// FuzzRankUnrank fuzzes the combinadic bijection underlying
// FastWithRelabeling's relabeling, on strings of up to 4,096 positions
// (E14's t at w = 1), so zero runs are long enough for UnrankSubset's
// bisection to matter. Ranks must be exact, so a weight whose C(t, w)
// saturates int64 is folded to w <= 6 (C(4096, 6) fits). UnrankSubset
// must also equal the linear reference scan.
func FuzzRankUnrank(f *testing.F) {
	f.Add(5, 2, 3)
	f.Add(10, 4, 100)
	f.Add(4095, 0, 0)
	f.Add(4095, 0, 4095)
	f.Add(4095, 5, 1<<40)
	f.Add(4095, 4091, 77)
	f.Fuzz(func(t *testing.T, tRaw, wRaw, kRaw int) {
		tt := abs(tRaw)%4096 + 1
		w := abs(wRaw)%tt + 1
		total := Binomial(tt, w)
		if total == math.MaxInt64 {
			w = abs(wRaw)%min(tt, 6) + 1
			total = Binomial(tt, w)
		}
		k := int(int64(abs(kRaw))%total) + 1
		s, err := UnrankSubset(k, tt, w)
		if err != nil {
			t.Fatalf("UnrankSubset(%d,%d,%d): %v", k, tt, w, err)
		}
		if Weight(s) != w || len(s) != tt {
			t.Fatalf("UnrankSubset(%d,%d,%d) = %v: wrong shape", k, tt, w, s)
		}
		if want, _ := unrankSubsetLinear(k, tt, w); !bytes.Equal(s, want) {
			t.Fatalf("UnrankSubset(%d,%d,%d) differs from the linear scan", k, tt, w)
		}
		back, err := RankSubset(s)
		if err != nil {
			t.Fatal(err)
		}
		if back != k {
			t.Fatalf("rank(unrank(%d)) = %d", k, back)
		}
	})
}

// FuzzTransformRoundTrip fuzzes that the transformed label decodes back
// to the original bits (drop the 01 suffix, halve the doubling).
func FuzzTransformRoundTrip(f *testing.F) {
	f.Add(1)
	f.Add(255)
	f.Fuzz(func(t *testing.T, raw int) {
		l := abs(raw)%1_000_000 + 1
		m := Transform(l)
		if len(m)%2 != 0 || m[len(m)-2] != 0 || m[len(m)-1] != 1 {
			t.Fatalf("Transform(%d) = %v: bad suffix", l, m)
		}
		body := m[:len(m)-2]
		decoded := make([]byte, 0, len(body)/2)
		for i := 0; i < len(body); i += 2 {
			if body[i] != body[i+1] {
				t.Fatalf("Transform(%d) = %v: bit %d not doubled", l, m, i)
			}
			decoded = append(decoded, body[i])
		}
		if !bytes.Equal(decoded, Bits(l)) {
			t.Fatalf("Transform(%d) decodes to %v, want %v", l, decoded, Bits(l))
		}
	})
}

func abs(x int) int {
	if x < 0 {
		if x == -x { // MinInt
			return 0
		}
		return -x
	}
	return x
}

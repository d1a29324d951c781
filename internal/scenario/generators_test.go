package scenario_test

import (
	"testing"

	"rendezvous/internal/scenario"
)

func TestSampledLabelPairsProperties(t *testing.T) {
	for _, L := range []int{4, 16, 100} {
		pairs := scenario.SampledLabelPairs(L, 30, 1)
		seen := make(map[[2]int]bool)
		for _, p := range pairs {
			if p[0] == p[1] || p[0] < 1 || p[1] < 1 || p[0] > L || p[1] > L {
				t.Fatalf("L=%d: bad pair %v", L, p)
			}
			if seen[p] {
				t.Fatalf("L=%d: duplicate pair %v", L, p)
			}
			seen[p] = true
		}
		if !seen[[2]int{1, 2}] || !seen[[2]int{L - 1, L}] {
			t.Errorf("L=%d: adversarial pairs missing", L)
		}
	}
	// Deterministic for a fixed seed.
	a := scenario.SampledLabelPairs(64, 40, 9)
	b := scenario.SampledLabelPairs(64, 40, 9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("SampledLabelPairs not deterministic")
		}
	}
}

func TestRingOffsets(t *testing.T) {
	offs := scenario.RingOffsets(5)
	if len(offs) != 4 {
		t.Fatalf("RingOffsets(5) = %v", offs)
	}
	for i, p := range offs {
		if p[0] != 0 || p[1] != i+1 {
			t.Fatalf("RingOffsets(5) = %v", offs)
		}
	}
}

func TestDelaysFor(t *testing.T) {
	d := scenario.DelaysFor(10)
	want := []int{0, 1, 5, 10, 11, 20}
	if len(d) != len(want) {
		t.Fatalf("DelaysFor(10) = %v", d)
	}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("DelaysFor(10) = %v, want %v", d, want)
		}
	}
}

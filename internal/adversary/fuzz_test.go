package adversary

import (
	"math/rand"
	"testing"

	"rendezvous/internal/core"
	"rendezvous/internal/explore"
	"rendezvous/internal/graph"
	"rendezvous/internal/meetoracle"
	"rendezvous/internal/sim"
)

// fuzzSpec decodes a small (graph, explorer, algorithm) triple from
// fuzz bytes. Graphs stay tiny so the generic reference executor keeps
// the fuzz loop fast; every tier-relevant shape is reachable: the
// canonical ring with the sweep (ring tier), any family with DFS or
// Eulerian explorers (table tier), and algorithms that sometimes fail
// to meet (CheapSimultaneous under delays) to exercise AllMet.
func fuzzSpec(family, exb, algob, nb byte, L int) Spec {
	var g *graph.Graph
	n := 3 + int(nb)%6 // 3..8
	switch family % 6 {
	case 0:
		g = graph.OrientedRing(n)
	case 1:
		g = graph.Ring(n, rand.New(rand.NewSource(int64(nb))))
	case 2:
		g = graph.RandomTree(n, rand.New(rand.NewSource(int64(nb))))
	case 3:
		g = graph.Grid(2, (n+1)/2)
	case 4:
		g = graph.Star(n)
	default:
		g = graph.Torus(3, 3)
	}
	var candidates []explore.Explorer
	candidates = append(candidates, explore.DFS{})
	if graph.IsCanonicalOrientedRing(g) {
		candidates = append(candidates, explore.OrientedRingSweep{})
	}
	if g.IsEulerian() {
		candidates = append(candidates, explore.Eulerian{})
	}
	ex := candidates[int(exb)%len(candidates)]

	var algo core.Algorithm
	switch algob % 4 {
	case 0:
		algo = core.Cheap{}
	case 1:
		algo = core.CheapSimultaneous{}
	case 2:
		algo = core.Fast{}
	default:
		algo = core.NewFastWithRelabeling(2)
	}
	params := core.Params{L: L}
	return Spec{Graph: g, Explorer: ex, ScheduleFor: func(l int) sim.Schedule { return algo.Schedule(l, params) }}
}

// FuzzDispatchEquivalence asserts the engine's central guarantee under
// random configuration spaces: SearchModel output — witnesses,
// Runs, AllMet — is invariant under the forced dispatch tier and the
// worker count. The generic trajectory executor is the reference; the
// table tier (forced past its budget), the batch tier (forced past its
// density heuristic), the auto tier, and — when the spec is
// ring-eligible — the ring tier must all agree bit for bit.
func FuzzDispatchEquivalence(f *testing.F) {
	f.Add(byte(0), byte(1), byte(0), byte(5), byte(3), byte(0), byte(7), byte(2))
	f.Add(byte(0), byte(0), byte(2), byte(2), byte(4), byte(1), byte(0), byte(1))
	f.Add(byte(1), byte(0), byte(1), byte(3), byte(2), byte(9), byte(9), byte(3))
	f.Add(byte(2), byte(0), byte(3), byte(6), byte(3), byte(2), byte(40), byte(0))
	f.Add(byte(3), byte(0), byte(0), byte(4), byte(5), byte(0), byte(13), byte(2))
	f.Add(byte(4), byte(0), byte(2), byte(7), byte(2), byte(3), byte(5), byte(8))
	f.Add(byte(5), byte(1), byte(1), byte(0), byte(3), byte(0), byte(17), byte(2))

	f.Fuzz(func(t *testing.T, family, exb, algob, nb, Lb, d1, d2, workers byte) {
		L := 2 + int(Lb)%3 // 2..4
		spec := fuzzSpec(family, exb, algob, nb, L)
		if _, err := meetoracle.New(spec.Graph, spec.Explorer); err != nil {
			t.Fatalf("fuzzSpec produced a table-ineligible spec: %v", err)
		}
		e := spec.Explorer.Duration(spec.Graph)
		space := sim.SearchSpace{L: L, Delays: []int{int(d1) % (e + 2), int(d2) % (3 * e)}}

		want, err := SearchModel(PaperModel{Spec: spec, Space: space, Tier: TierGeneric}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		tiers := []Tier{TierTable, TierBatch, TierAuto}
		if spec.FastPathEligible() {
			tiers = append(tiers, TierRing)
		}
		for _, w := range []int{1, 2 + int(workers)%3} {
			for _, tier := range tiers {
				got, err := SearchModel(PaperModel{Spec: spec, Space: space, Tier: tier}, Options{Workers: w})
				if err != nil {
					t.Fatalf("tier=%v workers=%d: %v", tier, w, err)
				}
				if got != want {
					t.Fatalf("tier=%v workers=%d diverged on %v with %s:\ngeneric: %+v\ngot:     %+v",
						tier, w, spec.Graph, spec.Explorer.Name(), want, got)
				}
			}
		}
	})
}

// FuzzBatchVsTable is the dedicated differential target for the
// 64-lane batch executor: under random specs, delay sets and start-pair
// subsets, the batch tier must reproduce the scalar table tier bit for
// bit — worst case, witnesses, Runs, AllMet. The scalar tier is the
// reference (itself pinned to the generic executor by
// FuzzDispatchEquivalence), so a divergence here localises the bug to
// MeetBatchWorst or batchShard rather than the meeting tables. The subset
// byte alternates exhaustive start sweeps (partial and full lane
// blocks) with explicit sparse start-pair lists, which exercise
// single-lane blocks and the canonical Observe reordering.
func FuzzBatchVsTable(f *testing.F) {
	f.Add(byte(0), byte(1), byte(0), byte(5), byte(3), byte(0), byte(7), byte(2), byte(0))
	f.Add(byte(1), byte(0), byte(2), byte(2), byte(4), byte(1), byte(0), byte(1), byte(3))
	f.Add(byte(2), byte(0), byte(1), byte(3), byte(2), byte(9), byte(9), byte(3), byte(1))
	f.Add(byte(3), byte(0), byte(3), byte(6), byte(3), byte(2), byte(40), byte(0), byte(6))
	f.Add(byte(4), byte(0), byte(0), byte(4), byte(5), byte(0), byte(13), byte(2), byte(2))
	f.Add(byte(5), byte(1), byte(2), byte(7), byte(2), byte(3), byte(5), byte(8), byte(5))

	f.Fuzz(func(t *testing.T, family, exb, algob, nb, Lb, d1, d2, workers, subset byte) {
		L := 2 + int(Lb)%4 // 2..5
		spec := fuzzSpec(family, exb, algob, nb, L)
		if _, err := meetoracle.New(spec.Graph, spec.Explorer); err != nil {
			t.Fatalf("fuzzSpec produced a table-ineligible spec: %v", err)
		}
		e := spec.Explorer.Duration(spec.Graph)
		space := sim.SearchSpace{L: L, Delays: []int{int(d1) % (e + 2), int(d2) % (3 * e), e}}
		if subset%2 == 1 {
			// Sparse explicit start pairs: a handful of distinct ordered
			// pairs, never equal-start.
			n := spec.Graph.N()
			for i := 0; i < 1+int(subset)%3; i++ {
				a := (int(subset) + i) % n
				b := (a + 1 + int(subset/2)%(n-1)) % n
				space.StartPairs = append(space.StartPairs, [2]int{a, b})
			}
		}

		want, err := SearchModel(PaperModel{Spec: spec, Space: space, Tier: TierTable}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 2 + int(workers)%3} {
			got, err := SearchModel(PaperModel{Spec: spec, Space: space, Tier: TierBatch}, Options{Workers: w})
			if err != nil {
				t.Fatalf("batch workers=%d: %v", w, err)
			}
			if got != want {
				t.Fatalf("batch tier workers=%d diverged on %v with %s:\ntable: %+v\nbatch: %+v",
					w, spec.Graph, spec.Explorer.Name(), want, got)
			}
		}
	})
}

// FuzzSymmetryEquivalence is the differential spine of the symmetry
// reduction: under random specs and delay sets, the orbit-reduced
// search must return bit-for-bit the same worst case as the unreduced
// one — values, witnesses and AllMet — with Runs shrunk by exactly the
// automorphism-group order (the groups act freely on ordered distinct
// pairs in every reachable family), for every symmetry mode, tier and
// worker count.
func FuzzSymmetryEquivalence(f *testing.F) {
	f.Add(byte(0), byte(1), byte(0), byte(5), byte(3), byte(0), byte(7), byte(2))
	f.Add(byte(0), byte(0), byte(1), byte(2), byte(4), byte(1), byte(0), byte(1))
	f.Add(byte(1), byte(0), byte(2), byte(3), byte(2), byte(9), byte(9), byte(3))
	f.Add(byte(2), byte(0), byte(3), byte(6), byte(3), byte(2), byte(40), byte(0))
	f.Add(byte(3), byte(0), byte(0), byte(4), byte(5), byte(0), byte(13), byte(2))
	f.Add(byte(4), byte(0), byte(2), byte(7), byte(2), byte(3), byte(5), byte(8))
	f.Add(byte(5), byte(1), byte(1), byte(0), byte(3), byte(0), byte(17), byte(2))

	f.Fuzz(func(t *testing.T, family, exb, algob, nb, Lb, d1, d2, workers byte) {
		L := 2 + int(Lb)%3 // 2..4
		spec := fuzzSpec(family, exb, algob, nb, L)
		e := spec.Explorer.Duration(spec.Graph)
		space := sim.SearchSpace{L: L, Delays: []int{int(d1) % (e + 2), int(d2) % (3 * e)}}

		want, err := SearchModel(PaperModel{Spec: spec, Space: space, Symmetry: SymmetryOff}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		order := len(graph.Automorphisms(spec.Graph))
		for _, w := range []int{1, 2 + int(workers)%3} {
			for _, sym := range []Symmetry{SymmetryAuto, SymmetryForced} {
				got, err := SearchModel(PaperModel{Spec: spec, Space: space, Symmetry: sym}, Options{Workers: w})
				if err != nil {
					t.Fatalf("sym=%v workers=%d: %v", sym, w, err)
				}
				if got.Runs*order != want.Runs {
					t.Fatalf("sym=%v workers=%d on %v: Runs = %d, want %d/%d",
						sym, w, spec.Graph, got.Runs, want.Runs, order)
				}
				got.Runs = want.Runs
				if got != want {
					t.Fatalf("sym=%v workers=%d diverged on %v with %s:\noff: %+v\ngot: %+v",
						sym, w, spec.Graph, spec.Explorer.Name(), want, got)
				}
			}
		}
	})
}

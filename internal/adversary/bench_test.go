package adversary

import (
	"testing"

	"rendezvous/internal/core"
	"rendezvous/internal/explore"
	"rendezvous/internal/graph"
	"rendezvous/internal/resultstore"
	"rendezvous/internal/sim"
)

// The serial/parallel pair below is the acceptance benchmark for the
// parallel engine: an L = 32 adversarial ring sweep (all 992 ordered
// label pairs × all offsets × three delays) through the generic
// executor, serial versus sharded across GOMAXPROCS workers. On a
// multi-core machine the parallel variant approaches linear speedup;
// on one core the two are equal up to goroutine overhead. Run with
//
//	go test ./internal/adversary -bench BenchmarkRingSweep -benchtime 2x
//
// The fast-path pair measures the same sweep through the segment-level
// dispatch, whose gain is algorithmic (O(|schedule|) vs O(|schedule|·E))
// and so shows up even on a single core.

const benchN, benchL = 24, 32

func benchSpec() Spec {
	params := core.Params{L: benchL}
	return Spec{
		Graph:       graph.OrientedRing(benchN),
		Explorer:    explore.OrientedRingSweep{},
		ScheduleFor: func(l int) sim.Schedule { return core.Fast{}.Schedule(l, params) },
	}
}

func benchSpace() sim.SearchSpace {
	return sim.SearchSpace{L: benchL, Delays: []int{0, 1, benchN - 1}}
}

func runSweep(b *testing.B, m PaperModel, workers int) {
	b.Helper()
	m.Spec, m.Space = benchSpec(), benchSpace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wc, err := SearchModel(m, Options{Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		if !wc.AllMet {
			b.Fatal("executions failed to meet")
		}
	}
}

func BenchmarkRingSweepSerial(b *testing.B) {
	runSweep(b, PaperModel{Tier: TierGeneric}, 1)
}

func BenchmarkRingSweepParallel(b *testing.B) {
	runSweep(b, PaperModel{Tier: TierGeneric}, -1)
}

func BenchmarkRingSweepFastPathSerial(b *testing.B) {
	runSweep(b, PaperModel{}, 1)
}

func BenchmarkRingSweepFastPathParallel(b *testing.B) {
	runSweep(b, PaperModel{}, -1)
}

// The grid pair below is the acceptance benchmark for the meeting-table
// tier: an adversarial sweep on a non-ring family (4x4 grid, DFS
// explorer, E = 30) where the ring fast path cannot fire, generic
// executor versus precomputed meeting tables, both serial so the gain
// measured is purely algorithmic (O(|schedule|) vs O(|schedule|·E) per
// execution). Run with
//
//	go test ./internal/adversary -bench BenchmarkGridSweep -benchtime 2x
//
// The recorded numbers (DESIGN.md "engine" section) show the table tier
// well above the 5x acceptance threshold on this sweep.

func gridSpec() Spec {
	const L = 16
	params := core.Params{L: L}
	return Spec{
		Graph:       graph.Grid(4, 4),
		Explorer:    explore.DFS{},
		ScheduleFor: func(l int) sim.Schedule { return core.Fast{}.Schedule(l, params) },
	}
}

func gridSpace() sim.SearchSpace {
	e := explore.DFS{}.Duration(graph.Grid(4, 4))
	return sim.SearchSpace{L: 16, Delays: []int{0, 1, e}}
}

func runGridSweep(b *testing.B, m PaperModel, workers int) {
	b.Helper()
	m.Spec, m.Space = gridSpec(), gridSpace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wc, err := SearchModel(m, Options{Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		if !wc.AllMet {
			b.Fatal("executions failed to meet")
		}
	}
}

func BenchmarkGridSweepGeneric(b *testing.B) {
	runGridSweep(b, PaperModel{Tier: TierGeneric}, 1)
}

func BenchmarkGridSweepTable(b *testing.B) {
	runGridSweep(b, PaperModel{Tier: TierTable}, 1)
}

func BenchmarkGridSweepTableParallel(b *testing.B) {
	runGridSweep(b, PaperModel{Tier: TierTable}, -1)
}

func BenchmarkGridSweepBatch(b *testing.B) {
	runGridSweep(b, PaperModel{Tier: TierBatch}, 1)
}

func BenchmarkGridSweepBatchParallel(b *testing.B) {
	runGridSweep(b, PaperModel{Tier: TierBatch}, -1)
}

// The unmarked pair is the headline for the acceptance criterion: the
// same 4x4 grid under the unmarked-map scenario of Section 1.2, whose
// Theta(n^2) exploration (E = 960) is exactly where the generic
// executor's O(|schedule|·E) per-execution cost bites. The measured
// gap (recorded in DESIGN.md) is well above 5x; larger graphs widen it
// further since the table scan does not depend on E at all.

func unmarkedSpec() Spec {
	const L = 8
	params := core.Params{L: L}
	return Spec{
		Graph:       graph.Grid(4, 4),
		Explorer:    explore.UnmarkedDFS{},
		ScheduleFor: func(l int) sim.Schedule { return core.Fast{}.Schedule(l, params) },
	}
}

func unmarkedSpace() sim.SearchSpace {
	e := explore.UnmarkedDFS{}.Duration(graph.Grid(4, 4))
	return sim.SearchSpace{L: 8, Delays: []int{0, 1, e}}
}

func runUnmarkedSweep(b *testing.B, m PaperModel, workers int) {
	b.Helper()
	m.Spec, m.Space = unmarkedSpec(), unmarkedSpace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wc, err := SearchModel(m, Options{Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		if !wc.AllMet {
			b.Fatal("executions failed to meet")
		}
	}
}

func BenchmarkUnmarkedSweepGeneric(b *testing.B) {
	runUnmarkedSweep(b, PaperModel{Tier: TierGeneric}, 1)
}

func BenchmarkUnmarkedSweepTable(b *testing.B) {
	runUnmarkedSweep(b, PaperModel{Tier: TierTable}, 1)
}

// The batch variant is the acceptance benchmark for the 64-lane batch
// executor: the identical dense sweep (240 start pairs fill 3.75 lane
// words per label pair) through MeetBatch instead of the scalar Meet
// scan. The CI smoke (TestBatchSpeedupSmoke) asserts >= 3x over the
// scalar table tier on this sweep; the recorded numbers are in
// DESIGN.md's engine section.
func BenchmarkUnmarkedSweepBatch(b *testing.B) {
	runUnmarkedSweep(b, PaperModel{Tier: TierBatch}, 1)
}

// The torus pair is the acceptance benchmark for the symmetry-orbit
// reduction: an exhaustive-start sweep on the 4x4 oriented torus
// (240 ordered start pairs per label pair unreduced, 15 orbit
// representatives reduced — the translation group has order 16), DFS
// explorer, L = 16, both serial through the same winning tier, so the
// gain measured is purely the quotient. The reduction composes with
// the table tier: the recorded numbers (DESIGN.md "engine" section)
// multiply the table tier's gain by ~16x on this sweep. Run with
//
//	go test ./internal/adversary -bench BenchmarkTorusSweep -benchtime 3x

func torusSpec() Spec {
	const L = 16
	params := core.Params{L: L}
	return Spec{
		Graph:       graph.Torus(4, 4),
		Explorer:    explore.DFS{},
		ScheduleFor: func(l int) sim.Schedule { return core.Fast{}.Schedule(l, params) },
	}
}

func torusSpace() sim.SearchSpace {
	e := explore.DFS{}.Duration(graph.Torus(4, 4))
	return sim.SearchSpace{L: 16, Delays: []int{0, 1, e}}
}

func runTorusSweep(b *testing.B, m PaperModel, workers int) {
	b.Helper()
	m.Spec, m.Space = torusSpec(), torusSpace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wc, err := SearchModel(m, Options{Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		if !wc.AllMet {
			b.Fatal("executions failed to meet")
		}
	}
}

func BenchmarkTorusSweepSymmetryOff(b *testing.B) {
	runTorusSweep(b, PaperModel{Symmetry: SymmetryOff}, 1)
}

func BenchmarkTorusSweepSymmetryAuto(b *testing.B) {
	runTorusSweep(b, PaperModel{}, 1)
}

func BenchmarkTorusSweepSymmetryOffGeneric(b *testing.B) {
	runTorusSweep(b, PaperModel{Symmetry: SymmetryOff, Tier: TierGeneric}, 1)
}

func BenchmarkTorusSweepSymmetryAutoGeneric(b *testing.B) {
	runTorusSweep(b, PaperModel{Tier: TierGeneric}, 1)
}

// The store pair is the acceptance benchmark for the persistence
// layer: the same 4x4-grid table-tier sweep, cold through the engine
// versus answered from a warm result store (SearchModelCached hit: one
// fingerprint computation plus one small-file read — no engine work).
// The measured gap (recorded in DESIGN.md "persistence" section) is
// what makes the rdvd daemon's repeated-traffic path nearly free. Run
// with
//
//	go test ./internal/adversary -bench BenchmarkStoreHitVsColdSearch

func BenchmarkStoreHitVsColdSearch(b *testing.B) {
	m := PaperModel{Spec: gridSpec(), Space: gridSpace(), Tier: TierTable}
	opts := Options{Workers: 1}

	b.Run("ColdTableSweep", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			wc, err := SearchModel(m, opts)
			if err != nil {
				b.Fatal(err)
			}
			if !wc.AllMet {
				b.Fatal("executions failed to meet")
			}
		}
	})
	b.Run("StoreHit", func(b *testing.B) {
		store, err := resultstore.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		// Warm the store once, outside the timed loop.
		if _, _, err := SearchModelCached(store, m, opts); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			wc, cached, err := SearchModelCached(store, m, opts)
			if err != nil {
				b.Fatal(err)
			}
			if !cached {
				b.Fatal("store miss inside the hit benchmark")
			}
			if !wc.AllMet {
				b.Fatal("stored result lost AllMet")
			}
		}
	})
}

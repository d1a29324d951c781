// Package rendezvous_test hosts the testing.B benchmark harness: one
// benchmark per experiment in DESIGN.md (E1..E14) plus micro-benchmarks
// of the hot paths. The experiment benchmarks run reduced-size versions
// of the sweeps that cmd/rdvbench performs at full size, so
// `go test -bench=.` measures the cost of regenerating each table while
// staying laptop-fast; the full tables (with the paper-bound checks)
// are produced by `go run ./cmd/rdvbench`.
package rendezvous_test

import (
	"context"
	"math/rand"
	"testing"

	"rendezvous"

	"rendezvous/internal/adversary"
	"rendezvous/internal/bench"
	"rendezvous/internal/core"
	"rendezvous/internal/explore"
	"rendezvous/internal/graph"
	"rendezvous/internal/lowerbound"
	"rendezvous/internal/ringsim"
	"rendezvous/internal/sim"
	"rendezvous/internal/uxs"
)

// ringWorstBench exhausts label pairs × ring offsets (and the given
// delays) for one algorithm — the kernel of every table.
func ringWorstBench(b *testing.B, n, L int, algo core.Algorithm, delays []int) {
	b.Helper()
	g := graph.OrientedRing(n)
	params := core.Params{L: L}
	var pairs [][2]int
	for a := 1; a <= L; a++ {
		for bb := 1; bb <= L; bb++ {
			if a != bb {
				pairs = append(pairs, [2]int{a, bb})
			}
		}
	}
	var offsets [][2]int
	for d := 1; d < n; d++ {
		offsets = append(offsets, [2]int{0, d})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc := sim.NewTrajectories(g, explore.OrientedRingSweep{}, func(l int) sim.Schedule {
			return algo.Schedule(l, params)
		})
		wc, err := sim.Search(context.Background(), tc, sim.SearchSpace{LabelPairs: pairs, StartPairs: offsets, Delays: delays})
		if err != nil {
			b.Fatal(err)
		}
		if !wc.AllMet {
			b.Fatal("executions failed to meet")
		}
	}
}

// BenchmarkE1CheapSimultaneous regenerates the E1 row (n=24, L=8):
// simultaneous Cheap, exhaustive label pairs and offsets.
func BenchmarkE1CheapSimultaneous(b *testing.B) {
	ringWorstBench(b, 24, 8, core.CheapSimultaneous{}, []int{0})
}

// BenchmarkE2CheapArbitraryDelay regenerates an E2 row: general Cheap
// under the canonical adversarial delay set.
func BenchmarkE2CheapArbitraryDelay(b *testing.B) {
	e := 23
	ringWorstBench(b, 24, 6, core.Cheap{}, []int{0, 1, e / 2, e, e + 1, 2 * e})
}

// BenchmarkE3Fast regenerates an E3 row: Algorithm Fast at L=32.
func BenchmarkE3Fast(b *testing.B) {
	ringWorstBench(b, 24, 32, core.Fast{}, []int{0, 1, 23})
}

// BenchmarkE4FastWithRelabeling regenerates an E4 row: w=2, L=16.
func BenchmarkE4FastWithRelabeling(b *testing.B) {
	ringWorstBench(b, 24, 16, core.NewFastWithRelabeling(2), []int{0, 1, 23})
}

// BenchmarkE5RelabelScaling measures one scaling point of Corollary 2.1
// (c=2, L=128, sampled pairs).
func BenchmarkE5RelabelScaling(b *testing.B) {
	g := graph.OrientedRing(12)
	algo := core.NewFastWithRelabeling(2)
	params := core.Params{L: 128}
	rng := rand.New(rand.NewSource(1))
	var pairs [][2]int
	for len(pairs) < 40 {
		x, y := rng.Intn(128)+1, rng.Intn(128)+1
		if x != y {
			pairs = append(pairs, [2]int{x, y})
		}
	}
	var offsets [][2]int
	for d := 1; d < 12; d++ {
		offsets = append(offsets, [2]int{0, d})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc := sim.NewTrajectories(g, explore.OrientedRingSweep{}, func(l int) sim.Schedule {
			return algo.Schedule(l, params)
		})
		if _, err := sim.Search(context.Background(), tc, sim.SearchSpace{LabelPairs: pairs, StartPairs: offsets}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE6TimeLowerBound runs the Theorem 3.1 pipeline (Trim +
// tournament + Hamiltonian chain) on CheapSimultaneous, n=24, L=16.
func BenchmarkE6TimeLowerBound(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := lowerbound.RunTheorem1(24, 16, core.CheapSimultaneous{})
		if err != nil {
			b.Fatal(err)
		}
		if rep.CertifiedTime <= 0 {
			b.Fatal("vacuous bound")
		}
	}
}

// BenchmarkE7CostLowerBound runs the Theorem 3.2 pipeline (aggregate +
// progress vectors) on Fast, n=24, L=16.
func BenchmarkE7CostLowerBound(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := lowerbound.RunTheorem2(24, 16, core.Fast{})
		if err != nil {
			b.Fatal(err)
		}
		if rep.CertifiedCost <= 0 {
			b.Fatal("vacuous bound")
		}
	}
}

// BenchmarkE8Exploration verifies the full explorer contract (every
// start, exact duration, total coverage) for DFS on a 3x4 grid.
func BenchmarkE8Exploration(b *testing.B) {
	g := graph.Grid(3, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := explore.Verify(explore.DFS{}, g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9UnknownE runs the doubling wrapper (unknown graph size) for
// one Fast execution on a 13-ring.
func BenchmarkE9UnknownE(b *testing.B) {
	g := graph.OrientedRing(13)
	fam := uxs.Family{}
	params := core.Params{L: 4}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := core.RunDoubling(core.DoublingScenario{
			Graph: g, Family: fam, Algo: core.Fast{}, Params: params,
			A:      sim.AgentSpec{Label: 1, Start: 0, Wake: 1},
			B:      sim.AgentSpec{Label: 3, Start: 6, Wake: 1},
			Levels: fam.LevelFor(13) + 1,
		})
		if err != nil || !res.Met {
			b.Fatalf("res %+v err %v", res, err)
		}
	}
}

// BenchmarkE10TradeoffCurve measures one frontier point per algorithm
// class at L=16 on a 24-ring.
func BenchmarkE10TradeoffCurve(b *testing.B) {
	algos := []core.Algorithm{core.CheapSimultaneous{}, core.Cheap{}, core.NewFastWithRelabeling(2), core.Fast{}}
	g := graph.OrientedRing(24)
	params := core.Params{L: 16}
	pairs := [][2]int{{1, 2}, {15, 16}, {7, 11}, {16, 15}}
	offsets := [][2]int{{0, 1}, {0, 12}, {0, 23}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, algo := range algos {
			tc := sim.NewTrajectories(g, explore.OrientedRingSweep{}, func(l int) sim.Schedule {
				return algo.Schedule(l, params)
			})
			if _, err := sim.Search(context.Background(), tc, sim.SearchSpace{LabelPairs: pairs, StartPairs: offsets}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkE11Separation compares CheapSimultaneous vs
// FastWithRelabeling(2) worst times at L=64 (the separation's kernel).
func BenchmarkE11Separation(b *testing.B) {
	g := graph.OrientedRing(12)
	params := core.Params{L: 64}
	pairs := [][2]int{{63, 64}, {1, 2}, {31, 32}, {32, 33}}
	offsets := [][2]int{{0, 1}, {0, 6}, {0, 11}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, algo := range []core.Algorithm{core.CheapSimultaneous{}, core.NewFastWithRelabeling(2)} {
			tc := sim.NewTrajectories(g, explore.OrientedRingSweep{}, func(l int) sim.Schedule {
				return algo.Schedule(l, params)
			})
			if _, err := sim.Search(context.Background(), tc, sim.SearchSpace{LabelPairs: pairs, StartPairs: offsets}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkE12AlternativeAccounting measures the later-wake accounting
// scan for one Cheap execution sweep.
func BenchmarkE12AlternativeAccounting(b *testing.B) {
	g := graph.OrientedRing(18)
	params := core.Params{L: 6}
	tc := sim.NewTrajectories(g, explore.OrientedRingSweep{}, func(l int) sim.Schedule {
		return core.Cheap{}.Schedule(l, params)
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		trajA, err := tc.Get(3, 0)
		if err != nil {
			b.Fatal(err)
		}
		trajB, err := tc.Get(5, 9)
		if err != nil {
			b.Fatal(err)
		}
		res := sim.Meet(trajA, trajB, 1, 35, false)
		if !res.Met || res.TimeFromLaterWake < 0 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkE13Ablations measures the ablation sweep kernel (undoubled
// Fast under a full delay range).
func BenchmarkE13Ablations(b *testing.B) {
	g := graph.OrientedRing(24)
	params := core.Params{L: 6}
	delays := []int{0, 5, 11, 17, 23}
	pairs := [][2]int{{1, 2}, {3, 6}, {5, 4}}
	offsets := [][2]int{{0, 1}, {0, 12}, {0, 23}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tc := sim.NewTrajectories(g, explore.OrientedRingSweep{}, func(l int) sim.Schedule {
			return core.FastUndoubled{}.Schedule(l, params)
		})
		if _, err := sim.Search(context.Background(), tc, sim.SearchSpace{LabelPairs: pairs, StartPairs: offsets, Delays: delays}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE14TradeoffCurveFine measures the engine's ring-tier sweep
// (the segment-level executor) at L = 4096 — the workload only ringsim
// makes feasible.
func BenchmarkE14TradeoffCurveFine(b *testing.B) {
	const n, L = 24, 4096
	algo := core.NewFastWithRelabeling(6)
	params := core.Params{L: L}
	var offsets [][2]int
	for d := 1; d < n; d++ {
		offsets = append(offsets, [2]int{0, d})
	}
	m := adversary.PaperModel{
		Spec: adversary.Spec{
			Graph:       graph.OrientedRing(n),
			Explorer:    explore.OrientedRingSweep{},
			ScheduleFor: func(l int) sim.Schedule { return algo.Schedule(l, params) },
		},
		Space: sim.SearchSpace{
			LabelPairs: [][2]int{{1, 2}, {L - 1, L}, {L / 2, L/2 + 1}, {17, 4001}, {2047, 2048}},
			StartPairs: offsets,
			Delays:     []int{0, 1, n - 1},
		},
		Tier: adversary.TierRing,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		wc, err := adversary.SearchModel(m, adversary.Options{})
		if err != nil || !wc.AllMet {
			b.Fatalf("wc %+v err %v", wc, err)
		}
	}
}

// BenchmarkRingsimVsSim contrasts the segment-level executor against
// the round-level simulator on the same execution (the speedup that
// unlocks E14).
func BenchmarkRingsimVsSim(b *testing.B) {
	const n = 64
	params := core.Params{L: 1024}
	schedA := core.Fast{}.Schedule(777, params)
	schedB := core.Fast{}.Schedule(1000, params)
	b.Run("ringsim", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := ringsim.Run(n,
				ringsim.Agent{Schedule: schedA, Start: 0, Wake: 1},
				ringsim.Agent{Schedule: schedB, Start: 32, Wake: 4})
			if err != nil || !res.Met {
				b.Fatal(err)
			}
		}
	})
	b.Run("sim", func(b *testing.B) {
		g := graph.OrientedRing(n)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := sim.Run(sim.Scenario{
				Graph:    g,
				Explorer: explore.OrientedRingSweep{},
				A:        sim.AgentSpec{Label: 1, Start: 0, Wake: 1, Schedule: schedA},
				B:        sim.AgentSpec{Label: 2, Start: 32, Wake: 4, Schedule: schedB},
			})
			if err != nil || !res.Met {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFullHarnessE1 runs the actual E1 experiment end to end (the
// same function cmd/rdvbench calls), as a macro-benchmark of the
// harness itself.
func BenchmarkFullHarnessE1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		table, err := bench.E1CheapSimultaneous(bench.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(table.Failed()) > 0 {
			b.Fatal("bound checks failed")
		}
	}
}

// --- micro-benchmarks of the hot paths ---

// BenchmarkCompileTrajectoryFast measures schedule compilation for Fast
// (the dominant cost in adversary sweeps).
func BenchmarkCompileTrajectoryFast(b *testing.B) {
	g := graph.OrientedRing(64)
	sched := core.Fast{}.Schedule(999, core.Params{L: 1024})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.CompileTrajectory(g, explore.OrientedRingSweep{}, 0, sched); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMeetScan measures the meeting scan of two long trajectories.
func BenchmarkMeetScan(b *testing.B) {
	g := graph.OrientedRing(64)
	params := core.Params{L: 64}
	trajA, err := sim.CompileTrajectory(g, explore.OrientedRingSweep{}, 0, core.Cheap{}.Schedule(63, params))
	if err != nil {
		b.Fatal(err)
	}
	trajB, err := sim.CompileTrajectory(g, explore.OrientedRingSweep{}, 32, core.Cheap{}.Schedule(64, params))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Meet(trajA, trajB, 1, 1, false)
	}
}

// BenchmarkDFSPlan measures DFS plan construction on a 15x15 grid.
func BenchmarkDFSPlan(b *testing.B) {
	g := graph.Grid(15, 15)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := (explore.DFS{}).Plan(g, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEulerianPlan measures Eulerian circuit planning on an 8x8
// torus (128 edges).
func BenchmarkEulerianPlan(b *testing.B) {
	g := graph.Torus(8, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := (explore.Eulerian{}).Plan(g, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUXSSearch measures the randomized-greedy UXS search over
// small rings.
func BenchmarkUXSSearch(b *testing.B) {
	collection := []*graph.Graph{graph.OrientedRing(4), graph.OrientedRing(5), graph.OrientedRing(6)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := uxs.Search(collection, 64, 10, rand.New(rand.NewSource(int64(i)))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDefineProgress measures Algorithm 3 on a 4096-entry aggregate
// vector.
func BenchmarkDefineProgress(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	agg := make([]int, 4096)
	for i := range agg {
		agg[i] = rng.Intn(3) - 1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lowerbound.DefineProgress(agg)
	}
}

// BenchmarkTournamentPath measures Hamiltonian path insertion on a
// 512-vertex random tournament.
func BenchmarkTournamentPath(b *testing.B) {
	const size = 512
	rng := rand.New(rand.NewSource(4))
	beats := make(map[[2]int]bool, size*size/2)
	vertices := make([]int, size)
	for i := range vertices {
		vertices[i] = i + 1
	}
	for i := 1; i <= size; i++ {
		for j := i + 1; j <= size; j++ {
			if rng.Intn(2) == 0 {
				beats[[2]int{i, j}] = true
			} else {
				beats[[2]int{j, i}] = true
			}
		}
	}
	dom := func(a, c int) bool { return beats[[2]int{a, c}] }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path := lowerbound.HamiltonianPathInTournament(vertices, dom)
		if len(path) != size {
			b.Fatal("bad path")
		}
	}
}

// BenchmarkPublicAPIQuickstart measures the facade's end-to-end
// quickstart path.
func BenchmarkPublicAPIQuickstart(b *testing.B) {
	g := rendezvous.OrientedRing(24)
	ex := rendezvous.RingSweepExplorer()
	algo := rendezvous.Fast{}
	params := rendezvous.Params{L: 64}
	schedA := algo.Schedule(5, params)
	schedB := algo.Schedule(12, params)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := rendezvous.Run(rendezvous.Scenario{
			Graph:    g,
			Explorer: ex,
			A:        rendezvous.AgentSpec{Label: 5, Start: 0, Wake: 1, Schedule: schedA},
			B:        rendezvous.AgentSpec{Label: 12, Start: 13, Wake: 11, Schedule: schedB},
		})
		if err != nil || !res.Met {
			b.Fatalf("res %+v err %v", res, err)
		}
	}
}

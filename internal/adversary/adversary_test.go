package adversary

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"rendezvous/internal/core"
	"rendezvous/internal/explore"
	"rendezvous/internal/graph"
	"rendezvous/internal/meetoracle"
	"rendezvous/internal/resultstore"
	"rendezvous/internal/sim"
)

// specFor binds an algorithm to a (graph, explorer) pair.
func specFor(g *graph.Graph, ex explore.Explorer, algo core.Algorithm, L int) Spec {
	params := core.Params{L: L}
	return Spec{
		Graph:       g,
		Explorer:    ex,
		ScheduleFor: func(l int) sim.Schedule { return algo.Schedule(l, params) },
	}
}

// TestParallelEquivalence is the engine's core guarantee: for every
// worker count, on every graph family and tier, the search returns the
// identical WorstCase — same witnesses, same Runs, same AllMet — as
// the serial scan. Witness equality is what makes the parallel engine
// safe to substitute everywhere: it is not merely the same maxima, but
// the same configurations in the same canonical order. Worker counts
// run from two to more workers than label pairs (one pair per shard).
func TestParallelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cases := []struct {
		name  string
		g     *graph.Graph
		ex    explore.Explorer
		algo  core.Algorithm
		tier  Tier
		space sim.SearchSpace
	}{
		{"ring-sweep", graph.OrientedRing(12), explore.OrientedRingSweep{}, core.Cheap{}, TierAuto,
			sim.SearchSpace{L: 6, Delays: []int{0, 3, 11}}},
		{"ring-dfs", graph.OrientedRing(9), explore.DFS{}, core.Cheap{}, TierAuto,
			sim.SearchSpace{L: 5, Delays: []int{0, 1}}},
		{"grid", graph.Grid(3, 3), explore.DFS{}, core.Cheap{}, TierAuto,
			sim.SearchSpace{L: 5, Delays: []int{0, 4}}},
		{"tree", graph.RandomTree(8, rng), explore.DFS{}, core.Cheap{}, TierAuto,
			sim.SearchSpace{L: 5, Delays: []int{0, 7}}},
		{"grid-3x4-generic", graph.Grid(3, 4), explore.DFS{}, core.Cheap{}, TierGeneric,
			sim.SearchSpace{L: 6, Delays: []int{0, 5, 22}}},
		{"ring-14-ring", graph.OrientedRing(14), explore.OrientedRingSweep{}, core.Fast{}, TierRing,
			sim.SearchSpace{L: 8, Delays: []int{0, 1, 13}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := PaperModel{Spec: specFor(tc.g, tc.ex, tc.algo, tc.space.L), Space: tc.space, Tier: tc.tier}
			serial, err := SearchModel(m, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !serial.AllMet || serial.Runs == 0 {
				t.Fatalf("serial baseline implausible: %+v", serial)
			}
			for _, workers := range []int{2, 3, 7, 8, 30, 100, -1} {
				par, err := SearchModel(m, Options{Workers: workers})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if par != serial {
					t.Errorf("workers=%d: result diverged\nserial:   %+v\nparallel: %+v", workers, serial, par)
				}
			}
		})
	}
}

// TestFastPathMatchesGeneric checks the dispatch guarantee: on the
// canonical oriented ring with the sweep explorer, the segment-level
// fast path returns bit-for-bit the same WorstCase as the generic
// trajectory executor, for several algorithms and worker counts.
func TestFastPathMatchesGeneric(t *testing.T) {
	const n, L = 14, 6
	g := graph.OrientedRing(n)
	space := sim.SearchSpace{L: L, Delays: []int{0, 1, n - 1, 2 * (n - 1)}}
	for _, algo := range []core.Algorithm{core.Cheap{}, core.CheapSimultaneous{}, core.Fast{}, core.NewFastWithRelabeling(2)} {
		spec := specFor(g, explore.OrientedRingSweep{}, algo, L)
		if !spec.FastPathEligible() {
			t.Fatalf("%s: spec unexpectedly ineligible for the fast path", algo.Name())
		}
		generic, err := SearchModel(PaperModel{Spec: spec, Space: space, Tier: TierGeneric}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 4} {
			fast, err := SearchModel(PaperModel{Spec: spec, Space: space}, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if fast != generic {
				t.Errorf("%s workers=%d: fast path diverged\ngeneric: %+v\nfast:    %+v", algo.Name(), workers, generic, fast)
			}
		}
	}
}

// TestFastPathEligibility pins down exactly when dispatch fires.
func TestFastPathEligibility(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ring := graph.OrientedRing(10)
	if !(Spec{Graph: ring, Explorer: explore.OrientedRingSweep{}}).FastPathEligible() {
		t.Error("canonical ring + sweep should be eligible")
	}
	if (Spec{Graph: ring, Explorer: explore.DFS{}}).FastPathEligible() {
		t.Error("DFS explorer must not be eligible")
	}
	if (Spec{Graph: graph.Ring(10, rng), Explorer: explore.OrientedRingSweep{}}).FastPathEligible() {
		t.Error("port-shuffled ring must not be eligible")
	}
	if (Spec{Graph: graph.Grid(3, 3), Explorer: explore.OrientedRingSweep{}}).FastPathEligible() {
		t.Error("grid must not be eligible")
	}
}

// TestNegativeDelayFallsBack: the segment-level executor has no
// encoding for negative delays, so the engine must route them through
// the generic executor rather than erroring.
func TestNegativeDelayFallsBack(t *testing.T) {
	const n, L = 10, 4
	spec := specFor(graph.OrientedRing(n), explore.OrientedRingSweep{}, core.Cheap{}, L)
	space := sim.SearchSpace{L: L, Delays: []int{-1, 0}}
	got, err := SearchModel(PaperModel{Spec: spec, Space: space}, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	want, err := SearchModel(PaperModel{Spec: spec, Space: space, Tier: TierGeneric}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("negative-delay dispatch diverged: %+v vs %+v", got, want)
	}
}

// TestEqualStartPairsRejectedEverywhere: the model places agents at
// distinct nodes, so spaces listing equal start pairs must error out
// of Expand identically through every tier, worker count and symmetry
// mode — never reach an executor, never silently fall back.
func TestEqualStartPairsRejectedEverywhere(t *testing.T) {
	const n, L = 10, 4
	spec := specFor(graph.OrientedRing(n), explore.OrientedRingSweep{}, core.Cheap{}, L)
	space := sim.SearchSpace{
		L:          L,
		StartPairs: [][2]int{{3, 3}, {0, 5}},
		Delays:     []int{0, 2},
	}
	for _, tc := range []struct {
		m       PaperModel
		workers int
	}{
		{PaperModel{}, 1},
		{PaperModel{}, 4},
		{PaperModel{Tier: TierGeneric}, 1},
		{PaperModel{Tier: TierTable}, 1},
		{PaperModel{Tier: TierBatch}, 1},
		{PaperModel{Tier: TierRing}, 1},
		{PaperModel{Symmetry: SymmetryOff}, 1},
		{PaperModel{Symmetry: SymmetryForced}, 1},
	} {
		tc.m.Spec, tc.m.Space = spec, space
		if _, err := SearchModel(tc.m, Options{Workers: tc.workers}); err == nil {
			t.Errorf("tier=%v sym=%v workers=%d: equal start pair accepted, want error", tc.m.Tier, tc.m.Symmetry, tc.workers)
		}
	}
}

// TestCancellation: a cancelled context aborts the search with its
// error on every tier, serially and on the shard pool, through the
// plain, the checkpointed and the cached entry points.
func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ring := specFor(graph.OrientedRing(12), explore.OrientedRingSweep{}, core.Cheap{}, 6)
	grid := specFor(graph.Grid(3, 3), explore.DFS{}, core.Cheap{}, 6)
	space := sim.SearchSpace{L: 6}
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []Spec{ring, grid} {
		for _, tier := range tiersFor(spec) {
			m := PaperModel{Spec: spec, Space: space, Tier: tier}
			for _, workers := range []int{1, 3, 4} {
				opts := Options{Context: ctx, Workers: workers}
				if _, err := SearchModel(m, opts); err != context.Canceled {
					t.Errorf("%v tier=%v workers=%d: err = %v, want context.Canceled", spec.Graph, tier, workers, err)
				}
				if _, err := SearchModelCheckpointed(m, opts, CheckpointConfig{Shards: 5}); err != context.Canceled {
					t.Errorf("%v tier=%v workers=%d checkpointed: err = %v, want context.Canceled", spec.Graph, tier, workers, err)
				}
				if _, _, err := SearchModelCached(store, m, opts); err != context.Canceled {
					t.Errorf("%v tier=%v workers=%d cached: err = %v, want context.Canceled", spec.Graph, tier, workers, err)
				}
			}
		}
	}
}

// TestSearchSpaceErrors: the expansion errors (L too small) surface
// identically through every path.
func TestSearchSpaceErrors(t *testing.T) {
	spec := specFor(graph.OrientedRing(8), explore.OrientedRingSweep{}, core.Cheap{}, 4)
	space := sim.SearchSpace{L: 1}
	for _, tc := range []struct {
		tier    Tier
		workers int
	}{{TierAuto, 1}, {TierAuto, 4}, {TierGeneric, 1}} {
		if _, err := SearchModel(PaperModel{Spec: spec, Space: space, Tier: tc.tier}, Options{Workers: tc.workers}); err == nil {
			t.Errorf("tier=%v workers=%d: want error for L < 2", tc.tier, tc.workers)
		}
	}
}

// TestParallelRace exercises the sharded engine with enough workers to
// interleave heavily; run with -race this is the concurrency test for
// the whole engine (per-shard caches, result slots, merge). The
// generic tier's shards all clone one shared trajectory cache, so
// concurrent searches of both tiers must neither race nor diverge.
func TestParallelRace(t *testing.T) {
	spec := specFor(graph.OrientedRing(16), explore.OrientedRingSweep{}, core.Fast{}, 8)
	space := sim.SearchSpace{L: 8, Delays: []int{0, 1, 15}}
	want, err := SearchModel(PaperModel{Spec: spec, Space: space, Tier: TierGeneric}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 2)
	for i := 0; i < 2; i++ {
		tier := []Tier{TierAuto, TierGeneric}[i]
		go func() {
			for j := 0; j < 3; j++ {
				got, err := SearchModel(PaperModel{Spec: spec, Space: space, Tier: tier}, Options{Workers: 6})
				if err == nil && got != want {
					err = fmt.Errorf("parallel result diverged: %+v vs %+v", got, want)
				}
				if err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestTableTierMatchesGeneric is the meeting-table analogue of
// TestFastPathMatchesGeneric: on non-ring graphs and explorers — where
// the ring tier cannot fire — the table tier must return bit-for-bit
// the same WorstCase as the generic trajectory executor, for several
// algorithms, graphs and worker counts, including delays beyond E.
func TestTableTierMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cases := []struct {
		name string
		g    *graph.Graph
		ex   explore.Explorer
	}{
		{"grid", graph.Grid(3, 3), explore.DFS{}},
		{"tree", graph.RandomTree(9, rng), explore.DFS{}},
		{"torus-eulerian", graph.Torus(3, 3), explore.Eulerian{}},
		{"hypercube-hamiltonian", graph.Hypercube(3), explore.Hamiltonian{}},
		{"ring-dfs", graph.OrientedRing(9), explore.DFS{}},
		{"shuffled-ring-sweepless", graph.Ring(8, rand.New(rand.NewSource(4))), explore.DFS{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := tc.ex.Duration(tc.g)
			space := sim.SearchSpace{L: 4, Delays: []int{0, 1, e, e + 1, 3 * e}}
			for _, algo := range []core.Algorithm{core.Cheap{}, core.Fast{}} {
				spec := specFor(tc.g, tc.ex, algo, 4)
				if spec.FastPathEligible() {
					t.Fatalf("%s: spec unexpectedly ring-eligible", algo.Name())
				}
				generic, err := SearchModel(PaperModel{Spec: spec, Space: space, Tier: TierGeneric}, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if generic.Runs == 0 {
					t.Fatal("empty sweep")
				}
				for _, workers := range []int{0, 4} {
					for _, tier := range []Tier{TierTable, TierBatch, TierAuto} {
						got, err := SearchModel(PaperModel{Spec: spec, Space: space, Tier: tier}, Options{Workers: workers})
						if err != nil {
							t.Fatalf("%s workers=%d tier=%v: %v", algo.Name(), workers, tier, err)
						}
						if got != generic {
							t.Errorf("%s workers=%d tier=%v diverged\ngeneric: %+v\ngot:     %+v",
								algo.Name(), workers, tier, generic, got)
						}
					}
				}
			}
		})
	}
}

// TestTableTierExplicitStarts: the meeting-table tier honours explicit
// (valid) start-pair subsets exactly as the trajectory scan does.
func TestTableTierExplicitStarts(t *testing.T) {
	spec := specFor(graph.Grid(3, 3), explore.DFS{}, core.Cheap{}, 4)
	space := sim.SearchSpace{
		L:          4,
		StartPairs: [][2]int{{2, 6}, {0, 5}},
		Delays:     []int{0, 3},
	}
	want, err := SearchModel(PaperModel{Spec: spec, Space: space, Tier: TierGeneric}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := SearchModel(PaperModel{Spec: spec, Space: space, Tier: TierTable}, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("explicit-start table tier diverged: %+v vs %+v", got, want)
	}
}

// TestForcedTierErrors: forcing an inapplicable tier is an error, not a
// silent substitution.
func TestForcedTierErrors(t *testing.T) {
	grid := specFor(graph.Grid(3, 3), explore.DFS{}, core.Cheap{}, 4)
	if _, err := SearchModel(PaperModel{Spec: grid, Space: sim.SearchSpace{L: 4}, Tier: TierRing}, Options{}); err == nil {
		t.Error("TierRing on a grid: want error")
	}
	badEx := specFor(graph.Grid(2, 3), explore.Eulerian{}, core.Cheap{}, 4)
	if _, err := SearchModel(PaperModel{Spec: badEx, Space: sim.SearchSpace{L: 4}, Tier: TierTable}, Options{}); err == nil {
		t.Error("TierTable with an explorer that rejects the graph: want error")
	}
	if _, err := SearchModel(PaperModel{Spec: badEx, Space: sim.SearchSpace{L: 4}, Tier: TierBatch}, Options{}); err == nil {
		t.Error("TierBatch with an explorer that rejects the graph: want error")
	}
	if _, err := SearchModel(PaperModel{Spec: grid, Space: sim.SearchSpace{L: 4}, Tier: Tier(42)}, Options{}); err == nil {
		t.Error("unknown tier: want error")
	}
}

// TestTableDegenerate pins down which spaces the table tier refuses.
func TestTableDegenerate(t *testing.T) {
	ok := [][2]int{{0, 1}, {2, 2}}
	if tableDegenerate(4, ok, []int{0, 7}) {
		t.Error("in-range starts (equal allowed) and non-negative delays are not degenerate")
	}
	if !tableDegenerate(4, ok, []int{0, -1}) {
		t.Error("negative delay must be degenerate")
	}
	if !tableDegenerate(4, [][2]int{{0, 4}}, []int{0}) {
		t.Error("out-of-range start must be degenerate")
	}
	if !tableDegenerate(4, [][2]int{{-1, 2}}, []int{0}) {
		t.Error("negative start must be degenerate")
	}
}

// TestAutoBudgetDecision: TierAuto must fall back to the generic
// executor when the budget disables or cannot fit the tables, and the
// budget arithmetic must use the exact phase count, which never
// exceeds E no matter how many delays the space sweeps.
func TestAutoBudgetDecision(t *testing.T) {
	g := graph.Grid(3, 3)
	e := explore.DFS{}.Duration(g)
	manyDelays := make([]int, 0, 10*e)
	for d := 0; d < 10*e; d++ {
		manyDelays = append(manyDelays, d)
	}
	if got := len(meetoracle.Phases(e, manyDelays)); got != e {
		t.Fatalf("distinct phases = %d, want E = %d", got, e)
	}
	// A budget sized for E slabs (plus walks and hit lists) must admit
	// the delay-rich sweep: the naive 2·len(delays) bound would demand
	// ~20x more and reject it.
	budget := meetoracle.EstimateBytes(g.N(), e, e)
	if naive := meetoracle.EstimateBytes(g.N(), e, 2*len(manyDelays)); naive <= budget {
		t.Fatalf("test premise broken: naive bound %d <= exact budget %d", naive, budget)
	}
	spec := specFor(g, explore.DFS{}, core.Cheap{}, 3)
	space := sim.SearchSpace{L: 3, StartPairs: [][2]int{{0, 4}, {8, 2}}, Delays: manyDelays[:2*e]}
	want, err := SearchModel(PaperModel{Spec: spec, Space: space, Tier: TierGeneric}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{0, budget, -1, 16} {
		got, err := SearchModel(PaperModel{Spec: spec, Space: space, TableBudget: budget}, Options{})
		if err != nil {
			t.Fatalf("budget=%d: %v", budget, err)
		}
		if got != want {
			t.Errorf("budget=%d diverged: %+v vs %+v", budget, got, want)
		}
	}
}

// TestTinyBudgetStillCorrect: a budget too small for the tables routes
// TierAuto to the generic executor, with identical results.
func TestTinyBudgetStillCorrect(t *testing.T) {
	spec := specFor(graph.Grid(3, 3), explore.DFS{}, core.Fast{}, 4)
	space := sim.SearchSpace{L: 4, Delays: []int{0, 2}}
	want, err := SearchModel(PaperModel{Spec: spec, Space: space, Tier: TierGeneric}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := SearchModel(PaperModel{Spec: spec, Space: space, TableBudget: 16}, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("tiny-budget search diverged: %+v vs %+v", got, want)
	}
}

// TestTierStrings keeps the Tier diagnostics stable.
func TestTierStrings(t *testing.T) {
	for tier, want := range map[Tier]string{
		TierAuto: "auto", TierGeneric: "generic", TierTable: "table", TierRing: "ring",
		TierBatch: "batch", Tier(9): "tier(9)",
	} {
		if got := tier.String(); got != want {
			t.Errorf("Tier(%d).String() = %q, want %q", int(tier), got, want)
		}
	}
}

// TestResolveWorkers is the table-driven coverage for the worker-count
// resolution rules: 0 and 1 are serial, negatives select GOMAXPROCS,
// and the result is always clamped to [1, units].
func TestResolveWorkers(t *testing.T) {
	maxprocs := runtime.GOMAXPROCS(0)
	cases := []struct {
		name    string
		workers int
		units   int
		want    int
	}{
		{"zero is serial", 0, 100, 1},
		{"one is serial", 1, 100, 1},
		{"explicit count", 7, 100, 7},
		{"clamped to units", 8, 3, 3},
		{"negative selects GOMAXPROCS", -1, 1 << 30, maxprocs},
		{"negative clamped to units", -1, 1, 1},
		{"zero units never yields zero workers", 4, 0, 1},
		{"negative units never yields zero workers", 4, -2, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := (Options{Workers: tc.workers}).resolveWorkers(tc.units); got != tc.want {
				t.Errorf("resolveWorkers(%d) with Workers=%d = %d, want %d", tc.units, tc.workers, got, tc.want)
			}
		})
	}
}

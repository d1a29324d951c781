package adversary

import (
	"testing"

	"rendezvous/internal/core"
	"rendezvous/internal/explore"
	"rendezvous/internal/graph"
	"rendezvous/internal/model"
	"rendezvous/internal/sim"
)

// stripRuns zeroes the one field the symmetry reduction is allowed to
// change, so the remainder of the WorstCase can be compared bit for
// bit.
func stripRuns(wc sim.WorstCase) sim.WorstCase {
	wc.Runs = 0
	return wc
}

// TestSymmetryEquivalenceSweep is the acceptance sweep for the
// reduction layer: on every family — vertex-transitive (ring, torus,
// hypercube, circulant complete) and asymmetric (path, star, grid,
// complete) — at L <= 4, delays {0, 1} and workers {1, 8}, the
// symmetry-reduced search must return the identical Time.Value,
// Cost.Value and AllMet as the unreduced search. The canonicalization
// rule (orbit representative = first member in enumeration order) in
// fact guarantees more, so the sweep pins the stronger property:
// everything but Runs is bit-for-bit equal, and Runs shrinks by
// exactly the group order on the transitive families.
func TestSymmetryEquivalenceSweep(t *testing.T) {
	type family struct {
		name string
		g    *graph.Graph
		ex   explore.Explorer
		aut  int // hand-computed |Aut|, the expected Runs divisor
	}
	families := []family{
		{"ring-4", graph.OrientedRing(4), explore.OrientedRingSweep{}, 4},
		{"ring-6", graph.OrientedRing(6), explore.OrientedRingSweep{}, 6},
		{"ring-5-dfs", graph.OrientedRing(5), explore.DFS{}, 5},
		{"path-5", graph.Path(5), explore.DFS{}, 1},
		{"star-6", graph.Star(6), explore.DFS{}, 1},
		{"grid-3x3", graph.Grid(3, 3), explore.DFS{}, 1},
		{"torus-3x3", graph.Torus(3, 3), explore.DFS{}, 9},
		{"torus-3x3-eulerian", graph.Torus(3, 3), explore.Eulerian{}, 9},
		{"hypercube-3", graph.Hypercube(3), explore.DFS{}, 8},
		{"complete-5", graph.Complete(5), explore.DFS{}, 1},
		{"circulant-5", graph.CirculantComplete(5), explore.DFS{}, 5},
	}
	const L = 4
	delays := []int{0, 1}
	for _, f := range families {
		t.Run(f.name, func(t *testing.T) {
			for _, algo := range []core.Algorithm{core.Cheap{}, core.Fast{}} {
				spec := specFor(f.g, f.ex, algo, L)
				space := sim.SearchSpace{L: L, Delays: delays}
				unreduced, err := SearchModel(PaperModel{Spec: spec, Space: space, Symmetry: SymmetryOff}, Options{})
				if err != nil {
					t.Fatal(err)
				}
				n := f.g.N()
				wantRuns := L * (L - 1) * n * (n - 1) * len(delays)
				if unreduced.Runs != wantRuns {
					t.Fatalf("%s: unreduced Runs = %d, want %d", algo.Name(), unreduced.Runs, wantRuns)
				}
				for _, workers := range []int{1, 8} {
					for _, sym := range []Symmetry{SymmetryAuto, SymmetryForced} {
						got, err := SearchModel(PaperModel{Spec: spec, Space: space, Symmetry: sym}, Options{Workers: workers})
						if err != nil {
							t.Fatalf("%s workers=%d sym=%v: %v", algo.Name(), workers, sym, err)
						}
						if got.Time.Value != unreduced.Time.Value || got.Cost.Value != unreduced.Cost.Value || got.AllMet != unreduced.AllMet {
							t.Fatalf("%s workers=%d sym=%v values diverged:\noff: %+v\ngot: %+v",
								algo.Name(), workers, sym, unreduced, got)
						}
						if stripRuns(got) != stripRuns(unreduced) {
							t.Errorf("%s workers=%d sym=%v witnesses diverged:\noff: %+v\ngot: %+v",
								algo.Name(), workers, sym, unreduced, got)
						}
						// The automorphism groups act freely on ordered
						// distinct pairs here, so the reduction factor is
						// exactly |Aut|.
						if got.Runs*f.aut != unreduced.Runs {
							t.Errorf("%s workers=%d sym=%v: Runs = %d, want %d/%d",
								algo.Name(), workers, sym, got.Runs, unreduced.Runs, f.aut)
						}
					}
				}
			}
		})
	}
}

// TestSymmetryReductionRuns is the committed reduction benchmark the CI
// smoke step executes: a torus 4x4 sweep must run >= 3x (here: exactly
// 16x, the translation-group order) fewer executions with the
// reduction than without, with identical values — the loud regression
// alarm for the orbit layer.
func TestSymmetryReductionRuns(t *testing.T) {
	const L = 4
	spec := specFor(graph.Torus(4, 4), explore.DFS{}, core.Fast{}, L)
	space := sim.SearchSpace{L: L, Delays: []int{0, 1}}
	off, err := SearchModel(PaperModel{Spec: spec, Space: space, Symmetry: SymmetryOff}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	auto, err := SearchModel(PaperModel{Spec: spec, Space: space}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// 12 label pairs x 240 ordered start pairs x 2 delays, against
	// 12 x 15 orbit representatives x 2.
	if off.Runs != 5760 || auto.Runs != 360 {
		t.Errorf("Runs off/auto = %d/%d, want 5760/360", off.Runs, auto.Runs)
	}
	if auto.Runs*3 > off.Runs {
		t.Errorf("reduction factor below the 3x acceptance floor: %d vs %d", auto.Runs, off.Runs)
	}
	if stripRuns(auto) != stripRuns(off) {
		t.Errorf("reduced sweep changed results:\noff:  %+v\nauto: %+v", off, auto)
	}
}

// TestSymmetryForcedOnAsymmetricGraph: forcing the reduction on a
// trivial-group graph is not an error — the quotient is the identity
// and the search is bit-for-bit the unreduced one, Runs included.
func TestSymmetryForcedOnAsymmetricGraph(t *testing.T) {
	spec := specFor(graph.Grid(3, 3), explore.DFS{}, core.Cheap{}, 3)
	space := sim.SearchSpace{L: 3, Delays: []int{0, 2}}
	off, err := SearchModel(PaperModel{Spec: spec, Space: space, Symmetry: SymmetryOff}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	forced, err := SearchModel(PaperModel{Spec: spec, Space: space, Symmetry: SymmetryForced}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if forced != off {
		t.Errorf("identity quotient changed the search:\noff:    %+v\nforced: %+v", off, forced)
	}
}

// TestSymmetryComposesWithForcedTiers: the reduction happens before
// dispatch, so every forced tier sees the same reduced space and all
// agree with the unreduced reference on everything but Runs.
func TestSymmetryComposesWithForcedTiers(t *testing.T) {
	const n, L = 8, 3
	spec := specFor(graph.OrientedRing(n), explore.OrientedRingSweep{}, core.Fast{}, L)
	space := sim.SearchSpace{L: L, Delays: []int{0, 1, n - 1}}
	off, err := SearchModel(PaperModel{Spec: spec, Space: space, Symmetry: SymmetryOff, Tier: TierGeneric}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tier := range []Tier{TierGeneric, TierTable, TierBatch, TierRing, TierAuto} {
		for _, workers := range []int{1, 4} {
			got, err := SearchModel(PaperModel{Spec: spec, Space: space, Tier: tier}, Options{Workers: workers})
			if err != nil {
				t.Fatalf("tier=%v workers=%d: %v", tier, workers, err)
			}
			if stripRuns(got) != stripRuns(off) {
				t.Errorf("tier=%v workers=%d diverged:\noff: %+v\ngot: %+v", tier, workers, off, got)
			}
			if got.Runs*n != off.Runs {
				t.Errorf("tier=%v workers=%d: Runs = %d, want %d/%d", tier, workers, got.Runs, off.Runs, n)
			}
		}
	}
}

// TestSymmetryExplicitSubsetReduction: the orbit layer also collapses
// explicit start-pair lists — two listed pairs in one orbit keep only
// the first — while orbit-distinct lists (like the classic ring-offset
// subset) pass through untouched.
func TestSymmetryExplicitSubsetReduction(t *testing.T) {
	const n, L = 6, 3
	spec := specFor(graph.OrientedRing(n), explore.OrientedRingSweep{}, core.Cheap{}, L)

	// (1,3) and (4,0) share gap 2; (0,5) is alone in gap 5.
	overlapping := sim.SearchSpace{L: L, StartPairs: [][2]int{{1, 3}, {4, 0}, {0, 5}}}
	off, err := SearchModel(PaperModel{Spec: spec, Space: overlapping, Symmetry: SymmetryOff}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	auto, err := SearchModel(PaperModel{Spec: spec, Space: overlapping}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stripRuns(auto) != stripRuns(off) {
		t.Errorf("overlapping subset diverged:\noff:  %+v\nauto: %+v", off, auto)
	}
	if wantOff, wantAuto := L*(L-1)*3, L*(L-1)*2; off.Runs != wantOff || auto.Runs != wantAuto {
		t.Errorf("Runs off/auto = %d/%d, want %d/%d", off.Runs, auto.Runs, wantOff, wantAuto)
	}

	offsets := sim.SearchSpace{L: L, StartPairs: [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}}}
	offO, err := SearchModel(PaperModel{Spec: spec, Space: offsets, Symmetry: SymmetryOff}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	autoO, err := SearchModel(PaperModel{Spec: spec, Space: offsets}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if autoO != offO {
		t.Errorf("orbit-distinct offsets must be untouched:\noff:  %+v\nauto: %+v", offO, autoO)
	}
}

// TestEmptyListsSweepNothing: an explicit empty list on any axis is an
// empty space, not a request for that axis's default, on every tier,
// symmetry mode and worker count — including the generic tier under a
// reduction, which sweeps the reduced start pairs — and for the
// dynamic model, whose shards run the same sim.Sweep.
func TestEmptyListsSweepNothing(t *testing.T) {
	const L = 3
	ring := specFor(graph.OrientedRing(10), explore.OrientedRingSweep{}, core.Cheap{}, L)
	torus := specFor(graph.Torus(3, 3), explore.DFS{}, core.Cheap{}, L)
	want := sim.WorstCase{AllMet: true}
	for _, sc := range []struct {
		name  string
		space sim.SearchSpace
	}{
		{"starts", sim.SearchSpace{L: L, StartPairs: [][2]int{}, Delays: []int{0, 1}}},
		{"labels", sim.SearchSpace{LabelPairs: [][2]int{}, Delays: []int{0, 1}}},
		{"delays", sim.SearchSpace{L: L, Delays: []int{}}},
	} {
		for _, spec := range []Spec{ring, torus} {
			for _, tier := range []Tier{TierAuto, TierGeneric, TierTable, TierBatch, TierRing} {
				if tier == TierRing && !spec.FastPathEligible() {
					continue
				}
				for _, sym := range []Symmetry{SymmetryAuto, SymmetryOff, SymmetryForced} {
					for _, workers := range []int{1, 4} {
						m := PaperModel{Spec: spec, Space: sc.space, Tier: tier, Symmetry: sym}
						got, err := SearchModel(m, Options{Workers: workers})
						if err != nil {
							t.Fatalf("%s n=%d tier=%v sym=%v workers=%d: %v", sc.name, spec.Graph.N(), tier, sym, workers, err)
						}
						if got != want {
							t.Errorf("%s n=%d tier=%v sym=%v workers=%d: got %+v, want %+v",
								sc.name, spec.Graph.N(), tier, sym, workers, got, want)
						}
					}
				}
			}
			m := model.Dynamic{Graph: spec.Graph, Explorer: spec.Explorer, ScheduleFor: spec.ScheduleFor,
				Space: sc.space, Phases: []model.Phase{{Rounds: 1}}}
			for _, workers := range []int{1, 4} {
				got, err := SearchModel(m, Options{Workers: workers})
				if err != nil {
					t.Fatalf("%s n=%d dynamic workers=%d: %v", sc.name, spec.Graph.N(), workers, err)
				}
				if got != want {
					t.Errorf("%s n=%d dynamic workers=%d: got %+v, want %+v", sc.name, spec.Graph.N(), workers, got, want)
				}
			}
		}
	}
}

// TestSymmetryStrings keeps the Symmetry diagnostics and the CLI
// parser stable.
func TestSymmetryStrings(t *testing.T) {
	for sym, want := range map[Symmetry]string{
		SymmetryAuto: "auto", SymmetryOff: "off", SymmetryForced: "forced", Symmetry(7): "symmetry(7)",
	} {
		if got := sym.String(); got != want {
			t.Errorf("Symmetry(%d).String() = %q, want %q", int(sym), got, want)
		}
	}
	for _, text := range []string{"auto", "off", "forced"} {
		sym, err := ParseSymmetry(text)
		if err != nil || sym.String() != text {
			t.Errorf("ParseSymmetry(%q) = %v, %v", text, sym, err)
		}
	}
	if _, err := ParseSymmetry("junk"); err == nil {
		t.Error("ParseSymmetry(junk): want error")
	}
}

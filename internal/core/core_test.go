package core

import (
	"context"
	"math/rand"
	"testing"

	"rendezvous/internal/explore"
	"rendezvous/internal/graph"
	"rendezvous/internal/label"
	"rendezvous/internal/sim"
)

func TestCheapScheduleShape(t *testing.T) {
	params := Params{L: 16}
	for l := 1; l <= 16; l++ {
		sched := Cheap{}.Schedule(l, params)
		if len(sched) != 2*l+2 {
			t.Fatalf("Cheap(%d): %d segments, want %d", l, len(sched), 2*l+2)
		}
		if sched[0] != sim.SegmentExplore || sched[len(sched)-1] != sim.SegmentExplore {
			t.Fatalf("Cheap(%d): schedule must start and end with explore", l)
		}
		for i := 1; i < len(sched)-1; i++ {
			if sched[i] != sim.SegmentWait {
				t.Fatalf("Cheap(%d): segment %d is %v, want wait", l, i, sched[i])
			}
		}
		if got := sched.Explorations(); got != 2 {
			t.Fatalf("Cheap(%d): %d explorations, want 2", l, got)
		}
	}
}

func TestCheapSimultaneousScheduleShape(t *testing.T) {
	params := Params{L: 10}
	for l := 1; l <= 10; l++ {
		sched := CheapSimultaneous{}.Schedule(l, params)
		if len(sched) != l {
			t.Fatalf("CheapSimultaneous(%d): %d segments, want %d", l, len(sched), l)
		}
		if got := sched.Explorations(); got != 1 {
			t.Fatalf("CheapSimultaneous(%d): %d explorations, want exactly 1", l, got)
		}
		if sched[l-1] != sim.SegmentExplore {
			t.Fatalf("CheapSimultaneous(%d): last segment must be the exploration", l)
		}
	}
}

func TestFastScheduleMatchesTransform(t *testing.T) {
	params := Params{L: 64}
	for l := 1; l <= 64; l++ {
		s := label.Transform(l)
		sched := Fast{}.Schedule(l, params)
		if len(sched) != 2*len(s)+1 {
			t.Fatalf("Fast(%d): %d segments, want 2m+1 = %d", l, len(sched), 2*len(s)+1)
		}
		if sched[0] != sim.SegmentExplore {
			t.Fatalf("Fast(%d): T[1] must be 1 (explore)", l)
		}
		for i, b := range s {
			want := sim.SegmentWait
			if b == 1 {
				want = sim.SegmentExplore
			}
			if sched[1+2*i] != want || sched[2+2*i] != want {
				t.Fatalf("Fast(%d): segments %d,%d do not double S[%d] = %d", l, 1+2*i, 2+2*i, i+1, b)
			}
		}
	}
}

func TestFastWithRelabelingScheduleShape(t *testing.T) {
	for _, w := range []int{1, 2, 3} {
		algo := NewFastWithRelabeling(w)
		for _, L := range []int{4, 16, 64} {
			params := Params{L: L}
			tLen := algo.T(L)
			seen := make(map[string]bool, L)
			for l := 1; l <= L; l++ {
				sched := algo.Schedule(l, params)
				if len(sched) != 2*tLen+1 {
					t.Fatalf("FWR(w=%d,L=%d,ℓ=%d): %d segments, want %d", w, L, l, len(sched), 2*tLen+1)
				}
				// Exactly 2w+1 explorations: T[1]=1 plus each of the w set
				// bits doubled.
				if got := sched.Explorations(); got != 2*w+1 {
					t.Fatalf("FWR(w=%d,L=%d,ℓ=%d): %d explorations, want %d", w, L, l, got, 2*w+1)
				}
				key := schedKey(sched)
				if seen[key] {
					t.Fatalf("FWR(w=%d,L=%d,ℓ=%d): schedule collides with an earlier label", w, L, l)
				}
				seen[key] = true
			}
		}
	}
}

func schedKey(s sim.Schedule) string {
	b := make([]byte, len(s))
	for i, seg := range s {
		b[i] = byte(seg)
	}
	return string(b)
}

func TestScheduleLabelValidation(t *testing.T) {
	algos := []Algorithm{Cheap{}, CheapSimultaneous{}, Fast{}, NewFastWithRelabeling(2), WaitForMate{}, ExploreForever{}}
	for _, algo := range algos {
		for _, bad := range []int{0, -1, 9} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s.Schedule(%d, L=8): expected panic", algo.Name(), bad)
					}
				}()
				algo.Schedule(bad, Params{L: 8})
			}()
		}
	}
}

// correctnessSweep verifies that an algorithm always achieves rendezvous
// over an exhaustive space and that every execution respects the given
// bound checks.
func correctnessSweep(t *testing.T, g *graph.Graph, ex explore.Explorer, algo Algorithm, L int, delays []int,
	check func(t *testing.T, wc sim.WorstCase, e int)) {
	t.Helper()
	params := Params{L: L}
	tc := sim.NewTrajectories(g, ex, func(l int) sim.Schedule { return algo.Schedule(l, params) })
	wc, err := sim.Search(context.Background(), tc, sim.SearchSpace{L: L, Delays: delays})
	if err != nil {
		t.Fatal(err)
	}
	if !wc.AllMet {
		t.Fatalf("%s on %v: some executions never meet", algo.Name(), g)
	}
	if check != nil {
		check(t, wc, ex.Duration(g))
	}
}

func testGraphs(t *testing.T) map[string]struct {
	g  *graph.Graph
	ex explore.Explorer
} {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	return map[string]struct {
		g  *graph.Graph
		ex explore.Explorer
	}{
		"oriented-ring-9/sweep": {graph.OrientedRing(9), explore.OrientedRingSweep{}},
		"oriented-ring-9/dfs":   {graph.OrientedRing(9), explore.DFS{}},
		"path-6/dfs":            {graph.Path(6), explore.DFS{}},
		"star-7/dfs":            {graph.Star(7), explore.DFS{}},
		"tree-8/dfs":            {graph.RandomTree(8, rng), explore.DFS{}},
		"torus-3x3/eulerian":    {graph.Torus(3, 3), explore.Eulerian{}},
		"random-8/dfs":          {graph.RandomConnected(8, 0.3, rng), explore.DFS{}},
	}
}

func TestCheapMeetsAndRespectsBounds(t *testing.T) {
	const L = 5
	for name, tg := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			e := tg.ex.Duration(tg.g)
			delays := []int{0, 1, e / 2, e, e + 1, 2 * e}
			correctnessSweep(t, tg.g, tg.ex, Cheap{}, L, delays, func(t *testing.T, wc sim.WorstCase, e int) {
				if wc.Cost.Value > CheapCostBound(e) {
					t.Errorf("worst cost %d exceeds 3E = %d (witness %+v)", wc.Cost.Value, CheapCostBound(e), wc.Cost)
				}
				if wc.Time.Value > CheapWorstTimeBound(e, L) {
					t.Errorf("worst time %d exceeds (2L+1)E = %d (witness %+v)", wc.Time.Value, CheapWorstTimeBound(e, L), wc.Time)
				}
			})
		})
	}
}

func TestCheapPerLabelTimeBound(t *testing.T) {
	// Proposition 2.1's sharp form: time ≤ (2ℓ+3)E with ℓ the smaller label.
	g := graph.OrientedRing(8)
	ex := explore.OrientedRingSweep{}
	e := ex.Duration(g)
	params := Params{L: 6}
	tc := sim.NewTrajectories(g, ex, func(l int) sim.Schedule { return Cheap{}.Schedule(l, params) })
	for a := 1; a <= 6; a++ {
		for b := 1; b <= 6; b++ {
			if a == b {
				continue
			}
			wc, err := sim.Search(context.Background(), tc, sim.SearchSpace{
				LabelPairs: [][2]int{{a, b}},
				Delays:     []int{0, 1, e / 2, e},
			})
			if err != nil {
				t.Fatal(err)
			}
			if !wc.AllMet {
				t.Fatalf("labels (%d,%d): not all met", a, b)
			}
			bound := CheapTimeBound(e, min(a, b))
			if wc.Time.Value > bound {
				t.Errorf("labels (%d,%d): worst time %d exceeds (2ℓ+3)E = %d", a, b, wc.Time.Value, bound)
			}
		}
	}
}

func TestCheapSimultaneousExactCost(t *testing.T) {
	// With simultaneous start the variant has cost exactly E: the smaller
	// agent's single full exploration, the larger agent still parked.
	const L = 6
	for name, tg := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			e := tg.ex.Duration(tg.g)
			params := Params{L: L}
			tc := sim.NewTrajectories(tg.g, tg.ex, func(l int) sim.Schedule { return CheapSimultaneous{}.Schedule(l, params) })
			wc, err := sim.Search(context.Background(), tc, sim.SearchSpace{L: L}) // delays default {0}
			if err != nil {
				t.Fatal(err)
			}
			if !wc.AllMet {
				t.Fatal("not all executions met")
			}
			// "Cost exactly E" (Section 1.3) is a worst-case statement:
			// no execution exceeds E, and an adversarial placement forces
			// the full exploration when the exploration is optimal (the
			// ring sweep). With slack in EXPLORE (e.g. DFS's return trips)
			// the meeting can land mid-exploration at cost < E.
			if wc.Cost.Value > CheapSimultaneousCost(e) {
				t.Errorf("worst cost = %d exceeds E = %d", wc.Cost.Value, e)
			}
			if name == "oriented-ring-9/sweep" && wc.Cost.Value != e {
				t.Errorf("ring sweep: worst cost = %d, want exactly E = %d", wc.Cost.Value, e)
			}
			if wc.Time.Value > CheapSimultaneousTimeBound(e, L-1) {
				t.Errorf("worst time = %d exceeds (L-1)·E = %d", wc.Time.Value, (L-1)*e)
			}
		})
	}
}

func TestCheapSimultaneousPerLabelTime(t *testing.T) {
	g := graph.OrientedRing(10)
	ex := explore.OrientedRingSweep{}
	e := ex.Duration(g)
	params := Params{L: 7}
	tc := sim.NewTrajectories(g, ex, func(l int) sim.Schedule { return CheapSimultaneous{}.Schedule(l, params) })
	for a := 1; a <= 7; a++ {
		for b := 1; b <= 7; b++ {
			if a == b {
				continue
			}
			wc, err := sim.Search(context.Background(), tc, sim.SearchSpace{LabelPairs: [][2]int{{a, b}}})
			if err != nil {
				t.Fatal(err)
			}
			if !wc.AllMet {
				t.Fatalf("labels (%d,%d): not all met", a, b)
			}
			if bound := CheapSimultaneousTimeBound(e, min(a, b)); wc.Time.Value > bound {
				t.Errorf("labels (%d,%d): worst time %d exceeds ℓE = %d", a, b, wc.Time.Value, bound)
			}
		}
	}
}

func TestFastMeetsAndRespectsBounds(t *testing.T) {
	const L = 5
	for name, tg := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			e := tg.ex.Duration(tg.g)
			delays := []int{0, 1, e / 2, e, e + 1, 2 * e}
			correctnessSweep(t, tg.g, tg.ex, Fast{}, L, delays, func(t *testing.T, wc sim.WorstCase, e int) {
				if wc.Time.Value > FastTimeBound(e, L) {
					t.Errorf("worst time %d exceeds (4log(L-1)+9)E = %d", wc.Time.Value, FastTimeBound(e, L))
				}
				if wc.Cost.Value > FastCostBound(e, L) {
					t.Errorf("worst cost %d exceeds (8log(L-1)+18)E = %d", wc.Cost.Value, FastCostBound(e, L))
				}
			})
		})
	}
}

func TestFastSharpPerPairBound(t *testing.T) {
	g := graph.OrientedRing(8)
	ex := explore.OrientedRingSweep{}
	e := ex.Duration(g)
	params := Params{L: 12}
	tc := sim.NewTrajectories(g, ex, func(l int) sim.Schedule { return Fast{}.Schedule(l, params) })
	for a := 1; a <= 12; a++ {
		for b := 1; b <= 12; b++ {
			if a == b {
				continue
			}
			wc, err := sim.Search(context.Background(), tc, sim.SearchSpace{
				LabelPairs: [][2]int{{a, b}},
				Delays:     []int{0, 1, e},
			})
			if err != nil {
				t.Fatal(err)
			}
			if !wc.AllMet {
				t.Fatalf("labels (%d,%d): not all met", a, b)
			}
			if bound := FastTimeBoundSharp(e, a, b); wc.Time.Value > bound {
				t.Errorf("labels (%d,%d): worst time %d exceeds sharp bound %d", a, b, wc.Time.Value, bound)
			}
		}
	}
}

func TestFastWithRelabelingMeetsAndRespectsBounds(t *testing.T) {
	const L = 6
	for _, w := range []int{1, 2, 3} {
		algo := NewFastWithRelabeling(w)
		for name, tg := range testGraphs(t) {
			t.Run(name, func(t *testing.T) {
				e := tg.ex.Duration(tg.g)
				delays := []int{0, 1, e}
				correctnessSweep(t, tg.g, tg.ex, algo, L, delays, func(t *testing.T, wc sim.WorstCase, e int) {
					if wc.Time.Value > RelabelingTimeBound(e, L, w) {
						t.Errorf("w=%d: worst time %d exceeds (4t+5)E = %d", w, wc.Time.Value, RelabelingTimeBound(e, L, w))
					}
					if wc.Cost.Value > RelabelingCostSafe(e, w) {
						t.Errorf("w=%d: worst cost %d exceeds (4w+2)E = %d", w, wc.Cost.Value, RelabelingCostSafe(e, w))
					}
				})
			})
		}
	}
}

func TestWaitForMateIsTheExplorationBaseline(t *testing.T) {
	g := graph.OrientedRing(12)
	ex := explore.OrientedRingSweep{}
	e := ex.Duration(g)
	params := Params{L: 2}
	tc := sim.NewTrajectories(g, ex, func(l int) sim.Schedule { return WaitForMate{}.Schedule(l, params) })
	wc, err := sim.Search(context.Background(), tc, sim.SearchSpace{LabelPairs: [][2]int{{1, 2}, {2, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if !wc.AllMet {
		t.Fatal("oracle baseline failed to meet")
	}
	if wc.Time.Value != e || wc.Cost.Value != e {
		t.Errorf("oracle worst (time,cost) = (%d,%d), want (E,E) = (%d,%d)", wc.Time.Value, wc.Cost.Value, e, e)
	}
}

func TestExploreForeverFailsOnRing(t *testing.T) {
	// Negative control: without label-driven symmetry breaking, lockstep
	// exploration on an oriented ring never meets (Section 1.2's argument
	// for why distinct labels are necessary).
	g := graph.OrientedRing(6)
	params := Params{L: 2}
	tc := sim.NewTrajectories(g, explore.OrientedRingSweep{}, func(l int) sim.Schedule { return ExploreForever{}.Schedule(l, params) })
	wc, err := sim.Search(context.Background(), tc, sim.SearchSpace{L: 2})
	if err != nil {
		t.Fatal(err)
	}
	if wc.AllMet {
		t.Error("label-oblivious lockstep exploration reported as always meeting; symmetry should prevent it")
	}
}

func TestAlgorithmNames(t *testing.T) {
	names := map[string]Algorithm{
		"cheap":                    Cheap{},
		"cheap-simultaneous":       CheapSimultaneous{},
		"fast":                     Fast{},
		"fast-with-relabeling":     NewFastWithRelabeling(2),
		"oracle-wait-for-mate":     WaitForMate{},
		"strawman-explore-forever": ExploreForever{},
	}
	for want, algo := range names {
		if got := algo.Name(); got != want {
			t.Errorf("Name() = %q, want %q", got, want)
		}
	}
}

func TestNewFastWithRelabelingValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewFastWithRelabeling(0): expected panic")
		}
	}()
	NewFastWithRelabeling(0)
}

package ringsim

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"rendezvous/internal/core"
	"rendezvous/internal/explore"
	"rendezvous/internal/graph"
	"rendezvous/internal/sim"
)

// reference runs the same scenario through the general simulator with
// the ring sweep, the ground truth ringsim must match bit for bit.
func reference(t *testing.T, n int, a, b Agent) sim.Result {
	t.Helper()
	res, err := sim.Run(sim.Scenario{
		Graph:    graph.OrientedRing(n),
		Explorer: explore.OrientedRingSweep{},
		A:        sim.AgentSpec{Label: 1, Start: a.Start, Wake: a.Wake, Schedule: a.Schedule},
		B:        sim.AgentSpec{Label: 2, Start: b.Start, Wake: b.Wake, Schedule: b.Schedule},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunMatchesGeneralSimulatorExhaustive(t *testing.T) {
	// All Cheap and Fast label pairs, all offsets, several delays, two
	// ring sizes: every field must match the general simulator.
	for _, n := range []int{8, 13} {
		params := core.Params{L: 5}
		for _, algo := range []core.Algorithm{core.Cheap{}, core.Fast{}, core.CheapSimultaneous{}} {
			for la := 1; la <= 5; la++ {
				for lb := 1; lb <= 5; lb++ {
					if la == lb {
						continue
					}
					sa := algo.Schedule(la, params)
					sb := algo.Schedule(lb, params)
					for off := 1; off < n; off++ {
						for _, d := range []int{0, 1, n - 1, 2 * n} {
							a := Agent{Schedule: sa, Start: 0, Wake: 1}
							b := Agent{Schedule: sb, Start: off, Wake: 1 + d}
							got, err := Run(n, a, b)
							if err != nil {
								t.Fatal(err)
							}
							want := reference(t, n, a, b)
							if got.Met != want.Met || got.Round != want.Round ||
								got.CostA != want.CostA || got.CostB != want.CostB {
								t.Fatalf("n=%d %s labels(%d,%d) off=%d d=%d: ringsim %+v != sim %+v",
									n, algo.Name(), la, lb, off, d, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// Property: random schedules agree with the general simulator.
func TestRunMatchesGeneralSimulatorProperty(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(12) + 4
		randSched := func() sim.Schedule {
			s := make(sim.Schedule, rng.Intn(8)+1)
			for i := range s {
				if rng.Intn(2) == 0 {
					s[i] = sim.SegmentWait
				} else {
					s[i] = sim.SegmentExplore
				}
			}
			return s
		}
		a := Agent{Schedule: randSched(), Start: 0, Wake: 1}
		b := Agent{Schedule: randSched(), Start: rng.Intn(n-1) + 1, Wake: 1 + rng.Intn(3*n)}
		got, err := Run(n, a, b)
		if err != nil {
			return false
		}
		want, err := sim.Run(sim.Scenario{
			Graph:    graph.OrientedRing(n),
			Explorer: explore.OrientedRingSweep{},
			A:        sim.AgentSpec{Label: 1, Start: a.Start, Wake: a.Wake, Schedule: a.Schedule},
			B:        sim.AgentSpec{Label: 2, Start: b.Start, Wake: b.Wake, Schedule: b.Schedule},
		})
		if err != nil {
			return false
		}
		return got.Met == want.Met && got.Round == want.Round &&
			got.CostA == want.CostA && got.CostB == want.CostB
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestRunValidation: Run, Meet, NewStarts and Walk refuse exactly what
// sim.Run refuses, for the same reason and in its order — equal starts,
// then starts outside [0, n), then the wakes — and never reduce a start
// mod n.
func TestRunValidation(t *testing.T) {
	const n = 24
	s := sim.Schedule{sim.SegmentExplore}
	for _, tc := range []struct {
		startA, startB, wakeA, wakeB int
		want                         error
	}{
		{3, 3, 1, 1, ErrSameStart},
		{-1, -1, 1, 1, ErrSameStart},
		{n, n, 2, 2, ErrSameStart},
		{0, 31, 1, 1, ErrStartOutRange}, // 31 mod 24 = 7 would meet
		{0, n, 1, 1, ErrStartOutRange},  // n mod n = 0 would be "same start"
		{-17, 0, 1, 1, ErrStartOutRange},
		{5, -1, 1, 3, ErrStartOutRange},
		{0, n, 2, 2, ErrStartOutRange}, // range before wake
		{0, 3, 2, 2, ErrBadWake},
		{0, 3, 0, 1, ErrBadWake},
		{0, 3, 1, 7, nil},
		{n - 1, 0, 4, 1, nil},
	} {
		a := Agent{Schedule: s, Start: tc.startA, Wake: tc.wakeA}
		b := Agent{Schedule: s, Start: tc.startB, Wake: tc.wakeB}
		_, werr := sim.Run(sim.Scenario{
			Graph:    graph.OrientedRing(n),
			Explorer: explore.OrientedRingSweep{},
			A:        sim.AgentSpec{Label: 1, Start: a.Start, Wake: a.Wake, Schedule: s},
			B:        sim.AgentSpec{Label: 2, Start: b.Start, Wake: b.Wake, Schedule: s},
		})
		if errKind(werr) != errKind(tc.want) {
			t.Fatalf("starts (%d,%d) wakes (%d,%d): test expects %v but sim.Run says %v", tc.startA, tc.startB, tc.wakeA, tc.wakeB, tc.want, werr)
		}
		if _, err := Run(n, a, b); err != tc.want {
			t.Errorf("Run starts (%d,%d) wakes (%d,%d): err = %v, want %v", tc.startA, tc.startB, tc.wakeA, tc.wakeB, err, tc.want)
		}
		tl := Compile(n, s)
		if _, err := Meet(n, Placed{Timeline: tl, Start: a.Start, Wake: a.Wake}, Placed{Timeline: tl, Start: b.Start, Wake: b.Wake}); err != tc.want {
			t.Errorf("Meet starts (%d,%d) wakes (%d,%d): err = %v, want %v", tc.startA, tc.startB, tc.wakeA, tc.wakeB, err, tc.want)
		}
		// A walk checks starts once, when they are prepared, and the
		// wakes per walk.
		pairs := [][2]int{{1, 2}, {tc.startA, tc.startB}}
		starts, err := NewStarts(n, pairs)
		if err == nil {
			err = Walk(tl, tl, tc.wakeA, tc.wakeB, starts, make([]Result, len(pairs)))
		}
		if !errors.Is(err, tc.want) {
			t.Errorf("NewStarts+Walk starts (%d,%d) wakes (%d,%d): err = %v, want %v", tc.startA, tc.startB, tc.wakeA, tc.wakeB, err, tc.want)
		}
	}
}

// TestWalkShortBufferPanics: a result buffer shorter than the start
// list is a caller bug.
func TestWalkShortBufferPanics(t *testing.T) {
	tl := Compile(8, sim.Schedule{sim.SegmentExplore})
	starts, err := NewStarts(8, [][2]int{{0, 1}, {0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Walk into a one-result buffer for two start pairs did not panic")
		}
	}()
	_ = Walk(tl, tl, 1, 1, starts, make([]Result, 1))
}

func TestNeverMeetingLockstep(t *testing.T) {
	// Two agents exploring in lockstep never meet; costs must equal the
	// full schedules.
	s := sim.Schedule{sim.SegmentExplore, sim.SegmentExplore}
	res, err := Run(10, Agent{Schedule: s, Start: 0, Wake: 1}, Agent{Schedule: s, Start: 5, Wake: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Met {
		t.Fatal("lockstep agents met")
	}
	if res.CostA != 18 || res.CostB != 18 {
		t.Errorf("costs = (%d,%d), want (18,18)", res.CostA, res.CostB)
	}
}

// TestRingExecutorAllocatesNothing: an execution over compiled
// timelines allocates nothing — one Meet, and one Walk over every
// offset into a caller-owned buffer, the sweep's cost per label pair
// and delay — on the E14 hot spot's shape (FastWithRelabeling(1) at
// L = 4096 on the ring of 24: 8,193-segment schedules of a few runs
// each).
func TestRingExecutorAllocatesNothing(t *testing.T) {
	const n, L = 24, 4096
	algo := core.NewFastWithRelabeling(1)
	params := core.Params{L: L}
	ta, tb := Compile(n, algo.Schedule(L-1, params)), Compile(n, algo.Schedule(L, params))
	a := Placed{Timeline: ta, Start: 0, Wake: 1}
	b := Placed{Timeline: tb, Start: 7, Wake: 1 + n}
	var res Result
	allocs := testing.AllocsPerRun(100, func() {
		res, _ = Meet(n, a, b)
	})
	if allocs != 0 {
		t.Errorf("Meet over compiled timelines allocated %v times per execution, want 0", allocs)
	}
	if !res.Met {
		t.Errorf("labels %d and %d never met: %+v", L-1, L, res)
	}

	pairs := make([][2]int, 0, n-1)
	for off := 1; off < n; off++ {
		pairs = append(pairs, [2]int{0, off})
	}
	starts, err := NewStarts(n, pairs)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]Result, len(pairs))
	allocs = testing.AllocsPerRun(100, func() {
		_ = Walk(ta, tb, 1, 1+n, starts, out)
	})
	if allocs != 0 {
		t.Errorf("Walk over %d start pairs allocated %v times per walk, want 0", len(pairs), allocs)
	}
	if out[6] != res {
		t.Errorf("Walk's offset-7 result %+v differs from Meet's %+v", out[6], res)
	}
}

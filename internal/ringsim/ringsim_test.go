package ringsim

import (
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

func TestRunValidation(t *testing.T) {
	s := sim.Schedule{sim.SegmentExplore}
	if _, err := Run(8, Agent{Schedule: s, Start: 3, Wake: 1}, Agent{Schedule: s, Start: 3, Wake: 1}); err != ErrSameStart {
		t.Errorf("same start: err = %v", err)
	}
	if _, err := Run(8, Agent{Schedule: s, Start: 0, Wake: 2}, Agent{Schedule: s, Start: 3, Wake: 2}); err != ErrBadWake {
		t.Errorf("bad wake: err = %v", err)
	}
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

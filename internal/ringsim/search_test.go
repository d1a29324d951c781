package ringsim_test

import (
	"context"
	"testing"

	"rendezvous/internal/adversary"
	"rendezvous/internal/core"
	"rendezvous/internal/explore"
	"rendezvous/internal/graph"
	"rendezvous/internal/sim"
)

// These tests drive ringsim the way every sweep does: through the
// adversary engine's ring tier.

// ringSearch runs a forced ring-tier search over label pairs × all
// offsets from node 0 × delays on the oriented ring of size n.
func ringSearch(t *testing.T, n int, scheduleFor func(label int) sim.Schedule, pairs [][2]int, delays []int) sim.WorstCase {
	t.Helper()
	wc, err := adversary.SearchModel(adversary.PaperModel{
		Spec:  adversary.Spec{Graph: graph.OrientedRing(n), Explorer: explore.OrientedRingSweep{}, ScheduleFor: scheduleFor},
		Space: sim.SearchSpace{LabelPairs: pairs, StartPairs: offsets(n), Delays: delays},
		Tier:  adversary.TierRing,
	}, adversary.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return wc
}

func offsets(n int) [][2]int {
	var out [][2]int
	for d := 1; d < n; d++ {
		out = append(out, [2]int{0, d})
	}
	return out
}

func TestSearchMatchesSimSearch(t *testing.T) {
	const n, L = 12, 6
	params := core.Params{L: L}
	scheduleFor := func(l int) sim.Schedule { return core.Fast{}.Schedule(l, params) }

	var pairs [][2]int
	for a := 1; a <= L; a++ {
		for b := 1; b <= L; b++ {
			if a != b {
				pairs = append(pairs, [2]int{a, b})
			}
		}
	}
	delays := []int{0, 3, n - 1}

	fast := ringSearch(t, n, scheduleFor, pairs, delays)

	tc := sim.NewTrajectories(graph.OrientedRing(n), explore.OrientedRingSweep{}, scheduleFor)
	slow, err := sim.Search(context.Background(), tc, sim.SearchSpace{LabelPairs: pairs, StartPairs: offsets(n), Delays: delays})
	if err != nil {
		t.Fatal(err)
	}
	if fast != slow {
		t.Errorf("ring tier diverged from sim:\nring: %+v\nsim:  %+v", fast, slow)
	}
}

func TestSearchDefaultDelay(t *testing.T) {
	params := core.Params{L: 3}
	wc := ringSearch(t, 8, func(l int) sim.Schedule { return core.CheapSimultaneous{}.Schedule(l, params) },
		[][2]int{{1, 2}}, nil)
	if wc.Runs != 7 {
		t.Errorf("Runs = %d, want 7 (offsets only)", wc.Runs)
	}
	if !wc.AllMet {
		t.Error("expected all met")
	}
}

func TestLargeLabelSpaceScales(t *testing.T) {
	// The point of ringsim: L = 4096 sweeps finish quickly.
	const n, L = 24, 4096
	params := core.Params{L: L}
	algo := core.NewFastWithRelabeling(3)
	pairs := [][2]int{{1, 2}, {L - 1, L}, {L / 2, L/2 + 1}, {17, 4001}}
	wc := ringSearch(t, n, func(l int) sim.Schedule { return algo.Schedule(l, params) }, pairs, []int{0, 1, n - 1})
	if !wc.AllMet {
		t.Fatal("executions failed to meet")
	}
	e := n - 1
	if wc.Time.Value > core.RelabelingTimeBound(e, L, 3) {
		t.Errorf("worst time %d exceeds (4t+5)E = %d", wc.Time.Value, core.RelabelingTimeBound(e, L, 3))
	}
	if wc.Cost.Value > core.RelabelingCostSafe(e, 3) {
		t.Errorf("worst cost %d exceeds (4w+2)E = %d", wc.Cost.Value, core.RelabelingCostSafe(e, 3))
	}
}

package adversary

import (
	"context"
	"fmt"
	"testing"

	"rendezvous/internal/core"
	"rendezvous/internal/explore"
	"rendezvous/internal/graph"
	"rendezvous/internal/sim"
)

// TestCrossEngineSmallSpaces is the exhaustive cross-engine property
// sweep: on every oriented ring with n <= 6 and every label space
// L <= 5, every tier the engine drives — the generic trajectory scan,
// the hand-derived ring engine (ringsim) and the mechanically derived
// meeting-table tiers — must agree with the serial sim.Search
// reference on the complete WorstCase: witnesses, Runs, AllMet. Worker
// counts {1, 2, 8} cover serial, partial and over-sharded execution;
// combined with the CI -race run this is the concurrency test for the
// whole engine.
func TestCrossEngineSmallSpaces(t *testing.T) {
	for n := 3; n <= 6; n++ {
		g := graph.OrientedRing(n)
		e := n - 1
		delays := []int{0, 1, e, 2*e + 1}
		offsets := make([][2]int, 0, n-1)
		for d := 1; d < n; d++ {
			offsets = append(offsets, [2]int{0, d})
		}
		for L := 2; L <= 5; L++ {
			pairs := make([][2]int, 0, L*(L-1))
			for a := 1; a <= L; a++ {
				for b := 1; b <= L; b++ {
					if a != b {
						pairs = append(pairs, [2]int{a, b})
					}
				}
			}
			for _, algo := range []core.Algorithm{core.Cheap{}, core.Fast{}} {
				t.Run(fmt.Sprintf("n=%d/L=%d/%s", n, L, algo.Name()), func(t *testing.T) {
					params := core.Params{L: L}
					scheduleFor := func(l int) sim.Schedule { return algo.Schedule(l, params) }
					space := sim.SearchSpace{LabelPairs: pairs, StartPairs: offsets, Delays: delays}
					spec := Spec{Graph: g, Explorer: explore.OrientedRingSweep{}, ScheduleFor: scheduleFor}

					// Serial generic scan is the reference.
					ref, err := sim.Search(context.Background(), sim.NewTrajectories(g, explore.OrientedRingSweep{}, scheduleFor), space)
					if err != nil {
						t.Fatal(err)
					}
					if !ref.AllMet || ref.Runs != len(pairs)*len(offsets)*len(delays) {
						t.Fatalf("reference implausible: %+v", ref)
					}

					for _, workers := range []int{1, 2, 8} {
						for _, tier := range []Tier{TierGeneric, TierTable, TierBatch, TierRing, TierAuto} {
							got, err := SearchModel(PaperModel{Spec: spec, Space: space, Tier: tier}, Options{Workers: workers})
							if err != nil {
								t.Fatal(err)
							}
							if got != ref {
								t.Errorf("tier=%v workers=%d diverged: %+v vs %+v", tier, workers, got, ref)
							}
						}
					}
				})
			}
		}
	}
}

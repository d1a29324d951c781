package adversary

import (
	"context"
	"testing"

	"rendezvous/internal/core"
	"rendezvous/internal/explore"
	"rendezvous/internal/graph"
	"rendezvous/internal/sim"
)

// planSpecs returns a small spec per dispatch tier (ring fast path,
// meeting tables, generic), the same mix the checkpoint tests sweep.
func planSpecs() map[string]Spec {
	params := core.Params{L: 4}
	ringSched := func(l int) sim.Schedule { return core.Cheap{}.Schedule(l, params) }
	return map[string]Spec{
		"ring":  {Graph: graph.OrientedRing(6), Explorer: explore.OrientedRingSweep{}, ScheduleFor: ringSched},
		"grid":  {Graph: graph.Grid(2, 3), Explorer: explore.DFS{}, ScheduleFor: ringSched},
		"torus": {Graph: graph.Torus(3, 3), Explorer: explore.DFS{}, ScheduleFor: ringSched},
	}
}

// TestPlanMatchesSearch: running every shard of a Plan (in any split)
// and folding with MergeShards reproduces SearchModel bit for bit — the
// determinism contract the cluster dispatcher distributes on.
func TestPlanMatchesSearch(t *testing.T) {
	space := sim.SearchSpace{L: 4, Delays: []int{0, 1}}
	for name, spec := range planSpecs() {
		for _, sym := range []Symmetry{SymmetryAuto, SymmetryOff} {
			m := PaperModel{Spec: spec, Space: space, Symmetry: sym}
			want, err := SearchModel(m, Options{})
			if err != nil {
				t.Fatalf("%s/%v: SearchModel: %v", name, sym, err)
			}
			for _, shards := range []int{1, 3, 7, 1000} {
				plan, err := NewModelPlan(m, shards)
				if err != nil {
					t.Fatalf("%s/%v/%d: NewModelPlan: %v", name, sym, shards, err)
				}
				results := make([]sim.WorstCase, plan.Shards())
				for i := range results {
					wc, err := plan.RunShard(context.Background(), i)
					if err != nil {
						t.Fatalf("%s/%v/%d: RunShard(%d): %v", name, sym, shards, i, err)
					}
					results[i] = wc
				}
				if got := MergeShards(results); got != want {
					t.Errorf("%s/%v/%d shards: merged %+v != SearchModel %+v", name, sym, shards, got, want)
				}
			}
		}
	}
}

// TestPlanShardsAgreesWithNewPlan: the cheap shard-count derivation
// coordinators use (ModelPlanShards) matches the count NewModelPlan
// fixes, for every requested value — two processes agreeing on
// (search, requested) always agree on the decomposition.
func TestPlanShardsAgreesWithNewPlan(t *testing.T) {
	space := sim.SearchSpace{L: 4, Delays: []int{0}}
	for name, spec := range planSpecs() {
		for _, requested := range []int{0, 1, 5, 12, 9999} {
			m := PaperModel{Spec: spec, Space: space}
			want, err := ModelPlanShards(m, requested)
			if err != nil {
				t.Fatalf("%s/%d: ModelPlanShards: %v", name, requested, err)
			}
			plan, err := NewModelPlan(m, requested)
			if err != nil {
				t.Fatalf("%s/%d: NewModelPlan: %v", name, requested, err)
			}
			if plan.Shards() != want {
				t.Errorf("%s/%d: ModelPlanShards %d != NewModelPlan %d", name, requested, want, plan.Shards())
			}
			if requested == 0 && want != min(DefaultCheckpointShards, plan.Info().LabelPairs) {
				t.Errorf("%s: default shards %d, want min(%d, %d)", name, want, DefaultCheckpointShards, plan.Info().LabelPairs)
			}
		}
	}
}

// TestRunShardBounds: out-of-range shard indices are errors, not
// silent empty sweeps.
func TestRunShardBounds(t *testing.T) {
	spec := planSpecs()["ring"]
	plan, err := NewModelPlan(PaperModel{Spec: spec, Space: sim.SearchSpace{L: 3}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, shard := range []int{-1, plan.Shards()} {
		if _, err := plan.RunShard(context.Background(), shard); err == nil {
			t.Errorf("RunShard(%d): want error", shard)
		}
	}
}

// TestPlanErrors: an invalid space and a forced-inapplicable tier fail
// at NewModelPlan, exactly as they fail at SearchModel.
func TestPlanErrors(t *testing.T) {
	spec := planSpecs()["grid"]
	if _, err := NewModelPlan(PaperModel{Spec: spec, Space: sim.SearchSpace{L: 1}}, 0); err == nil {
		t.Error("L=1: want error")
	}
	if _, err := NewModelPlan(PaperModel{Spec: spec, Space: sim.SearchSpace{L: 3}, Tier: TierRing}, 0); err == nil {
		t.Error("TierRing on a grid: want error")
	}
	if _, err := ModelPlanShards(PaperModel{Spec: spec, Space: sim.SearchSpace{L: 1}}, 0); err == nil {
		t.Error("ModelPlanShards L=1: want error")
	}
}

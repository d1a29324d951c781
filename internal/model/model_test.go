package model_test

import (
	"context"
	"strings"
	"testing"

	"rendezvous/internal/adversary"
	"rendezvous/internal/core"
	"rendezvous/internal/explore"
	"rendezvous/internal/graph"
	"rendezvous/internal/model"
	"rendezvous/internal/sim"
)

// scheduleFor binds an algorithm at L into the ScheduleFor shape both
// adversary.Spec and model.Dynamic take.
func scheduleFor(algo core.Algorithm, L int) func(int) sim.Schedule {
	params := core.Params{L: L}
	return func(l int) sim.Schedule { return algo.Schedule(l, params) }
}

// run compiles a model and drives its sweep over the full label-pair
// axis, exactly like a one-shard search.
func run(t *testing.T, m model.Model) sim.WorstCase {
	t.Helper()
	c, err := m.Compile()
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	wc, err := c.Sweep(context.Background(), c.LabelPairs)
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	return wc
}

// TestDynamicNoOpPhasesMatchStatic pins the dynamic model's semantics
// to the static model's: with a phase schedule that disables nothing,
// every trajectory, meeting, witness and count must be bit-for-bit the
// static generic search's (symmetry off, so both enumerate the full
// space).
func TestDynamicNoOpPhasesMatchStatic(t *testing.T) {
	cases := []struct {
		name  string
		g     *graph.Graph
		space sim.SearchSpace
	}{
		{"ring", graph.OrientedRing(8), sim.SearchSpace{L: 4, Delays: []int{0, 3, 9}}},
		{"grid", graph.Grid(3, 3), sim.SearchSpace{L: 4, Delays: []int{0, 5}}},
		{"path", graph.Path(6), sim.SearchSpace{L: 3, Delays: []int{0, 1, 2}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sched := scheduleFor(core.Cheap{}, tc.space.L)
			static, err := adversary.SearchModel(adversary.PaperModel{
				Spec:     adversary.Spec{Graph: tc.g, Explorer: explore.DFS{}, ScheduleFor: sched},
				Space:    tc.space,
				Tier:     adversary.TierGeneric,
				Symmetry: adversary.SymmetryOff,
			}, adversary.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !static.AllMet || static.Runs == 0 {
				t.Fatalf("static baseline implausible: %+v", static)
			}
			dyn := run(t, model.Dynamic{
				Graph:       tc.g,
				Explorer:    explore.DFS{},
				ScheduleFor: sched,
				Space:       tc.space,
				Phases:      []model.Phase{{Rounds: 1}},
			})
			if dyn != static {
				t.Errorf("dynamic (no-op phases) diverged from static:\nstatic:  %+v\ndynamic: %+v", static, dyn)
			}
		})
	}
}

// TestDynamicBlockingChangesOutcome: severing the graph for all time
// must prevent every meeting of agents that start apart — the blocked
// steps are spent waiting, so nobody ever moves.
func TestDynamicBlockingChangesOutcome(t *testing.T) {
	g := graph.Path(4)
	space := sim.SearchSpace{L: 3, StartPairs: [][2]int{{0, 3}}, Delays: []int{0, 2}}
	sched := scheduleFor(core.Cheap{}, space.L)
	m := model.Dynamic{
		Graph:       g,
		Explorer:    explore.DFS{},
		ScheduleFor: sched,
		Space:       space,
		Phases:      []model.Phase{{Rounds: 1, Disable: [][2]int{{0, 1}, {1, 2}, {2, 3}}}},
	}
	wc := run(t, m)
	if wc.AllMet {
		t.Fatalf("all edges disabled forever, yet AllMet: %+v", wc)
	}
	if wc.Cost.Value != 0 {
		t.Errorf("no agent can move, yet worst cost = %d", wc.Cost.Value)
	}

	// The same searches with the edges restored meet again.
	m.Phases = []model.Phase{{Rounds: 1}}
	if wc := run(t, m); !wc.AllMet {
		t.Fatalf("edges restored, yet a pair still fails to meet: %+v", wc)
	}
}

// TestDynamicPhasePeriodicity: a two-phase schedule must apply its
// disable sets cyclically from global round 1. On a 2-node path where
// the only edge is down every odd round, an agent that explores from
// round 1 loses exactly its blocked rounds, never its will to move:
// meetings still happen, later and cheaper than the static run only in
// the rounds dimension.
func TestDynamicPhasePeriodicity(t *testing.T) {
	g := graph.Path(2)
	space := sim.SearchSpace{L: 2, StartPairs: [][2]int{{0, 1}}, Delays: []int{0}}
	sched := scheduleFor(core.Cheap{}, space.L)
	open := model.Dynamic{
		Graph: g, Explorer: explore.DFS{}, ScheduleFor: sched, Space: space,
		Phases: []model.Phase{{Rounds: 1}},
	}
	alternating := model.Dynamic{
		Graph: g, Explorer: explore.DFS{}, ScheduleFor: sched, Space: space,
		Phases: []model.Phase{
			{Rounds: 1, Disable: [][2]int{{0, 1}}},
			{Rounds: 1},
		},
	}
	wcOpen := run(t, open)
	wcAlt := run(t, alternating)
	if !wcOpen.AllMet || !wcAlt.AllMet {
		t.Fatalf("both variants must meet: open %+v, alternating %+v", wcOpen, wcAlt)
	}
	if wcAlt.Time.Value <= wcOpen.Time.Value {
		t.Errorf("blocking odd rounds should delay the worst meeting: open time %d, alternating time %d",
			wcOpen.Time.Value, wcAlt.Time.Value)
	}
}

// TestDynamicValidate is the rejection table for malformed models.
func TestDynamicValidate(t *testing.T) {
	g := graph.OrientedRing(5)
	sched := scheduleFor(core.Cheap{}, 3)
	ok := model.Dynamic{
		Graph: g, Explorer: explore.DFS{}, ScheduleFor: sched,
		Space:  sim.SearchSpace{L: 3},
		Phases: []model.Phase{{Rounds: 2}},
	}
	if _, err := ok.Compile(); err != nil {
		t.Fatalf("baseline model must compile: %v", err)
	}

	cases := []struct {
		name string
		mut  func(m model.Dynamic) model.Dynamic
		want string
	}{
		{"nil graph", func(m model.Dynamic) model.Dynamic { m.Graph = nil; return m }, "required"},
		{"nil explorer", func(m model.Dynamic) model.Dynamic { m.Explorer = nil; return m }, "required"},
		{"nil schedule", func(m model.Dynamic) model.Dynamic { m.ScheduleFor = nil; return m }, "required"},
		{"no phases", func(m model.Dynamic) model.Dynamic { m.Phases = nil; return m }, "at least one phase"},
		{"zero rounds", func(m model.Dynamic) model.Dynamic {
			m.Phases = []model.Phase{{Rounds: 0}}
			return m
		}, "rounds must be >= 1"},
		{"negative rounds", func(m model.Dynamic) model.Dynamic {
			m.Phases = []model.Phase{{Rounds: -3}}
			return m
		}, "rounds must be >= 1"},
		{"period overflow", func(m model.Dynamic) model.Dynamic {
			m.Phases = []model.Phase{{Rounds: 1 << 21}}
			return m
		}, "period exceeds"},
		{"non-edge", func(m model.Dynamic) model.Dynamic {
			m.Phases = []model.Phase{{Rounds: 1, Disable: [][2]int{{0, 2}}}}
			return m
		}, "not an edge"},
		{"self-loop", func(m model.Dynamic) model.Dynamic {
			m.Phases = []model.Phase{{Rounds: 1, Disable: [][2]int{{1, 1}}}}
			return m
		}, "not an edge"},
		{"out of range", func(m model.Dynamic) model.Dynamic {
			m.Phases = []model.Phase{{Rounds: 1, Disable: [][2]int{{-1, 0}}}}
			return m
		}, "not an edge"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.mut(ok)
			if _, err := m.Compile(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Compile: got error %v, want one containing %q", err, tc.want)
			}
			if _, err := m.Units(); err == nil {
				t.Errorf("Units must fail when Compile fails")
			}
			if _, err := m.Fingerprint(); err == nil {
				t.Errorf("Fingerprint must fail on an invalid model")
			}
		})
	}
}

// TestDynamicUnitsCompileAgreement pins the contract's Units/Compile
// agreement clause.
func TestDynamicUnitsCompileAgreement(t *testing.T) {
	m := model.Dynamic{
		Graph: graph.Grid(2, 3), Explorer: explore.DFS{},
		ScheduleFor: scheduleFor(core.Cheap{}, 4),
		Space:       sim.SearchSpace{L: 4, Delays: []int{0, 1}},
		Phases:      []model.Phase{{Rounds: 3, Disable: [][2]int{{0, 1}}}},
	}
	units, err := m.Units()
	if err != nil {
		t.Fatal(err)
	}
	c, err := m.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if units != len(c.LabelPairs) {
		t.Errorf("Units() = %d, len(Compile().LabelPairs) = %d", units, len(c.LabelPairs))
	}
	if c.Tier != "generic" {
		t.Errorf("dynamic must claim the generic tier, got %q", c.Tier)
	}
}

// TestDynamicSweepDeterministic: two compilations, and repeated sweeps
// of the same shard, return identical results (the contract's
// deterministic-execution clause), including on sub-shards.
func TestDynamicSweepDeterministic(t *testing.T) {
	m := model.Dynamic{
		Graph: graph.Grid(2, 3), Explorer: explore.DFS{},
		ScheduleFor: scheduleFor(core.Cheap{}, 4),
		Space:       sim.SearchSpace{L: 4, Delays: []int{0, 2}},
		Phases:      []model.Phase{{Rounds: 2, Disable: [][2]int{{0, 1}}}, {Rounds: 1}},
	}
	c1, err := m.Compile()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := m.Compile()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	full1, err := c1.Sweep(ctx, c1.LabelPairs)
	if err != nil {
		t.Fatal(err)
	}
	full2, err := c2.Sweep(ctx, c2.LabelPairs)
	if err != nil {
		t.Fatal(err)
	}
	if full1 != full2 {
		t.Errorf("two compilations diverged:\n%+v\n%+v", full1, full2)
	}
	// Sharded merge equals the full sweep.
	mid := len(c1.LabelPairs) / 2
	lo, err := c1.Sweep(ctx, c1.LabelPairs[:mid])
	if err != nil {
		t.Fatal(err)
	}
	hi, err := c1.Sweep(ctx, c1.LabelPairs[mid:])
	if err != nil {
		t.Fatal(err)
	}
	lo.Merge(hi)
	if lo != full1 {
		t.Errorf("sharded merge diverged from full sweep:\nmerged: %+v\nfull:   %+v", lo, full1)
	}
}

// TestDynamicSweepHonoursContext: a cancelled context stops the sweep
// with its error.
func TestDynamicSweepHonoursContext(t *testing.T) {
	m := model.Dynamic{
		Graph: graph.OrientedRing(6), Explorer: explore.DFS{},
		ScheduleFor: scheduleFor(core.Cheap{}, 3),
		Space:       sim.SearchSpace{L: 3},
		Phases:      []model.Phase{{Rounds: 1}},
	}
	c, err := m.Compile()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Sweep(ctx, c.LabelPairs); err != context.Canceled {
		t.Errorf("cancelled sweep returned %v, want context.Canceled", err)
	}
}

// TestDynamicFingerprint pins the fingerprint's canonicalization: it is
// stable, it ignores spelling differences of the same phase schedule
// (edge order, endpoint order, duplicates), it separates genuinely
// different schedules, and it lives in a domain disjoint from the paper
// model's fingerprint of the same underlying search.
func TestDynamicFingerprint(t *testing.T) {
	g := graph.Grid(2, 3)
	sched := scheduleFor(core.Cheap{}, 4)
	space := sim.SearchSpace{L: 4, Delays: []int{0, 1}}
	base := model.Dynamic{
		Graph: g, Explorer: explore.DFS{}, ScheduleFor: sched, Space: space,
		Phases: []model.Phase{{Rounds: 2, Disable: [][2]int{{0, 1}, {1, 2}}}},
	}
	fp1, err := base.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := base.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp1 != fp2 {
		t.Fatalf("fingerprint unstable: %s vs %s", fp1, fp2)
	}

	respelled := base
	respelled.Phases = []model.Phase{{Rounds: 2, Disable: [][2]int{{2, 1}, {1, 0}, {0, 1}}}}
	if fp, err := respelled.Fingerprint(); err != nil || fp != fp1 {
		t.Errorf("respelled disable set must hash identically: %s vs %s (err %v)", fp, fp1, err)
	}

	different := base
	different.Phases = []model.Phase{{Rounds: 3, Disable: [][2]int{{0, 1}, {1, 2}}}}
	if fp, err := different.Fingerprint(); err != nil || fp == fp1 {
		t.Errorf("different phase duration must hash differently (err %v)", err)
	}
	different = base
	different.Phases = []model.Phase{{Rounds: 2, Disable: [][2]int{{0, 1}}}}
	if fp, err := different.Fingerprint(); err != nil || fp == fp1 {
		t.Errorf("different disable set must hash differently (err %v)", err)
	}

	// Disjoint from the paper model's domain: the analogous static
	// search (same graph, explorer, schedules, space) must not collide,
	// even with a no-op phase schedule.
	noop := base
	noop.Phases = []model.Phase{{Rounds: 1}}
	dynFP, err := noop.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	paperFP, err := adversary.PaperModel{
		Spec:     adversary.Spec{Graph: g, Explorer: explore.DFS{}, ScheduleFor: sched},
		Space:    space,
		Symmetry: adversary.SymmetryOff,
	}.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if dynFP == paperFP {
		t.Errorf("dynamic and paper fingerprints collide: %s", dynFP)
	}
}

// TestFingerprintGolden pins one fingerprint per model to its exact
// value. Store records and checkpointed shards are keyed by these
// addresses, so any change to either model's canonical encoding —
// a reordered section, a different salt, a new tail — would silently
// orphan every stored result and must instead show up here. The
// dynamic-torus row hashes about 15 KiB, so its bytes pass through
// several of the encoder's buffer flushes; the other rows hash under
// 4 KiB each and reach the digest in one piece.
func TestFingerprintGolden(t *testing.T) {
	spec := adversary.Spec{Graph: graph.Grid(2, 3), Explorer: explore.DFS{}, ScheduleFor: scheduleFor(core.Cheap{}, 4)}
	space := sim.SearchSpace{L: 4, Delays: []int{0, 1}}
	for _, tc := range []struct {
		name string
		m    model.Model
		want string
	}{
		{"paper", adversary.PaperModel{Spec: spec, Space: space}, "303504c06fbcfdb40882859538974a10255f7b0d2818a466fe20cd4b65e4956f"},
		{"dynamic", model.Dynamic{
			Graph: spec.Graph, Explorer: spec.Explorer, ScheduleFor: spec.ScheduleFor, Space: space,
			Phases: []model.Phase{{Rounds: 2, Disable: [][2]int{{0, 1}, {1, 2}}}, {Rounds: 1}},
		}, "ed3cc05f189819c41561a593fae1c4bba802563d1151ed661ee295e6adb1ec2c"},
		{"dynamic-torus", model.Dynamic{
			Graph: graph.Torus(4, 4), Explorer: explore.DFS{}, ScheduleFor: scheduleFor(core.Cheap{}, 16),
			Space:  sim.SearchSpace{L: 16, Delays: []int{0, 1, 7}},
			Phases: []model.Phase{{Rounds: 3, Disable: [][2]int{{1, 0}, {5, 6}}}, {Rounds: 2, Disable: [][2]int{{4, 8}}}, {Rounds: 1}},
		}, "59fd1a786a0f825763f51b572194f58a0eb9e4bb44bd8d43a7d39e34b88ee238"},
	} {
		got, err := tc.m.Fingerprint()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Errorf("%s fingerprint = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestDynamicThroughEngine runs the dynamic model through the engine's
// model-generic entry points: SearchModel across worker counts,
// NewModelPlan shard execution, and ModelPlanShards agreement.
func TestDynamicThroughEngine(t *testing.T) {
	m := model.Dynamic{
		Graph: graph.Grid(3, 3), Explorer: explore.DFS{},
		ScheduleFor: scheduleFor(core.Cheap{}, 4),
		Space:       sim.SearchSpace{L: 4, Delays: []int{0, 3}},
		Phases:      []model.Phase{{Rounds: 2, Disable: [][2]int{{0, 1}}}, {Rounds: 3}},
	}
	serial, err := adversary.SearchModel(m, adversary.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Against this phase schedule the schedule's meeting guarantee can
	// genuinely fail (AllMet false is a legitimate outcome); the pinned
	// property is determinism, not success.
	if serial.Runs == 0 {
		t.Fatalf("serial baseline implausible: %+v", serial)
	}
	for _, workers := range []int{2, 5, -1} {
		par, err := adversary.SearchModel(m, adversary.Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if par != serial {
			t.Errorf("workers=%d diverged:\nserial:   %+v\nparallel: %+v", workers, serial, par)
		}
	}

	plan, err := adversary.NewModelPlan(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	agreed, err := adversary.ModelPlanShards(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Shards() != agreed {
		t.Fatalf("ModelPlanShards = %d, plan.Shards() = %d", agreed, plan.Shards())
	}
	results := make([]sim.WorstCase, plan.Shards())
	for i := range results {
		if results[i], err = plan.RunShard(context.Background(), i); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
	if merged := adversary.MergeShards(results); merged != serial {
		t.Errorf("sharded merge diverged:\nmerged: %+v\nserial: %+v", merged, serial)
	}
}

// TestDynamicCheckpointResume drives the dynamic model through
// checkpoint/resume: a first run persists shards, a second run restores
// them and returns the identical result.
func TestDynamicCheckpointResume(t *testing.T) {
	m := model.Dynamic{
		Graph: graph.OrientedRing(7), Explorer: explore.DFS{},
		ScheduleFor: scheduleFor(core.Cheap{}, 3),
		Space:       sim.SearchSpace{L: 3, Delays: []int{0, 4}},
		Phases:      []model.Phase{{Rounds: 1, Disable: [][2]int{{2, 3}}}},
	}
	want, err := adversary.SearchModel(m, adversary.Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/dyn"
	cfg := adversary.CheckpointConfig{Path: path, Shards: 3}
	got, err := adversary.SearchModelCheckpointed(m, adversary.Options{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("checkpointed run diverged:\ngot:  %+v\nwant: %+v", got, want)
	}
	restored := -1
	cfg.Progress = func(done, total int) {
		if restored < 0 { // the first call reports the restored shards
			restored = done
		}
	}
	again, err := adversary.SearchModelCheckpointed(m, adversary.Options{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again != want {
		t.Fatalf("resumed run diverged:\ngot:  %+v\nwant: %+v", again, want)
	}
	if restored != 3 {
		t.Errorf("second run restored %d shards, want all 3", restored)
	}
}

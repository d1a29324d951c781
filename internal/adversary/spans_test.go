package adversary

import (
	"context"
	"path/filepath"
	"testing"

	"rendezvous/internal/core"
	"rendezvous/internal/explore"
	"rendezvous/internal/graph"
	"rendezvous/internal/sim"
	"rendezvous/internal/trace"
)

// runTraced runs search under a fresh "engine" root span and returns
// its outcome with the published trace's spans other than the root.
// Every returned span must be a finished child of that root.
func runTraced(t *testing.T, search func(ctx context.Context) (sim.WorstCase, error)) (sim.WorstCase, []trace.SpanRecord, error) {
	t.Helper()
	tracer := trace.New(trace.Config{})
	ctx, root := tracer.StartRoot(context.Background(), "engine")
	wc, err := search(ctx)
	root.End()
	traces := tracer.Traces(trace.Filter{})
	if len(traces) != 1 {
		t.Fatalf("published %d traces, want 1", len(traces))
	}
	var spans []trace.SpanRecord
	for _, s := range traces[0].Spans {
		if s.SpanID == traces[0].Root {
			continue
		}
		if s.ParentID != traces[0].Root || s.InProgress {
			t.Errorf("span %q: parent %q in-progress %v, want a finished child of the engine span", s.Name, s.ParentID, s.InProgress)
		}
		spans = append(spans, s)
	}
	return wc, spans, err
}

// spansNamed returns the spans with the given name.
func spansNamed(spans []trace.SpanRecord, name string) []trace.SpanRecord {
	var out []trace.SpanRecord
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// TestEngineSpans pins the engine's span contract: a traced search
// records one "plan" span carrying the decomposition, one "shard.exec"
// span per executed shard with a positive run count, one "store.put"
// per executed shard's record, and exactly one "merge" — all children
// of the context's span — and tracing changes nothing about the
// result. A resumed search restores every shard, so it executes and
// Puts none.
func TestEngineSpans(t *testing.T) {
	const L = 3
	spec := specFor(graph.OrientedRing(6), explore.OrientedRingSweep{}, core.Fast{}, L)
	m := PaperModel{Spec: spec, Space: sim.SearchSpace{L: L, Delays: []int{0, 1}}}
	opts := Options{Workers: 2}

	want, err := SearchModelCheckpointed(m, opts, CheckpointConfig{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "store")
	// checkpointed runs one traced checkpointed search against path
	// and also returns the restored count Progress reports first.
	checkpointed := func() (sim.WorstCase, []trace.SpanRecord, int) {
		restored := -1
		progress := func(done, total int) {
			if restored < 0 {
				restored = done
				if total != 4 {
					t.Errorf("progress total = %d, want 4", total)
				}
			}
		}
		got, spans, err := runTraced(t, func(ctx context.Context) (sim.WorstCase, error) {
			o := opts
			o.Context = ctx
			return SearchModelCheckpointed(m, o, CheckpointConfig{Shards: 4, Path: path, Progress: progress})
		})
		if err != nil {
			t.Fatal(err)
		}
		return got, spans, restored
	}

	got, spans, restored := checkpointed()
	if got != want {
		t.Fatalf("traced search diverged: got %+v want %+v", got, want)
	}
	plans := spansNamed(spans, "plan")
	if len(plans) != 1 {
		t.Fatalf("%d plan spans, want 1", len(plans))
	}
	pa := plans[0].Attrs
	labelPairs, _ := pa.Get("labelPairs").(int64)
	startPairs, _ := pa.Get("startPairs").(int64)
	if pa.Get("shards") != int64(4) || labelPairs == 0 || startPairs == 0 || pa.Get("delays") != int64(2) {
		t.Fatalf("plan attributes %v", pa)
	}
	if pa.Get("tier") != TierRing.String() {
		t.Fatalf("plan tier = %v, want %s for a ring spec", pa.Get("tier"), TierRing)
	}
	if restored != 0 {
		t.Fatalf("restored = %d, want 0 on a fresh run", restored)
	}
	execs, puts := map[int64]int{}, map[int64]int{}
	var runs int64
	for _, s := range spansNamed(spans, "shard.exec") {
		shard, _ := s.Attrs.Get("shard").(int64)
		r, _ := s.Attrs.Get("runs").(int64)
		execs[shard]++
		runs += r
		if s.Attrs.Get("shards") != int64(4) || s.Attrs.Get("tier") != TierRing.String() || s.Attrs.Get("error") != nil {
			t.Errorf("shard.exec attributes %v", s.Attrs)
		}
	}
	for _, s := range spansNamed(spans, "store.put") {
		shard, _ := s.Attrs.Get("shard").(int64)
		puts[shard]++
		if s.Attrs.Get("error") != nil {
			t.Errorf("store.put attributes %v", s.Attrs)
		}
	}
	for i := int64(0); i < 4; i++ {
		if execs[i] != 1 || puts[i] != 1 {
			t.Fatalf("shard %d spans: shard.exec=%d store.put=%d", i, execs[i], puts[i])
		}
	}
	if len(execs) != 4 || len(puts) != 4 {
		t.Fatalf("spans for shards outside the plan: shard.exec %v, store.put %v", execs, puts)
	}
	if runs != int64(want.Runs) {
		t.Fatalf("summed shard runs = %d, want %d", runs, want.Runs)
	}
	merges := spansNamed(spans, "merge")
	if len(merges) != 1 || merges[0].Attrs.Get("shards") != int64(4) {
		t.Fatalf("merge spans %v, want one over 4 shards", merges)
	}

	// Resume path: all shards restored, none executed or stored.
	got, spans, restored = checkpointed()
	if got != want {
		t.Fatalf("resumed search diverged: got %+v want %+v", got, want)
	}
	if restored != 4 || len(spansNamed(spans, "shard.exec")) != 0 || len(spansNamed(spans, "store.put")) != 0 {
		t.Fatalf("resume: restored=%d, spans %v", restored, spans)
	}
	if len(spansNamed(spans, "plan")) != 1 || len(spansNamed(spans, "merge")) != 1 {
		t.Fatalf("resume: want one plan and one merge span, got %v", spans)
	}

	// SearchModel is the same driver with one shard per worker and no
	// store: no store.put.
	got, spans, err = runTraced(t, func(ctx context.Context) (sim.WorstCase, error) {
		return SearchModel(m, Options{Workers: 2, Context: ctx})
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Time != want.Time || got.Cost != want.Cost || got.Runs != want.Runs {
		t.Fatalf("traced SearchModel diverged: got %+v want %+v", got, want)
	}
	if p := spansNamed(spans, "plan"); len(p) != 1 || p[0].Attrs.Get("shards") != int64(2) {
		t.Fatalf("SearchModel plan spans %v, want one over 2 shards", p)
	}
	if n := len(spansNamed(spans, "shard.exec")); n != 2 {
		t.Fatalf("SearchModel recorded %d shard.exec spans, want 2", n)
	}
	if n := len(spansNamed(spans, "store.put")); n != 0 {
		t.Fatalf("SearchModel recorded %d store.put spans, want 0", n)
	}
	if n := len(spansNamed(spans, "merge")); n != 1 {
		t.Fatalf("SearchModel recorded %d merge spans, want 1", n)
	}

	// A failing shard's span carries the error and no runs, and a
	// failed search merges nothing. Every label >= 3 fails to compile
	// on the generic tier, so the one shard fails.
	failing := PaperModel{
		Spec: Spec{Graph: graph.Grid(3, 3), Explorer: explore.DFS{}, ScheduleFor: func(l int) sim.Schedule {
			if l >= 3 {
				return sim.Schedule{sim.Segment(0)}
			}
			return core.Cheap{}.Schedule(l, core.Params{L: 4})
		}},
		Space: sim.SearchSpace{L: 4},
		Tier:  TierGeneric,
	}
	_, spans, err = runTraced(t, func(ctx context.Context) (sim.WorstCase, error) {
		return SearchModel(failing, Options{Workers: 1, Context: ctx})
	})
	if err == nil {
		t.Fatal("failing search succeeded")
	}
	failed := spansNamed(spans, "shard.exec")
	if len(failed) != 1 || failed[0].Attrs.Get("error") != err.Error() || failed[0].Attrs.Get("runs") != int64(0) {
		t.Fatalf("failing shard.exec spans %v, want one with error %q and 0 runs", failed, err)
	}
	if n := len(spansNamed(spans, "merge")); n != 0 {
		t.Fatalf("failed search recorded %d merge spans, want 0", n)
	}
}

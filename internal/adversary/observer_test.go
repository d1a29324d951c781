package adversary

import (
	"path/filepath"
	"sync"
	"testing"

	"rendezvous/internal/core"
	"rendezvous/internal/explore"
	"rendezvous/internal/graph"
	"rendezvous/internal/sim"
)

// TestSearchObserverEvents pins the observer contract: plan info fires
// first, every non-restored shard gets a start/finish pair with a
// positive run count, checkpoint appends bracket only executed shards,
// the merge brackets fire exactly once — and observing changes nothing
// about the result.
func TestSearchObserverEvents(t *testing.T) {
	const L = 3
	spec := specFor(graph.OrientedRing(6), explore.OrientedRingSweep{}, core.Fast{}, L)
	m := PaperModel{Spec: spec, Space: sim.SearchSpace{L: L, Delays: []int{0, 1}}}
	opts := Options{Workers: 2}

	want, err := SearchModelCheckpointed(m, opts, CheckpointConfig{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}

	var (
		mu        sync.Mutex
		info      PlanInfo
		infoCalls int
		restored  = -1
		started   = map[int]int{}
		finished  = map[int]int{}
		runs      int
		appends   = map[int]int{}
		merges    int
		merged    bool
	)
	obs := SearchObserver{
		PlanReady: func(pi PlanInfo) {
			mu.Lock()
			defer mu.Unlock()
			info = pi
			infoCalls++
		},
		ShardsRestored: func(r, total int) {
			mu.Lock()
			defer mu.Unlock()
			restored = r
			if total != 4 {
				t.Errorf("restored total = %d, want 4", total)
			}
		},
		ShardStarted: func(shard, shards int) {
			mu.Lock()
			defer mu.Unlock()
			started[shard]++
		},
		ShardFinished: func(shard, shards, r int, err error) {
			mu.Lock()
			defer mu.Unlock()
			finished[shard]++
			runs += r
			if err != nil {
				t.Errorf("shard %d error: %v", shard, err)
			}
		},
		CheckpointAppendStarted: func(shard int) {
			mu.Lock()
			defer mu.Unlock()
			appends[shard]++
		},
		CheckpointAppendFinished: func(shard int, err error) {
			if err != nil {
				t.Errorf("append %d error: %v", shard, err)
			}
		},
		MergeStarted: func(shards int) {
			mu.Lock()
			defer mu.Unlock()
			merges++
			if shards != 4 {
				t.Errorf("merge shards = %d, want 4", shards)
			}
		},
		MergeFinished: func() {
			mu.Lock()
			defer mu.Unlock()
			merged = true
		},
	}

	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	got, err := SearchModelCheckpointed(m, opts, CheckpointConfig{Shards: 4, Path: path, Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	if got.Time.Value != want.Time.Value || got.Cost.Value != want.Cost.Value || got.Runs != want.Runs {
		t.Fatalf("observed search diverged: got %+v want %+v", got, want)
	}

	mu.Lock()
	if infoCalls != 1 {
		t.Fatalf("PlanReady fired %d times", infoCalls)
	}
	if info.Shards != 4 || info.LabelPairs == 0 || info.StartPairs == 0 || info.Delays != 2 {
		t.Fatalf("PlanInfo = %+v", info)
	}
	if info.Tier != TierRing {
		t.Fatalf("tier = %v, want TierRing for a ring spec", info.Tier)
	}
	if restored != 0 {
		t.Fatalf("restored = %d, want 0 on a fresh run", restored)
	}
	for i := 0; i < 4; i++ {
		if started[i] != 1 || finished[i] != 1 || appends[i] != 1 {
			t.Fatalf("shard %d events: started=%d finished=%d appends=%d", i, started[i], finished[i], appends[i])
		}
	}
	if runs != want.Runs {
		t.Fatalf("summed shard runs = %d, want %d", runs, want.Runs)
	}
	if merges != 1 || !merged {
		t.Fatalf("merge events: started=%d finished=%v", merges, merged)
	}

	// Resume path: all shards restored, none executed.
	started = map[int]int{}
	restored = -1
	mu.Unlock()
	if _, err := SearchModelCheckpointed(m, opts, CheckpointConfig{Shards: 4, Path: path, Observer: obs}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if restored != 4 || len(started) != 0 {
		t.Fatalf("resume: restored=%d started=%v", restored, started)
	}
}

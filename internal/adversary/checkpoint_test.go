package adversary

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"rendezvous/internal/core"
	"rendezvous/internal/explore"
	"rendezvous/internal/graph"
	"rendezvous/internal/resultstore"
	"rendezvous/internal/sim"
)

// checkpointMatrix is the family matrix the resume-equivalence sweep
// runs over — the same families as the symmetry sweep, covering the
// ring tier (ring-6/sweep), the table tier, and the generic tier, on
// symmetric and asymmetric graphs.
type checkpointFamily struct {
	name string
	g    *graph.Graph
	ex   explore.Explorer
}

func checkpointMatrix() []checkpointFamily {
	return []checkpointFamily{
		{"ring-6-sweep", graph.OrientedRing(6), explore.OrientedRingSweep{}},
		{"ring-5-dfs", graph.OrientedRing(5), explore.DFS{}},
		{"path-5", graph.Path(5), explore.DFS{}},
		{"star-6", graph.Star(6), explore.DFS{}},
		{"grid-3x3", graph.Grid(3, 3), explore.DFS{}},
		{"torus-3x3", graph.Torus(3, 3), explore.DFS{}},
		{"hypercube-3", graph.Hypercube(3), explore.DFS{}},
		{"circulant-5", graph.CirculantComplete(5), explore.DFS{}},
	}
}

// tiersFor returns the tiers applicable to a spec (TierRing only when
// ring-eligible).
func tiersFor(spec Spec) []Tier {
	tiers := []Tier{TierAuto, TierGeneric, TierTable, TierBatch}
	if spec.FastPathEligible() {
		tiers = append(tiers, TierRing)
	}
	return tiers
}

// TestCheckpointedEquivalenceSweep pins the driver's guarantee for
// uninterrupted runs: for every family x tier x symmetry mode in the
// sweep matrix and workers {1, 2, 8}, SearchModel,
// SearchModelCheckpointed (1 shard, one shard per worker, 32 shards,
// and with a checkpoint file) and the cluster's path — NewModelPlan,
// RunShard on concurrent goroutines, MergeShards — all return a
// WorstCase bit-for-bit equal to the serial SearchModel.
func TestCheckpointedEquivalenceSweep(t *testing.T) {
	const L = 3
	space := sim.SearchSpace{L: L, Delays: []int{0, 1}}
	for _, f := range checkpointMatrix() {
		t.Run(f.name, func(t *testing.T) {
			spec := specFor(f.g, f.ex, core.Cheap{}, L)
			for _, tier := range tiersFor(spec) {
				for _, sym := range []Symmetry{SymmetryAuto, SymmetryOff, SymmetryForced} {
					m := PaperModel{Spec: spec, Space: space, Tier: tier, Symmetry: sym}
					want, err := SearchModel(m, Options{})
					if err != nil {
						t.Fatalf("tier=%v sym=%v: SearchModel: %v", tier, sym, err)
					}
					check := func(what string, workers int, got sim.WorstCase, err error) {
						t.Helper()
						if err != nil {
							t.Fatalf("tier=%v sym=%v workers=%d %s: %v", tier, sym, workers, what, err)
						}
						if got != want {
							t.Errorf("tier=%v sym=%v workers=%d %s diverged:\nserial: %+v\ngot:    %+v",
								tier, sym, workers, what, want, got)
						}
					}
					for _, workers := range []int{1, 2, 8} {
						opts := Options{Workers: workers}
						got, err := SearchModel(m, opts)
						check("SearchModel", workers, got, err)
						for _, shards := range []int{1, workers, 32} {
							got, err := SearchModelCheckpointed(m, opts, CheckpointConfig{Shards: shards})
							check(fmt.Sprintf("checkpointed/%d shards", shards), workers, got, err)
						}
						got, err = runPlanConcurrently(m, workers)
						check("plan", workers, got, err)
					}
					path := filepath.Join(t.TempDir(), "sweep.ckpt")
					got, err := SearchModelCheckpointed(m, Options{}, CheckpointConfig{Path: path, Shards: 5})
					check("with file", 1, got, err)
				}
			}
		})
	}
}

// runPlanConcurrently is the cluster dispatcher's path in one process:
// a plan of one shard per worker, every shard run on its own goroutine,
// folded with MergeShards.
func runPlanConcurrently(m PaperModel, workers int) (sim.WorstCase, error) {
	plan, err := NewModelPlan(m, workers)
	if err != nil {
		return sim.WorstCase{}, err
	}
	results := make([]sim.WorstCase, plan.Shards())
	errs := make([]error, plan.Shards())
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = plan.RunShard(context.Background(), i)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return sim.WorstCase{}, err
	}
	return MergeShards(results), nil
}

// TestCheckpointResumeEquivalence is the acceptance criterion for
// resume: a sweep cancelled after k completed shards and rerun with
// the same checkpoint file produces a WorstCase bit-for-bit equal to
// an uninterrupted run, for every family x tier x symmetry mode. The
// resumed run must actually restore shards (not recompute from zero),
// and may replay them under a different worker count.
func TestCheckpointResumeEquivalence(t *testing.T) {
	const (
		L          = 3
		shards     = 6
		interrupt  = 2 // cancel after this many freshly computed shards
		resumeWkrs = 4
	)
	space := sim.SearchSpace{L: L, Delays: []int{0, 1}}
	for _, f := range checkpointMatrix() {
		t.Run(f.name, func(t *testing.T) {
			spec := specFor(f.g, f.ex, core.Fast{}, L)
			for _, tier := range tiersFor(spec) {
				for _, sym := range []Symmetry{SymmetryAuto, SymmetryOff, SymmetryForced} {
					m := PaperModel{Spec: spec, Space: space, Tier: tier, Symmetry: sym}
					want, err := SearchModel(m, Options{})
					if err != nil {
						t.Fatalf("tier=%v sym=%v: SearchModel: %v", tier, sym, err)
					}
					path := filepath.Join(t.TempDir(), "resume.ckpt")

					// Interrupted run: serial, cancelled as soon as
					// `interrupt` fresh shards completed.
					ctx, cancel := context.WithCancel(context.Background())
					restored := -1
					progress := func(completed, total int) {
						if restored < 0 {
							restored = completed
						}
						if completed-restored >= interrupt {
							cancel()
						}
					}
					_, err = SearchModelCheckpointed(m, Options{Workers: 1, Context: ctx},
						CheckpointConfig{Path: path, Shards: shards, Progress: progress})
					cancel()
					if err == nil {
						t.Fatalf("tier=%v sym=%v: interrupted run completed; expected cancellation", tier, sym)
					}
					if !errors.Is(err, context.Canceled) {
						t.Fatalf("tier=%v sym=%v: interrupted run: %v, want context.Canceled", tier, sym, err)
					}

					// Resumed run: fresh context, different worker count.
					resumedFrom := -1
					got, err := SearchModelCheckpointed(m, Options{Workers: resumeWkrs},
						CheckpointConfig{Path: path, Shards: shards, Progress: func(completed, total int) {
							if resumedFrom < 0 {
								resumedFrom = completed
							}
						}})
					if err != nil {
						t.Fatalf("tier=%v sym=%v: resume: %v", tier, sym, err)
					}
					if resumedFrom < interrupt {
						t.Errorf("tier=%v sym=%v: resume restored %d shards, want >= %d", tier, sym, resumedFrom, interrupt)
					}
					if got != want {
						t.Errorf("tier=%v sym=%v: resumed output diverged:\nuninterrupted: %+v\nresumed:       %+v",
							tier, sym, want, got)
					}
				}
			}
		})
	}
}

// TestCheckpointCrossTierResume pins the strongest form of the resume
// guarantee: shards checkpointed by one tier can be restored into a
// search running another tier, because all tiers are bit-for-bit
// equivalent.
func TestCheckpointCrossTierResume(t *testing.T) {
	const L = 3
	spec := specFor(graph.OrientedRing(6), explore.OrientedRingSweep{}, core.Fast{}, L)
	space := sim.SearchSpace{L: L, Delays: []int{0, 1}}
	want, err := SearchModel(PaperModel{Spec: spec, Space: space}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "crosstier.ckpt")

	ctx, cancel := context.WithCancel(context.Background())
	fresh := 0
	_, err = SearchModelCheckpointed(PaperModel{Spec: spec, Space: space, Tier: TierGeneric}, Options{Workers: 1, Context: ctx},
		CheckpointConfig{Path: path, Shards: 6, Progress: func(completed, total int) {
			fresh = completed
			if completed >= 3 {
				cancel()
			}
		}})
	cancel()
	if err == nil {
		t.Fatal("interrupted generic run completed; expected cancellation")
	}
	if fresh < 3 {
		t.Fatalf("interrupted run completed %d shards, want >= 3", fresh)
	}

	restored := -1
	got, err := SearchModelCheckpointed(PaperModel{Spec: spec, Space: space, Tier: TierRing}, Options{},
		CheckpointConfig{Path: path, Shards: 6, Progress: func(completed, total int) {
			if restored < 0 {
				restored = completed
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	if restored < 3 {
		t.Errorf("ring-tier resume restored %d generic-tier shards, want >= 3", restored)
	}
	if got != want {
		t.Errorf("cross-tier resume diverged:\nwant: %+v\ngot:  %+v", want, got)
	}
}

// TestCheckpointTableToBatchResume is the cross-tier case the batch
// tier adds: shards checkpointed by the scalar table tier restore into
// a batch-tier search (and the combined merge equals an uninterrupted
// run), because the two table executors are bit-for-bit equivalent.
func TestCheckpointTableToBatchResume(t *testing.T) {
	const L = 3
	spec := specFor(graph.Grid(3, 3), explore.DFS{}, core.Fast{}, L)
	space := sim.SearchSpace{L: L, Delays: []int{0, 1, 5}}
	want, err := SearchModel(PaperModel{Spec: spec, Space: space}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "table-to-batch.ckpt")

	ctx, cancel := context.WithCancel(context.Background())
	fresh := 0
	_, err = SearchModelCheckpointed(PaperModel{Spec: spec, Space: space, Tier: TierTable}, Options{Workers: 1, Context: ctx},
		CheckpointConfig{Path: path, Shards: 6, Progress: func(completed, total int) {
			fresh = completed
			if completed >= 3 {
				cancel()
			}
		}})
	cancel()
	if err == nil {
		t.Fatal("interrupted table run completed; expected cancellation")
	}
	if fresh < 3 {
		t.Fatalf("interrupted run completed %d shards, want >= 3", fresh)
	}

	restored := -1
	got, err := SearchModelCheckpointed(PaperModel{Spec: spec, Space: space, Tier: TierBatch}, Options{},
		CheckpointConfig{Path: path, Shards: 6, Progress: func(completed, total int) {
			if restored < 0 {
				restored = completed
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	if restored < 3 {
		t.Errorf("batch-tier resume restored %d table-tier shards, want >= 3", restored)
	}
	if got != want {
		t.Errorf("table-to-batch resume diverged:\nwant: %+v\ngot:  %+v", want, got)
	}
}

// TestCheckpointDiscardsForeignFile: a checkpoint written by a
// different search (different fingerprint) or a different shard
// decomposition must be discarded, not misread.
func TestCheckpointDiscardsForeignFile(t *testing.T) {
	const L = 3
	path := filepath.Join(t.TempDir(), "foreign.ckpt")
	space := sim.SearchSpace{L: L}

	ringSpec := specFor(graph.OrientedRing(6), explore.OrientedRingSweep{}, core.Cheap{}, L)
	if _, err := SearchModelCheckpointed(PaperModel{Spec: ringSpec, Space: space}, Options{}, CheckpointConfig{Path: path, Shards: 4}); err != nil {
		t.Fatal(err)
	}

	t.Run("different-search", func(t *testing.T) {
		pathSpec := specFor(graph.Path(5), explore.DFS{}, core.Cheap{}, L)
		want, err := SearchModel(PaperModel{Spec: pathSpec, Space: space}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		restored := -1
		got, err := SearchModelCheckpointed(PaperModel{Spec: pathSpec, Space: space}, Options{},
			CheckpointConfig{Path: path, Shards: 4, Progress: func(completed, total int) {
				if restored < 0 {
					restored = completed
				}
			}})
		if err != nil {
			t.Fatal(err)
		}
		if restored != 0 {
			t.Errorf("foreign checkpoint restored %d shards, want 0", restored)
		}
		if got != want {
			t.Errorf("result diverged after discarding foreign checkpoint:\nwant: %+v\ngot:  %+v", want, got)
		}
	})
	t.Run("different-shard-count", func(t *testing.T) {
		restored := -1
		want, err := SearchModel(PaperModel{Spec: ringSpec, Space: space}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := SearchModelCheckpointed(PaperModel{Spec: ringSpec, Space: space}, Options{},
			CheckpointConfig{Path: path, Shards: 5, Progress: func(completed, total int) {
				if restored < 0 {
					restored = completed
				}
			}})
		if err != nil {
			t.Fatal(err)
		}
		if restored != 0 {
			t.Errorf("reshaped checkpoint restored %d shards, want 0", restored)
		}
		if got != want {
			t.Errorf("result diverged after discarding reshaped checkpoint:\nwant: %+v\ngot:  %+v", want, got)
		}
	})
}

// TestCheckpointSurvivesTornWrite: garbage appended to a checkpoint (a
// crash mid-append) drops the torn tail but keeps every complete
// record.
func TestCheckpointSurvivesTornWrite(t *testing.T) {
	const L = 3
	spec := specFor(graph.OrientedRing(6), explore.OrientedRingSweep{}, core.Cheap{}, L)
	space := sim.SearchSpace{L: L}
	want, err := SearchModel(PaperModel{Spec: spec, Space: space}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "torn.ckpt")
	if _, err := SearchModelCheckpointed(PaperModel{Spec: spec, Space: space}, Options{}, CheckpointConfig{Path: path, Shards: 4}); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"shard": 17, "resu`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	restored := -1
	got, err := SearchModelCheckpointed(PaperModel{Spec: spec, Space: space}, Options{},
		CheckpointConfig{Path: path, Shards: 4, Progress: func(completed, total int) {
			if restored < 0 {
				restored = completed
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	if restored != 4 {
		t.Errorf("torn checkpoint restored %d complete shards, want 4", restored)
	}
	if got != want {
		t.Errorf("result diverged after torn write:\nwant: %+v\ngot:  %+v", want, got)
	}
}

// TestCheckpointedUnfingerprintableFallsBack: a search whose explorer
// rejects the graph has no content address to bind a checkpoint to,
// but the generic tier can still execute it (schedules that never
// explore); SearchModelCheckpointed must match SearchModel instead of
// failing on the fingerprint.
func TestCheckpointedUnfingerprintableFallsBack(t *testing.T) {
	// Eulerian rejects the star (odd degrees), but wait-only schedules
	// never invoke it, so the generic tier executes them on any graph.
	spec := Spec{
		Graph:       graph.Star(5),
		Explorer:    explore.Eulerian{},
		ScheduleFor: func(l int) sim.Schedule { return sim.Schedule{sim.SegmentWait, sim.SegmentWait} },
	}
	space := sim.SearchSpace{L: 3}
	want, err := SearchModel(PaperModel{Spec: spec, Space: space}, Options{})
	if err != nil {
		t.Fatalf("SearchModel on wait-only schedules: %v", err)
	}
	path := filepath.Join(t.TempDir(), "unfp.ckpt")
	got, err := SearchModelCheckpointed(PaperModel{Spec: spec, Space: space}, Options{}, CheckpointConfig{Path: path, Shards: 3})
	if err != nil {
		t.Fatalf("SearchModelCheckpointed: %v (want the uncheckpointed fallback)", err)
	}
	if got != want {
		t.Errorf("fallback diverged:\nSearch: %+v\nckpt:   %+v", want, got)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("a checkpoint file was written for an unfingerprintable search")
	}
}

// TestCheckpointRejectsBitRot: a shard record that still parses as
// JSON but whose bytes were damaged (checksum mismatch) must not be
// restored — the resumed run recomputes it (and everything after it)
// and still merges to the uninterrupted output.
func TestCheckpointRejectsBitRot(t *testing.T) {
	const L = 3
	spec := specFor(graph.OrientedRing(6), explore.OrientedRingSweep{}, core.Fast{}, L)
	space := sim.SearchSpace{L: L}
	want, err := SearchModel(PaperModel{Spec: spec, Space: space}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bitrot.ckpt")
	if _, err := SearchModelCheckpointed(PaperModel{Spec: spec, Space: space}, Options{}, CheckpointConfig{Path: path, Shards: 4}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a digit inside the second shard line's result payload; the
	// line stays valid JSON but its checksum no longer matches.
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != 5 { // header + 4 shards
		t.Fatalf("checkpoint has %d lines, want 5", len(lines))
	}
	rotted := strings.Replace(lines[2], `"Runs":`, `"Runs":9`, 1)
	if rotted == lines[2] {
		t.Fatal("bit rot did not apply; record layout changed?")
	}
	lines[2] = rotted
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	restored := -1
	got, err := SearchModelCheckpointed(PaperModel{Spec: spec, Space: space}, Options{},
		CheckpointConfig{Path: path, Shards: 4, Progress: func(completed, total int) {
			if restored < 0 {
				restored = completed
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	if restored != 1 {
		t.Errorf("restored %d shards, want 1 (everything from the rotted line on must recompute)", restored)
	}
	if got != want {
		t.Errorf("result diverged after bit rot:\nwant: %+v\ngot:  %+v", want, got)
	}
}

// TestCheckpointedErrorParity: invalid inputs must error out of
// SearchModelCheckpointed exactly as they do out of SearchModel.
func TestCheckpointedErrorParity(t *testing.T) {
	spec := specFor(graph.Grid(3, 3), explore.DFS{}, core.Cheap{}, 3)
	cases := []struct {
		name  string
		space sim.SearchSpace
		tier  Tier
	}{
		{"L-too-small", sim.SearchSpace{L: 1}, TierAuto},
		{"equal-starts", sim.SearchSpace{L: 3, StartPairs: [][2]int{{2, 2}}}, TierAuto},
		{"forced-ring-off-ring", sim.SearchSpace{L: 3}, TierRing},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := PaperModel{Spec: spec, Space: tc.space, Tier: tc.tier}
			_, wantErr := SearchModel(m, Options{})
			if wantErr == nil {
				t.Fatal("SearchModel unexpectedly succeeded")
			}
			_, gotErr := SearchModelCheckpointed(m, Options{}, CheckpointConfig{})
			if gotErr == nil {
				t.Fatal("SearchModelCheckpointed unexpectedly succeeded")
			}
			if gotErr.Error() != wantErr.Error() {
				t.Errorf("error diverged:\nSearchModel:             %v\nSearchModelCheckpointed: %v", wantErr, gotErr)
			}
		})
	}
}

// TestShardErrorChoice: when several shards fail, the driver reports
// the lowest failing shard's error — the serial scan's first error —
// for every worker and shard count and every goroutine schedule. The
// generic-tier grid search below fails to compile every label >= 3,
// so every shard fails at its first such label; a driver that let the
// first failure cancel lower-indexed siblings reported whichever shard
// happened to fail first.
func TestShardErrorChoice(t *testing.T) {
	const L = 6
	valid := core.Cheap{}
	m := PaperModel{
		Spec: Spec{Graph: graph.Grid(3, 3), Explorer: explore.DFS{}, ScheduleFor: func(l int) sim.Schedule {
			if l >= 3 {
				return sim.Schedule{sim.Segment(0)}
			}
			return valid.Schedule(l, core.Params{L: L})
		}},
		Space: sim.SearchSpace{L: L},
		Tier:  TierGeneric,
	}
	_, serial := SearchModel(m, Options{Workers: 1})
	if serial == nil {
		t.Fatal("serial search unexpectedly succeeded")
	}
	want := serial.Error()
	for round := 0; round < 200; round++ {
		for _, workers := range []int{1, 2, 8} {
			if _, err := SearchModel(m, Options{Workers: workers}); err == nil || err.Error() != want {
				t.Fatalf("round %d workers=%d: SearchModel err = %v, want %s", round, workers, err, want)
			}
			for _, shards := range []int{1, 2, 32} {
				_, err := SearchModelCheckpointed(m, Options{Workers: workers}, CheckpointConfig{Shards: shards})
				if err == nil || err.Error() != want {
					t.Fatalf("round %d workers=%d shards=%d: err = %v, want %s", round, workers, shards, err, want)
				}
			}
		}
	}
}

// TestSearchCached covers the caching front door: a hit is served
// verbatim from the store (provably without invoking the engine), a
// corrupt record silently recomputes and heals, and unfingerprintable
// searches fall through uncached.
func TestSearchCached(t *testing.T) {
	const L = 3
	spec := specFor(graph.OrientedRing(6), explore.OrientedRingSweep{}, core.Cheap{}, L)
	space := sim.SearchSpace{L: L}
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want, err := SearchModel(PaperModel{Spec: spec, Space: space}, Options{})
	if err != nil {
		t.Fatal(err)
	}

	got, cached, err := SearchModelCached(store, PaperModel{Spec: spec, Space: space}, Options{})
	if err != nil || cached {
		t.Fatalf("cold search: cached=%v err=%v", cached, err)
	}
	if got != want {
		t.Errorf("cold result diverged: %+v != %+v", got, want)
	}

	// Poison the store with a recognizable fake: a hit must return it
	// verbatim, which proves the engine was not consulted.
	fp, err := PaperModel{Spec: spec, Space: space}.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fake := sim.WorstCase{Time: sim.Witness{Value: 123456}, Runs: 1, AllMet: true}
	if err := store.Put(fp, fake); err != nil {
		t.Fatal(err)
	}
	got, cached, err = SearchModelCached(store, PaperModel{Spec: spec, Space: space}, Options{})
	if err != nil || !cached {
		t.Fatalf("warm search: cached=%v err=%v", cached, err)
	}
	if got != fake {
		t.Errorf("hit did not come from the store: %+v", got)
	}

	// Corrupt the record: the next SearchModelCached must silently recompute
	// the true result and heal the store.
	entries, err := store.Index()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("store has %d entries, want 1", len(entries))
	}
	recPath := filepath.Join(store.Dir(), "objects", fp[:2], fp+".json")
	if err := os.WriteFile(recPath, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, cached, err = SearchModelCached(store, PaperModel{Spec: spec, Space: space}, Options{})
	if err != nil || cached {
		t.Fatalf("post-corruption search: cached=%v err=%v", cached, err)
	}
	if got != want {
		t.Errorf("post-corruption result diverged: %+v != %+v", got, want)
	}
	if healed, ok := store.Get(fp); !ok || healed != want {
		t.Errorf("store did not heal: ok=%v %+v", ok, healed)
	}

	// nil store and unfingerprintable searches fall through to SearchModel.
	got, cached, err = SearchModelCached(nil, PaperModel{Spec: spec, Space: space}, Options{})
	if err != nil || cached || got != want {
		t.Errorf("nil store: got=%+v cached=%v err=%v", got, cached, err)
	}

	// A forced-but-inapplicable tier must error even when the store is
	// warm for the same fingerprint (the address excludes the tier, so
	// unless Fingerprint rejects the forcing a hit would mask the error
	// a cold SearchModel returns).
	offRing := specFor(graph.Path(5), explore.DFS{}, core.Cheap{}, L)
	if _, _, err := SearchModelCached(store, PaperModel{Spec: offRing, Space: space}, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, cached, err := SearchModelCached(store, PaperModel{Spec: offRing, Space: space, Tier: TierRing}, Options{}); err == nil || cached {
		t.Errorf("forced ring off the ring with a warm store: cached=%v err=%v, want the ring-eligibility error", cached, err)
	}
	if _, cached, err := SearchModelCached(store, PaperModel{Spec: offRing, Space: space, Tier: Tier(99)}, Options{}); err == nil || cached {
		t.Errorf("unknown tier with a warm store: cached=%v err=%v, want an error", cached, err)
	}
	badSpec := specFor(graph.Path(4), explore.Eulerian{}, core.Cheap{}, L)
	if _, cached, err := SearchModelCached(store, PaperModel{Spec: badSpec, Space: space}, Options{}); err == nil || cached {
		t.Errorf("unfingerprintable search: cached=%v err=%v, want engine error", cached, err)
	}
}

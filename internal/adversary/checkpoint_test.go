package adversary

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
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

// TestCheckpointedEquivalenceSweep pins the tentpole guarantee for
// uninterrupted runs: SearchCheckpointed (with and without a
// checkpoint file) returns a WorstCase bit-for-bit equal to Search,
// for every family x tier x symmetry mode in the sweep matrix and for
// serial and parallel worker counts.
func TestCheckpointedEquivalenceSweep(t *testing.T) {
	const L = 3
	space := sim.SearchSpace{L: L, Delays: []int{0, 1}}
	for _, f := range checkpointMatrix() {
		t.Run(f.name, func(t *testing.T) {
			spec := specFor(f.g, f.ex, core.Cheap{}, L)
			for _, tier := range tiersFor(spec) {
				for _, sym := range []Symmetry{SymmetryAuto, SymmetryOff, SymmetryForced} {
					opts := Options{Tier: tier, Symmetry: sym}
					want, err := Search(spec, space, opts)
					if err != nil {
						t.Fatalf("tier=%v sym=%v: Search: %v", tier, sym, err)
					}
					for _, workers := range []int{1, 4} {
						opts.Workers = workers
						got, err := SearchCheckpointed(spec, space, opts, CheckpointConfig{Shards: 5})
						if err != nil {
							t.Fatalf("tier=%v sym=%v workers=%d: %v", tier, sym, workers, err)
						}
						if got != want {
							t.Errorf("tier=%v sym=%v workers=%d diverged:\nsearch: %+v\nckpt:   %+v",
								tier, sym, workers, want, got)
						}
					}
					path := filepath.Join(t.TempDir(), "sweep.ckpt")
					got, err := SearchCheckpointed(spec, space, opts, CheckpointConfig{Path: path, Shards: 5})
					if err != nil {
						t.Fatalf("tier=%v sym=%v with file: %v", tier, sym, err)
					}
					if got != want {
						t.Errorf("tier=%v sym=%v with file diverged:\nsearch: %+v\nckpt:   %+v", tier, sym, want, got)
					}
				}
			}
		})
	}
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
					want, err := Search(spec, space, Options{Tier: tier, Symmetry: sym})
					if err != nil {
						t.Fatalf("tier=%v sym=%v: Search: %v", tier, sym, err)
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
					_, err = SearchCheckpointed(spec, space,
						Options{Tier: tier, Symmetry: sym, Workers: 1, Context: ctx},
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
					got, err := SearchCheckpointed(spec, space,
						Options{Tier: tier, Symmetry: sym, Workers: resumeWkrs},
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
	want, err := Search(spec, space, Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "crosstier.ckpt")

	ctx, cancel := context.WithCancel(context.Background())
	fresh := 0
	_, err = SearchCheckpointed(spec, space, Options{Tier: TierGeneric, Workers: 1, Context: ctx},
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
	got, err := SearchCheckpointed(spec, space, Options{Tier: TierRing},
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
	want, err := Search(spec, space, Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "table-to-batch.ckpt")

	ctx, cancel := context.WithCancel(context.Background())
	fresh := 0
	_, err = SearchCheckpointed(spec, space, Options{Tier: TierTable, Workers: 1, Context: ctx},
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
	got, err := SearchCheckpointed(spec, space, Options{Tier: TierBatch},
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
	if _, err := SearchCheckpointed(ringSpec, space, Options{}, CheckpointConfig{Path: path, Shards: 4}); err != nil {
		t.Fatal(err)
	}

	t.Run("different-search", func(t *testing.T) {
		pathSpec := specFor(graph.Path(5), explore.DFS{}, core.Cheap{}, L)
		want, err := Search(pathSpec, space, Options{})
		if err != nil {
			t.Fatal(err)
		}
		restored := -1
		got, err := SearchCheckpointed(pathSpec, space, Options{},
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
		want, err := Search(ringSpec, space, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := SearchCheckpointed(ringSpec, space, Options{},
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
	want, err := Search(spec, space, Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "torn.ckpt")
	if _, err := SearchCheckpointed(spec, space, Options{}, CheckpointConfig{Path: path, Shards: 4}); err != nil {
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
	got, err := SearchCheckpointed(spec, space, Options{},
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
// explore); SearchCheckpointed must match Search instead of failing
// on the fingerprint.
func TestCheckpointedUnfingerprintableFallsBack(t *testing.T) {
	// Eulerian rejects the star (odd degrees), but wait-only schedules
	// never invoke it, so the generic tier executes them on any graph.
	spec := Spec{
		Graph:       graph.Star(5),
		Explorer:    explore.Eulerian{},
		ScheduleFor: func(l int) sim.Schedule { return sim.Schedule{sim.SegmentWait, sim.SegmentWait} },
	}
	space := sim.SearchSpace{L: 3}
	want, err := Search(spec, space, Options{})
	if err != nil {
		t.Fatalf("Search on wait-only schedules: %v", err)
	}
	path := filepath.Join(t.TempDir(), "unfp.ckpt")
	got, err := SearchCheckpointed(spec, space, Options{}, CheckpointConfig{Path: path, Shards: 3})
	if err != nil {
		t.Fatalf("SearchCheckpointed: %v (want the uncheckpointed fallback)", err)
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
	want, err := Search(spec, space, Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bitrot.ckpt")
	if _, err := SearchCheckpointed(spec, space, Options{}, CheckpointConfig{Path: path, Shards: 4}); err != nil {
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
	got, err := SearchCheckpointed(spec, space, Options{},
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
// SearchCheckpointed exactly as they do out of Search.
func TestCheckpointedErrorParity(t *testing.T) {
	spec := specFor(graph.Grid(3, 3), explore.DFS{}, core.Cheap{}, 3)
	cases := []struct {
		name  string
		space sim.SearchSpace
		opts  Options
	}{
		{"L-too-small", sim.SearchSpace{L: 1}, Options{}},
		{"equal-starts", sim.SearchSpace{L: 3, StartPairs: [][2]int{{2, 2}}}, Options{}},
		{"forced-ring-off-ring", sim.SearchSpace{L: 3}, Options{Tier: TierRing}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, wantErr := Search(spec, tc.space, tc.opts)
			if wantErr == nil {
				t.Fatal("Search unexpectedly succeeded")
			}
			_, gotErr := SearchCheckpointed(spec, tc.space, tc.opts, CheckpointConfig{})
			if gotErr == nil {
				t.Fatal("SearchCheckpointed unexpectedly succeeded")
			}
			if gotErr.Error() != wantErr.Error() {
				t.Errorf("error diverged:\nSearch:             %v\nSearchCheckpointed: %v", wantErr, gotErr)
			}
		})
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
	want, err := Search(spec, space, Options{})
	if err != nil {
		t.Fatal(err)
	}

	got, cached, err := SearchCached(store, spec, space, Options{})
	if err != nil || cached {
		t.Fatalf("cold search: cached=%v err=%v", cached, err)
	}
	if got != want {
		t.Errorf("cold result diverged: %+v != %+v", got, want)
	}

	// Poison the store with a recognizable fake: a hit must return it
	// verbatim, which proves the engine was not consulted.
	fp, err := Fingerprint(spec, space, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fake := sim.WorstCase{Time: sim.Witness{Value: 123456}, Runs: 1, AllMet: true}
	if err := store.Put(fp, fake); err != nil {
		t.Fatal(err)
	}
	got, cached, err = SearchCached(store, spec, space, Options{})
	if err != nil || !cached {
		t.Fatalf("warm search: cached=%v err=%v", cached, err)
	}
	if got != fake {
		t.Errorf("hit did not come from the store: %+v", got)
	}

	// Corrupt the record: the next SearchCached must silently recompute
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
	got, cached, err = SearchCached(store, spec, space, Options{})
	if err != nil || cached {
		t.Fatalf("post-corruption search: cached=%v err=%v", cached, err)
	}
	if got != want {
		t.Errorf("post-corruption result diverged: %+v != %+v", got, want)
	}
	if healed, ok := store.Get(fp); !ok || healed != want {
		t.Errorf("store did not heal: ok=%v %+v", ok, healed)
	}

	// nil store and unfingerprintable searches fall through to Search.
	got, cached, err = SearchCached(nil, spec, space, Options{})
	if err != nil || cached || got != want {
		t.Errorf("nil store: got=%+v cached=%v err=%v", got, cached, err)
	}

	// A forced-but-inapplicable tier must error even when the store is
	// warm for the same fingerprint (the address excludes the tier, so
	// unless Fingerprint rejects the forcing a hit would mask the error
	// a cold Search returns).
	offRing := specFor(graph.Path(5), explore.DFS{}, core.Cheap{}, L)
	if _, _, err := SearchCached(store, offRing, space, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, cached, err := SearchCached(store, offRing, space, Options{Tier: TierRing}); err == nil || cached {
		t.Errorf("forced ring off the ring with a warm store: cached=%v err=%v, want the ring-eligibility error", cached, err)
	}
	if _, cached, err := SearchCached(store, offRing, space, Options{Tier: Tier(99)}); err == nil || cached {
		t.Errorf("unknown tier with a warm store: cached=%v err=%v, want an error", cached, err)
	}
	badSpec := specFor(graph.Path(4), explore.Eulerian{}, core.Cheap{}, L)
	if _, cached, err := SearchCached(store, badSpec, space, Options{}); err == nil || cached {
		t.Errorf("unfingerprintable search: cached=%v err=%v, want engine error", cached, err)
	}
}

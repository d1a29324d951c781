package adversary

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"rendezvous/internal/meetoracle"
	"rendezvous/internal/model"
	"rendezvous/internal/sim"
)

// This file is the engine's one fan-out driver and its checkpoint/
// resume layer. The key to resuming with bit-for-bit identical output
// is that a checkpointed search's shard decomposition is fixed by the
// space alone — never by the worker count — and that the per-shard
// results are folded in shard order with the strictly-greater Merge: a
// merge over any contiguous in-order partition of the enumeration
// yields exactly the serial scan's witnesses, so it cannot matter which
// shards were replayed from the checkpoint file and which were
// recomputed (or by which tier, since all tiers are bit-for-bit
// equivalent), nor how many shards a plain SearchModel cut.

// DefaultCheckpointShards is the shard count a checkpointed search
// aims for when CheckpointConfig.Shards is zero: granular enough that
// an interrupted sweep loses at most a few percent of its work, small
// enough that the checkpoint file stays tiny.
const DefaultCheckpointShards = 32

// checkpointVersion versions the checkpoint file format.
const checkpointVersion = 1

// CheckpointConfig tunes SearchModelCheckpointed. The zero value runs a
// plain (unpersisted) sharded search with optional progress reporting.
type CheckpointConfig struct {
	// Path is the checkpoint file. Completed shards are appended to it
	// as they finish, and a later run with the same search resumes from
	// them. Empty disables persistence (Progress still fires).
	Path string
	// Shards overrides the shard count (0 = DefaultCheckpointShards,
	// clamped to the number of label pairs). A checkpoint written with
	// a different shard count is discarded on resume, never misread.
	Shards int
	// Fingerprint, when non-empty, is the search's precomputed content
	// address (the model's Fingerprint), saving the recomputation when
	// the caller already derived it (e.g. to name the checkpoint file).
	// It must be the fingerprint of this very search: a wrong value
	// would make resume discard or, worse, restore a foreign
	// checkpoint. Empty means compute it here.
	Fingerprint string
	// Progress, when non-nil, is called after every completed shard
	// with the number of completed shards (including ones restored from
	// the checkpoint, reported once up front) and the total. Calls are
	// serialized; the callback must not block for long.
	Progress func(completed, total int)
	// Observer receives stage-boundary events (plan ready, per-shard
	// start/finish, checkpoint appends, merge) for tracing. Like
	// Progress it lives here rather than in Options, so observation can
	// never perturb the search fingerprint. The zero value observes
	// nothing.
	Observer SearchObserver
}

// searchPlan is a search lowered to shard form: the expanded
// (symmetry-reduced) enumeration plus a sweep function that executes
// one contiguous slice of label pairs on the dispatched tier. sweep is
// safe for concurrent calls on any shards.
type searchPlan struct {
	labelPairs [][2]int
	startPairs [][2]int
	delays     []int
	// tier is the executor the sweep dispatches to, after auto
	// selection and degenerate-space fallbacks; oracle is the shared
	// read-only meeting-table oracle when tier is TierTable or
	// TierBatch (nil otherwise). Tests use both to pin dispatch
	// decisions and the prepared-before-fan-out contract.
	tier   Tier
	oracle *meetoracle.Oracle
	sweep  func(ctx context.Context, shard [][2]int) (sim.WorstCase, error)
}

// newSearchPlan is the engine's one tier-dispatch implementation (the
// paper model's compiler): symmetry reduction, then ring/table/generic
// tier selection with the degenerate-space fallbacks, returning the
// per-shard executor instead of running it.
func newSearchPlan(m PaperModel) (*searchPlan, error) {
	spec := m.Spec
	reduced, err := reduceSpace(spec, m.Space, m.Symmetry)
	if err != nil {
		return nil, err
	}
	// Forced-tier errors take precedence over space expansion errors
	// (under SymmetryOff; the reduction expands the space first).
	if err := m.checkTier(); err != nil {
		return nil, err
	}
	tier := m.Tier
	n := spec.Graph.N()
	labelPairs, startPairs, delays, err := reduced.Expand(n)
	if err != nil {
		return nil, err
	}
	plan := &searchPlan{labelPairs: labelPairs, startPairs: startPairs, delays: delays}

	forced := tier != TierAuto
	if tier == TierAuto {
		if spec.FastPathEligible() {
			tier = TierRing
		} else {
			// The auto decision among the table tiers and generic: batch
			// when the start-pair × delay product is dense enough to fill
			// its 64 lanes and the batch tables fit the budget, else the
			// scalar table scan if its (smaller) tables fit, else generic.
			budget := m.tableBudget()
			e := spec.Explorer.Duration(spec.Graph)
			tier = TierGeneric
			if budget >= 0 && n > 0 && e > 0 && !tableDegenerate(n, startPairs, delays) {
				phases := len(meetoracle.Phases(e, delays))
				switch {
				case len(startPairs)*len(delays) >= batchAutoMinConfigs &&
					meetoracle.EstimateBatchBytes(n, e, phases, len(delays)) <= budget:
					tier = TierBatch
				case meetoracle.EstimateBytes(n, e, phases) <= budget:
					tier = TierTable
				}
			}
		}
	}
	switch tier {
	case TierRing:
		if tableDegenerate(n, startPairs, delays) {
			tier = TierGeneric
			break
		}
		plan.tier = TierRing
		plan.sweep = func(ctx context.Context, shard [][2]int) (sim.WorstCase, error) {
			return ringShard(ctx, n, spec.ScheduleFor, shard, startPairs, delays)
		}
		return plan, nil
	case TierTable, TierBatch:
		if tableDegenerate(n, startPairs, delays) {
			tier = TierGeneric
			break
		}
		oracle, oerr := meetoracle.New(spec.Graph, spec.Explorer)
		if oerr != nil {
			if !forced {
				tier = TierGeneric
				break
			}
			name := "TierTable"
			if tier == TierBatch {
				name = "TierBatch"
			}
			return nil, fmt.Errorf("adversary: %s forced: %w", name, oerr)
		}
		compiled, cerr := precompile(oracle, spec.ScheduleFor, labelPairs, startPairs)
		if cerr != nil {
			return nil, cerr
		}
		plan.tier = tier
		plan.oracle = oracle
		if tier == TierBatch {
			oracle.PrepareBatch(delays)
			plan.sweep = func(ctx context.Context, shard [][2]int) (sim.WorstCase, error) {
				return batchShard(ctx, oracle, compiled, shard, startPairs, delays)
			}
		} else {
			oracle.Prepare(delays)
			plan.sweep = func(ctx context.Context, shard [][2]int) (sim.WorstCase, error) {
				return tableShard(ctx, oracle, compiled, shard, startPairs, delays)
			}
		}
		return plan, nil
	}
	// TierGeneric (explicit or by fallback): every shard sweep gets its
	// own clone of the trajectory cache.
	plan.tier = TierGeneric
	tc := sim.NewTrajectories(spec.Graph, spec.Explorer, spec.ScheduleFor)
	plan.sweep = func(ctx context.Context, shard [][2]int) (sim.WorstCase, error) {
		return sim.Search(ctx, tc.Clone(), sim.SearchSpace{LabelPairs: shard, StartPairs: startPairs, Delays: delays})
	}
	return plan, nil
}

// resolveShardCount clamps the configured shard count to [1, pairs]
// (with at least one shard so an empty space still sweeps once, like
// the plain search).
func resolveShardCount(pairs, requested int) int {
	shards := requested
	if shards <= 0 {
		shards = DefaultCheckpointShards
	}
	if shards > pairs {
		shards = pairs
	}
	if shards < 1 {
		shards = 1
	}
	return shards
}

// shardBounds returns the half-open label-pair range of shard i of
// num: the contiguous split every driver and cluster peer shares.
func shardBounds(pairs, num, i int) (lo, hi int) {
	return i * pairs / num, (i + 1) * pairs / num
}

// ckptHeader is the first line of a checkpoint file. Fingerprint
// binds the file to one search configuration (via the resultstore's
// canonical fingerprint) and Shards to one shard decomposition; a
// mismatch on either discards the file, so a checkpoint can never
// leak results into a different search.
type ckptHeader struct {
	Version     int    `json:"version"`
	Fingerprint string `json:"fingerprint"`
	Shards      int    `json:"shards"`
}

// ckptShard is one completed-shard line of a checkpoint file.
// Checksum guards the record the same way resultstore guards its
// records: a bit-rotted line that still parses as JSON must not be
// restored, or the resumed merge would silently diverge from an
// uninterrupted run.
type ckptShard struct {
	Shard    int           `json:"shard"`
	Result   sim.WorstCase `json:"result"`
	Checksum string        `json:"checksum"`
}

// checksum returns the record's integrity hash: SHA-256 over the
// canonical JSON encoding with the Checksum field blanked.
func (r ckptShard) checksum() string {
	r.Checksum = ""
	data, err := json.Marshal(r)
	if err != nil {
		// ckptShard contains only marshalable fields; this cannot happen.
		panic(fmt.Sprintf("adversary: marshal checkpoint record: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// stamped returns the record with its checksum filled in.
func (r ckptShard) stamped() ckptShard {
	r.Checksum = r.checksum()
	return r
}

// loadCheckpoint reads the completed-shard records of a checkpoint
// file. Every failure mode — missing file, foreign header, truncated
// or garbled line (a crash mid-append) — degrades to fewer restored
// shards, never an error; a torn trailing line drops only itself and
// anything after it.
func loadCheckpoint(path, fingerprint string, shards int) map[int]sim.WorstCase {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	lines := bytes.Split(data, []byte("\n"))
	if len(lines) == 0 {
		return nil
	}
	var hdr ckptHeader
	if err := json.Unmarshal(lines[0], &hdr); err != nil {
		return nil
	}
	if hdr.Version != checkpointVersion || hdr.Fingerprint != fingerprint || hdr.Shards != shards {
		return nil
	}
	done := make(map[int]sim.WorstCase)
	for _, line := range lines[1:] {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec ckptShard
		if err := json.Unmarshal(line, &rec); err != nil {
			break // torn write: drop this line and everything after it
		}
		if rec.Checksum == "" || rec.Checksum != rec.checksum() {
			break // bit rot: a damaged record must recompute, not restore
		}
		if rec.Shard >= 0 && rec.Shard < shards {
			done[rec.Shard] = rec.Result
		}
	}
	return done
}

// checkpointWriter appends completed-shard records to the checkpoint
// file, syncing after every record so a crash loses at most the shard
// being written (whose torn line the loader drops).
type checkpointWriter struct {
	mu sync.Mutex
	f  *os.File
}

// newCheckpointWriter (re)initializes the checkpoint file: it writes
// a fresh header plus the restored shard records to a temp file,
// renames it into place (dropping any garbage the old file carried),
// and returns a writer appending to it.
func newCheckpointWriter(path, fingerprint string, shards int, done map[int]sim.WorstCase) (*checkpointWriter, error) {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("adversary: checkpoint: %w", err)
		}
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".ckpt-*")
	if err != nil {
		return nil, fmt.Errorf("adversary: checkpoint: %w", err)
	}
	enc := json.NewEncoder(tmp)
	werr := enc.Encode(ckptHeader{Version: checkpointVersion, Fingerprint: fingerprint, Shards: shards})
	idxs := make([]int, 0, len(done))
	for i := range done {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		if werr == nil {
			werr = enc.Encode(ckptShard{Shard: i, Result: done[i]}.stamped())
		}
	}
	if werr == nil {
		werr = tmp.Sync()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), path)
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return nil, fmt.Errorf("adversary: checkpoint %s: %w", path, werr)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("adversary: checkpoint %s: %w", path, err)
	}
	return &checkpointWriter{f: f}, nil
}

func (w *checkpointWriter) record(shard int, wc sim.WorstCase) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := json.NewEncoder(w.f).Encode(ckptShard{Shard: shard, Result: wc}.stamped()); err != nil {
		return fmt.Errorf("adversary: checkpoint: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("adversary: checkpoint: %w", err)
	}
	return nil
}

func (w *checkpointWriter) close() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.f.Close()
}

// SearchModelCheckpointed is SearchModel with shard-granular
// checkpoint/resume: the label-pair space is split into a fixed number
// of contiguous shards (cfg.Shards, independent of the worker count),
// each completed shard's result is appended to cfg.Path as it
// finishes, and a rerun of the same search resumes from the completed
// shards. The merged output — values, witnesses, Runs, AllMet — is
// bit-for-bit identical to an uninterrupted SearchModel for every
// worker count, every interruption point, and every tier/symmetry
// combination (a resumed shard may even be replayed by a different
// tier than the one that computed it, since all tiers are equivalent).
// The checkpoint file is bound to the model's own fingerprint (its own
// domain salt), so checkpoints of different models can never be
// misread for each other; a file whose fingerprint, shard count or
// format does not match the current search is discarded, not misread.
//
// On cancellation the search returns the context's error and the
// checkpoint keeps every completed shard; the caller retries with the
// same arguments to resume. A search that cannot be fingerprinted
// (its explorer rejects the graph, so there is no content address to
// bind a checkpoint to) runs without persistence, exactly as
// SearchModel would run it.
func SearchModelCheckpointed(m model.Model, opts Options, cfg CheckpointConfig) (sim.WorstCase, error) {
	plan, err := NewModelPlan(m, cfg.Shards)
	if err != nil {
		return sim.WorstCase{}, err
	}
	return runPlan(m, plan, opts, cfg)
}

// runPlan is the engine's one fan-out driver. It restores the shards
// cfg's checkpoint holds, sweeps the rest on a pool of resolved-worker
// goroutines that take shards in index order, and folds every shard's
// result in shard order. Once a shard fails no new shard starts and
// running higher-indexed shards are cancelled, while lower-indexed ones
// run to completion: the reported error is then always the lowest
// failing shard's — the serial scan's first error — however the shards
// were scheduled.
func runPlan(m model.Model, plan *Plan, opts Options, cfg CheckpointConfig) (sim.WorstCase, error) {
	num := plan.Shards()
	obs := cfg.Observer
	if obs.PlanReady != nil {
		obs.PlanReady(plan.Info())
	}

	var done map[int]sim.WorstCase
	var writer *checkpointWriter
	if cfg.Path != "" {
		fp := cfg.Fingerprint
		var err error
		if fp == "" {
			if fp, err = m.Fingerprint(); err != nil {
				// Unfingerprintable searches (an explorer that rejects the
				// graph) cannot be bound to a checkpoint file, but the
				// generic tier may still execute them (schedules that never
				// explore); run without persistence, exactly as
				// SearchModelCached runs them without the store.
				cfg.Path = ""
				fp = ""
			}
		}
		if cfg.Path != "" {
			done = loadCheckpoint(cfg.Path, fp, num)
			writer, err = newCheckpointWriter(cfg.Path, fp, num, done)
			if err != nil {
				return sim.WorstCase{}, err
			}
			defer writer.close()
		}
	}

	results := make([]sim.WorstCase, num)
	var todo []int
	for i := 0; i < num; i++ {
		if wc, ok := done[i]; ok {
			results[i] = wc
		} else {
			todo = append(todo, i)
		}
	}
	completed := num - len(todo)
	if obs.ShardsRestored != nil {
		obs.ShardsRestored(completed, num)
	}
	if cfg.Progress != nil {
		cfg.Progress(completed, num)
	}

	if len(todo) > 0 {
		parent := opts.Context
		if parent == nil {
			parent = context.Background()
		}
		var (
			mu       sync.Mutex
			next     int
			failed   = -1 // lowest failing shard; -1 while none has failed
			firstErr error
			cancels  = make([]context.CancelFunc, num) // of running shards
		)
		var wg sync.WaitGroup
		for range opts.resolveWorkers(len(todo)) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					mu.Lock()
					if next >= len(todo) || failed >= 0 {
						mu.Unlock()
						return
					}
					i := todo[next]
					next++
					ctx, cancel := context.WithCancel(parent)
					cancels[i] = cancel
					mu.Unlock()

					if obs.ShardStarted != nil {
						obs.ShardStarted(i, num)
					}
					wc, err := plan.RunShard(ctx, i)
					if obs.ShardFinished != nil {
						runs := wc.Runs
						if err != nil {
							runs = 0
						}
						obs.ShardFinished(i, num, runs, err)
					}
					if err == nil && writer != nil {
						if obs.CheckpointAppendStarted != nil {
							obs.CheckpointAppendStarted(i)
						}
						err = writer.record(i, wc)
						if obs.CheckpointAppendFinished != nil {
							obs.CheckpointAppendFinished(i, err)
						}
					}
					mu.Lock()
					cancels[i] = nil
					cancel()
					if err != nil {
						if failed < 0 || i < failed {
							failed, firstErr = i, err
							// Shards above the failure cannot change the
							// reported error; shards below it still can.
							for _, c := range cancels[i+1:] {
								if c != nil {
									c()
								}
							}
						}
					} else {
						results[i] = wc
						completed++
						if cfg.Progress != nil {
							cfg.Progress(completed, num)
						}
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()

		if err := parent.Err(); err != nil {
			return sim.WorstCase{}, err
		}
		if failed >= 0 {
			return sim.WorstCase{}, firstErr
		}
	}

	if obs.MergeStarted != nil {
		obs.MergeStarted(num)
	}
	merged := MergeShards(results)
	if obs.MergeFinished != nil {
		obs.MergeFinished()
	}
	return merged, nil
}

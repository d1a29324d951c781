package adversary

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"rendezvous/internal/meetoracle"
	"rendezvous/internal/model"
	"rendezvous/internal/resultstore"
	"rendezvous/internal/sim"
	"rendezvous/internal/trace"
)

// This file is the engine's one fan-out driver and its checkpoint/
// resume layer. The key to resuming with bit-for-bit identical output
// is that a checkpointed search's shard decomposition is fixed by the
// space alone — never by the worker count — and that the per-shard
// results are folded in shard order with the strictly-greater Merge: a
// merge over any contiguous in-order partition of the enumeration
// yields exactly the serial scan's witnesses, so it cannot matter which
// shards were restored from the result store and which were recomputed
// (or by which tier, since all tiers are bit-for-bit equivalent), nor
// how many shards a plain SearchModel cut.

// DefaultCheckpointShards is the shard count a checkpointed search
// aims for when CheckpointConfig.Shards is zero: granular enough that
// an interrupted sweep loses at most a few percent of its work, small
// enough that it writes only a few dozen store records.
const DefaultCheckpointShards = 32

// CheckpointConfig tunes SearchModelCheckpointed. The zero value runs a
// plain (unpersisted) sharded search with optional progress reporting.
type CheckpointConfig struct {
	// Path is a result-store directory (resultstore.Open). Each
	// completed shard is Put there as a record keyed by its
	// ShardFingerprint as it finishes, and a later run with the same
	// search and shard count restores those records instead of
	// recomputing them. Empty disables persistence (Progress still
	// fires).
	Path string
	// Shards overrides the shard count (0 = DefaultCheckpointShards,
	// clamped to the number of label pairs). The count is part of every
	// shard's key, so records of another decomposition are never read.
	Shards int
	// Progress, when non-nil, is called once up front with the number
	// of shards restored from the store (possibly zero) and the total,
	// then after every completed shard with the running count. Calls
	// are serialized; the callback must not block for long.
	Progress func(completed, total int)
}

// newSearchPlan is the engine's one tier-dispatch implementation (the
// paper model's compiler): space expansion, symmetry reduction, then
// ring/batch/table/generic tier selection, returning the per-shard
// executor instead of running it. A forced tier runs on that tier or
// errors. The plan it returns has no shard count yet;
// PaperModel.Compile lowers it onto the model contract, and
// NewModelPlan fixes the decomposition.
func newSearchPlan(m PaperModel) (*Plan, error) {
	// Forced-tier errors take precedence over space errors, in the
	// order Fingerprint reports them.
	if err := m.checkTier(); err != nil {
		return nil, err
	}
	spec := m.Spec
	n := spec.Graph.N()
	labelPairs, startPairs, delays, err := m.Space.Expand(n)
	if err != nil {
		return nil, err
	}
	if startPairs, err = reduceStarts(spec.Graph, startPairs, m.Symmetry); err != nil {
		return nil, err
	}
	plan := &Plan{labelPairs: labelPairs, startPairs: startPairs, delays: delays}

	tier := m.Tier
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
			if budget >= 0 && n > 0 && e > 0 {
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
		plan.tier = TierRing
		plan.sweep = func(ctx context.Context, shard [][2]int) (sim.WorstCase, error) {
			return ringShard(ctx, n, spec.ScheduleFor, shard, startPairs, delays)
		}
		return plan, nil
	case TierTable, TierBatch:
		oracle, oerr := meetoracle.New(spec.Graph, spec.Explorer)
		if oerr != nil {
			if m.Tier == TierAuto {
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
	// TierGeneric, forced or chosen by TierAuto: every shard sweeps the
	// plan's slices through a trajectory cache of its own.
	plan.tier = TierGeneric
	plan.sweep = func(ctx context.Context, shard [][2]int) (sim.WorstCase, error) {
		tc := sim.NewTrajectories(spec.Graph, spec.Explorer, spec.ScheduleFor)
		return sim.Sweep(ctx, shard, startPairs, delays, func(label, start, _ int) (sim.Trajectory, error) {
			return tc.Get(label, start)
		})
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

// ShardFingerprint returns the store key of one shard's partial
// result: the search fingerprint bound to the shard's position in the
// fixed decomposition. A checkpointed search, the cluster coordinator
// and its workers all store shard results under this key, so a
// resumed, re-dispatched or re-requested shard is answered without
// recomputation.
func ShardFingerprint(fingerprint string, shard, shards int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("shard\x00%s\x00%d\x00%d", fingerprint, shard, shards)))
	return hex.EncodeToString(sum[:])
}

// SearchModelCheckpointed is SearchModel with shard-granular
// checkpoint/resume: the label-pair space is split into a fixed number
// of contiguous shards (cfg.Shards, independent of the worker count),
// each completed shard's result is Put into the result store at
// cfg.Path as it finishes, and a rerun of the same search resumes from
// the stored shards. The merged output — values, witnesses, Runs,
// AllMet — is bit-for-bit identical to an uninterrupted SearchModel
// for every worker count, every interruption point, and every
// tier/symmetry combination (a resumed shard may even be replayed by a
// different tier than the one that computed it, since all tiers are
// equivalent). Shard records are keyed by ShardFingerprint over the
// model's own fingerprint (its own domain salt) and the shard count,
// so another model's, another search's or another decomposition's
// records are never read; a damaged record reads as a miss and that
// shard alone recomputes.
//
// On cancellation the search returns the context's error and the store
// keeps every completed shard; the caller retries with the same
// arguments to resume. The records stay in the store after a completed
// search, for the caller to keep or Delete. A search that cannot be
// fingerprinted (its explorer rejects the graph, so there is no content
// address to key records by) runs without persistence, exactly as
// SearchModel would run it, and leaves cfg.Path untouched.
func SearchModelCheckpointed(m model.Model, opts Options, cfg CheckpointConfig) (sim.WorstCase, error) {
	span := trace.StartLeaf(opts.Context, "plan")
	plan, err := NewModelPlan(m, cfg.Shards)
	if err == nil && span != nil {
		info := plan.Info()
		span.SetAttr(
			trace.String("tier", info.Tier.String()),
			trace.Int("shards", info.Shards),
			trace.Int("labelPairs", info.LabelPairs),
			trace.Int("startPairs", info.StartPairs),
			trace.Int("delays", info.Delays),
		)
	}
	span.End()
	if err != nil {
		return sim.WorstCase{}, err
	}
	return runPlan(m, plan, opts, cfg)
}

// endSpan ends an engine span, recording err, if any, as its "error"
// attribute.
func endSpan(span *trace.Span, err error) {
	if err != nil {
		span.SetAttr(trace.String("error", err.Error()))
	}
	span.End()
}

// runPlan is the engine's one fan-out driver. It restores the shards
// cfg's store holds, sweeps the rest on a pool of resolved-worker
// goroutines that take shards in index order, and folds every shard's
// result in shard order. Once a shard fails no new shard starts and
// running higher-indexed shards are cancelled, while lower-indexed ones
// run to completion: the reported error is then always the lowest
// failing shard's — the serial scan's first error — however the shards
// were scheduled. A failed shard-record Put fails its shard.
//
// Under a traced opts.Context every executed shard gets its
// "shard.exec" span from RunShard, and every shard-record Put a
// "store.put" span and the final fold a "merge" span, all children of
// the context's span.
func runPlan(m model.Model, plan *Plan, opts Options, cfg CheckpointConfig) (sim.WorstCase, error) {
	num := plan.Shards()
	parent := opts.Context
	if parent == nil {
		parent = context.Background()
	}
	// Looked up once, so an untraced search builds no per-shard
	// store.put attributes.
	traced := trace.FromContext(parent) != nil

	// Fingerprint before opening the store, so a search without a
	// content address creates nothing at cfg.Path. Unfingerprintable
	// searches (an explorer that rejects the graph) may still execute
	// on the generic tier (schedules that never explore); they run
	// without persistence, exactly as SearchModelCached runs them
	// without the store.
	var store *resultstore.Store
	var fp string
	if cfg.Path != "" {
		if f, err := m.Fingerprint(); err == nil {
			fp = f
			if store, err = resultstore.Open(cfg.Path); err != nil {
				return sim.WorstCase{}, fmt.Errorf("adversary: checkpoint: %w", err)
			}
		}
	}

	results := make([]sim.WorstCase, num)
	var todo []int
	for i := 0; i < num; i++ {
		if store != nil {
			if wc, ok := store.Get(ShardFingerprint(fp, i, num)); ok {
				results[i] = wc
				continue
			}
		}
		todo = append(todo, i)
	}
	completed := num - len(todo)
	if cfg.Progress != nil {
		cfg.Progress(completed, num)
	}

	if len(todo) > 0 {
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

					wc, err := plan.RunShard(ctx, i)
					if err == nil && store != nil {
						var put *trace.Span
						if traced {
							put = trace.StartLeaf(parent, "store.put", trace.Int("shard", i))
						}
						err = store.Put(ShardFingerprint(fp, i, num), wc)
						endSpan(put, err)
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

	span := trace.StartLeaf(parent, "merge", trace.Int("shards", num))
	merged := MergeShards(results)
	span.End()
	return merged, nil
}

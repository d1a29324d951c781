package adversary

import (
	"context"
	"fmt"

	"rendezvous/internal/sim"
)

// This file exports the engine's fixed shard decomposition as a
// reusable execution substrate. The contract — shards fixed by the
// space and the requested count alone (never the worker count), each
// shard executable independently on the dispatched tier, results
// folded in shard order with the strictly-greater merge — is the one
// the in-process driver (SearchModel, SearchModelCheckpointed) runs
// on, and the distributed dispatcher (internal/cluster) is built on
// exactly the same contract: any two processes that compile the same
// search with the same shard count derive identical shard boundaries,
// so shards can be computed anywhere (another goroutine, another
// process, another machine) and merged bit-for-bit identically to a
// local SearchModel.

// Plan is a search lowered onto its fixed shard decomposition: an
// expanded (symmetry-reduced) enumeration, the dispatched tier
// executor, and a shard count clamped to the label-pair space.
// NewModelPlan builds one. A Plan is immutable once built;
// RunShard is safe for concurrent calls on any shards (including the
// same shard twice — shard execution is deterministic and side-effect
// free).
type Plan struct {
	plan   *searchPlan
	shards int
}

// Shards returns the plan's fixed shard count (>= 1; an empty space
// still has one shard that sweeps nothing, like the plain search).
func (p *Plan) Shards() int { return p.shards }

// LabelPairs returns the size of the plan's expanded label-pair
// enumeration — the space the shards partition.
func (p *Plan) LabelPairs() int { return len(p.plan.labelPairs) }

// PlanInfo describes a compiled plan's fixed decomposition — what the
// engine's "plan" span records about a search before any shard runs.
type PlanInfo struct {
	// Tier is the executor every shard dispatches to.
	Tier Tier
	// Shards is the fixed shard count.
	Shards int
	// LabelPairs and StartPairs are the sizes of the expanded
	// (symmetry-reduced) enumeration the shards partition.
	LabelPairs int
	StartPairs int
	// Delays is the size of the delay set.
	Delays int
}

// Info reports the plan's decomposition.
func (p *Plan) Info() PlanInfo {
	return PlanInfo{
		Tier:       p.plan.tier,
		Shards:     p.shards,
		LabelPairs: len(p.plan.labelPairs),
		StartPairs: len(p.plan.startPairs),
		Delays:     len(p.plan.delays),
	}
}

// RunShard executes one shard — the i-th contiguous slice of the
// label-pair enumeration — on the plan's tier and returns its partial
// WorstCase. A nil ctx means context.Background(). Merging every
// shard's result in shard order (MergeShards) yields output bit-for-bit
// identical to SearchModel.
func (p *Plan) RunShard(ctx context.Context, shard int) (sim.WorstCase, error) {
	if shard < 0 || shard >= p.shards {
		return sim.WorstCase{}, fmt.Errorf("adversary: shard %d out of range [0,%d)", shard, p.shards)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	lo, hi := shardBounds(len(p.plan.labelPairs), p.shards, shard)
	return p.plan.sweep(ctx, p.plan.labelPairs[lo:hi])
}

// MergeShards folds per-shard results in shard order with the engine's
// strictly-greater merge. results must be ordered by shard index and
// cover every shard of one plan; the fold is then exactly the serial
// scan's witness selection, so the output equals a local SearchModel
// bit for bit.
func MergeShards(results []sim.WorstCase) sim.WorstCase {
	if len(results) == 0 {
		return sim.WorstCase{}
	}
	merged := results[0]
	for _, r := range results[1:] {
		merged.Merge(r)
	}
	return merged
}

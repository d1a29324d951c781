package adversary

import (
	"context"
	"fmt"

	"rendezvous/internal/meetoracle"
	"rendezvous/internal/sim"
	"rendezvous/internal/trace"
)

// This file holds the engine's one compiled form of a search, Plan: a
// fixed shard decomposition that doubles as a reusable execution
// substrate. The contract — shards fixed by the space and the
// requested count alone (never the worker count), each shard
// executable independently on the dispatched tier, results folded in
// shard order with the strictly-greater merge — is the one the
// in-process driver (SearchModel, SearchModelCheckpointed) runs on,
// and the distributed dispatcher (internal/cluster) is built on
// exactly the same contract: any two processes that compile the same
// search with the same shard count derive identical shard boundaries,
// so shards can be computed anywhere (another goroutine, another
// process, another machine) and merged bit-for-bit identically to a
// local SearchModel. Every shard, local, checkpointed or on a cluster
// worker, is built by NewModelPlan and executed (and traced) by
// Plan.RunShard.

// Plan is a search lowered onto its fixed shard decomposition: the
// expanded (symmetry-reduced) enumeration, the executor the dispatched
// tier sweeps one contiguous slice of label pairs with, and a shard
// count clamped to the label-pair space. NewModelPlan builds one. A
// Plan is immutable once built; RunShard is safe for concurrent calls
// on any shards (including the same shard twice — shard execution is
// deterministic and side-effect free).
type Plan struct {
	labelPairs [][2]int
	startPairs [][2]int
	delays     []int
	// tier is the executor the sweep dispatches to: the forced tier,
	// or TierAuto's choice. oracle is the shared read-only
	// meeting-table oracle of a table-tier plan that newSearchPlan
	// built (nil otherwise, and nil on every plan NewModelPlan lowers
	// through model.Compiled); tests use both to pin dispatch decisions
	// and the prepared-before-fan-out contract.
	tier   Tier
	oracle *meetoracle.Oracle
	sweep  func(ctx context.Context, shard [][2]int) (sim.WorstCase, error)
	shards int
}

// Shards returns the plan's fixed shard count (>= 1; an empty space
// still has one shard that sweeps nothing, like the plain search).
func (p *Plan) Shards() int { return p.shards }

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
		Tier:       p.tier,
		Shards:     p.shards,
		LabelPairs: len(p.labelPairs),
		StartPairs: len(p.startPairs),
		Delays:     len(p.delays),
	}
}

// RunShard executes one shard — the i-th contiguous slice of the
// label-pair enumeration — on the plan's tier and returns its partial
// WorstCase. A nil ctx means context.Background(). Merging every
// shard's result in shard order (MergeShards) yields output bit-for-bit
// identical to SearchModel.
//
// RunShard is the engine's one shard executor, so it is also where a
// shard is traced: under a ctx carrying an internal/trace span it
// opens a "shard.exec" leaf span beneath it, tagged with the shard,
// the shard count, the tier and the shard's run count (0, plus the
// "error", when the shard fails). An untraced shard builds no span
// and no attribute.
//
// A panic inside the shard's executor becomes the shard's error
// ("adversary: shard i: internal error: ..."), so it fails the search
// like any other shard error — the driver still reports the lowest
// failing shard's — instead of killing the process on whichever worker
// goroutine ran the shard.
func (p *Plan) RunShard(ctx context.Context, shard int) (sim.WorstCase, error) {
	if shard < 0 || shard >= p.shards {
		return sim.WorstCase{}, fmt.Errorf("adversary: shard %d out of range [0,%d)", shard, p.shards)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	var span *trace.Span
	if trace.FromContext(ctx) != nil {
		span = trace.StartLeaf(ctx, "shard.exec", trace.Int("shard", shard),
			trace.Int("shards", p.shards), trace.String("tier", p.tier.String()))
	}
	wc, err := p.sweepShard(ctx, shard)
	if span != nil {
		runs := 0
		if err == nil {
			runs = wc.Runs
		}
		span.SetAttr(trace.Int("runs", runs))
		endSpan(span, err)
	}
	return wc, err
}

// sweepShard runs the plan's executor on shard's label pairs,
// recovering a panic into the shard's error.
func (p *Plan) sweepShard(ctx context.Context, shard int) (wc sim.WorstCase, err error) {
	defer func() {
		if v := recover(); v != nil {
			wc, err = sim.WorstCase{}, fmt.Errorf("adversary: shard %d: internal error: %v", shard, v)
		}
	}()
	lo, hi := shardBounds(len(p.labelPairs), p.shards, shard)
	return p.sweep(ctx, p.labelPairs[lo:hi])
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

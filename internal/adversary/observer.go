package adversary

// This file is the engine's observability seam. A SearchObserver is a
// struct of optional callbacks the shard driver fires at its stage
// boundaries — plan compilation, shard execution, checkpoint appends,
// merge — so callers (the serve layer's tracing) can attribute time to
// engine phases without the engine importing a tracing package or
// touching anything that feeds the search fingerprint: observers hang
// off CheckpointConfig, never Options, and carry no values back into
// the search. Every field may be nil; callbacks must be safe for
// concurrent shards and must not block for long (they run on the shard
// workers' hot path).

// PlanInfo describes a compiled plan's fixed decomposition — what the
// observer (and span attributes) can say about the search before any
// shard runs.
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

// SearchObserver receives SearchModelCheckpointed's stage-boundary
// events.
// The zero value observes nothing.
type SearchObserver struct {
	// PlanReady fires once, after plan compilation succeeds.
	PlanReady func(PlanInfo)
	// ShardsRestored fires once before execution with the number of
	// shards restored from the checkpoint file (possibly zero).
	ShardsRestored func(restored, total int)
	// ShardStarted/ShardFinished bracket each executed (not restored)
	// shard. runs is the shard's simulation-run count (0 on error).
	// Shards run concurrently, so these interleave.
	ShardStarted  func(shard, shards int)
	ShardFinished func(shard, shards, runs int, err error)
	// CheckpointAppendStarted/Finished bracket each durable checkpoint
	// record append (fired only when checkpointing is active).
	CheckpointAppendStarted  func(shard int)
	CheckpointAppendFinished func(shard int, err error)
	// MergeStarted/MergeFinished bracket the final in-order fold.
	MergeStarted  func(shards int)
	MergeFinished func()
}

// Package model defines the engine's pluggable rendezvous-model
// contract. A Model is everything the adversary engine needs to search
// a workload it knows nothing about: the enumeration of its
// configuration space, a per-shard executor over that enumeration, and
// the canonical material for its content-addressed fingerprint. The
// engine (internal/adversary) supplies what is model-independent —
// worker fan-out, fixed shard decomposition, checkpoint/resume through
// per-shard result-store records, cluster dispatch, result-store
// caching — and dispatches over this contract, so a new model inherits
// all of it by implementing four methods.
//
// # What a Model must guarantee
//
// The engine's determinism and durability machinery only works if the
// model holds up its end:
//
//   - Deterministic enumeration. Compile must produce the same
//     LabelPairs/StartPairs/Delays slices — same values, same order —
//     on every call, on every machine. The slices define the canonical
//     configuration order (labelPairs × startPairs × delays) that
//     witnesses, the strictly-greater merge, and checkpoint shard
//     boundaries are all expressed in.
//
//   - Deterministic execution. Sweep must be a pure function of its
//     shard: bit-for-bit identical sim.WorstCase for the same slice,
//     safe for concurrent calls on disjoint shards, with no ambient
//     state (no clocks, no maps ranged into results, no randomness).
//
//   - Units/Compile agreement. Units must equal len(Compile().
//     LabelPairs) whenever Compile succeeds; it exists so shard counts
//     can be derived (and agreed on across a cluster) without building
//     executor state.
//
//   - Fingerprint canonicalization. Fingerprint must hash the
//     semantics of the search — equivalent spellings hash identically,
//     different searches hash differently — and every model must salt
//     its hash with a domain of its own, so two models can never
//     collide in a shared result store. Execution knobs that are
//     output-invariant (worker counts, tier forcing, memory budgets)
//     must stay out of the hash.
//
//   - Tier honesty. Compiled.Tier names the executor every shard
//     dispatches to. Models other than the paper model run the generic
//     tier: the fast tiers (ring/table/batch) are model-specific
//     accelerations owned by the paper model's compiler, and a foreign
//     model must not claim them.
//
// The paper model (two agents, synchronous rounds, a delay adversary
// choosing start nodes, labels and wake delays) lives in
// internal/adversary as PaperModel — it is the first implementation of
// this contract and the only one with fast-tier accelerations. This
// package additionally ships Dynamic, a dynamic-graph model whose edge
// set changes on a declared periodic schedule, executed by the generic
// recipe.
package model

import (
	"context"

	"rendezvous/internal/sim"
)

// Compiled is a model lowered to the engine's shard form: the expanded
// canonical enumeration plus the executor for one contiguous slice of
// it. It is what the engine's fan-out, checkpointing and cluster
// machinery consume; everything model-specific is behind Sweep.
type Compiled struct {
	// Tier is the textual name of the execution tier every shard
	// dispatches to ("generic", "ring", "table", "batch"). The engine
	// parses it back to its tier enum for plan info and tracing; an
	// unknown name is a compile error at the engine boundary.
	Tier string
	// LabelPairs is the canonical (for the paper model:
	// symmetry-reduced is applied to start pairs, never label pairs)
	// label-pair enumeration — the shard axis. Sharding along it is
	// what makes worker counts output-invariant.
	LabelPairs [][2]int
	// StartPairs and Delays are the remaining enumeration axes. Sweep
	// closes over them; they are carried here so the plan span can
	// report the decomposition without re-expanding the space.
	StartPairs [][2]int
	Delays     []int
	// Sweep executes one contiguous sub-slice of LabelPairs and
	// returns its worst case. It must be safe for concurrent calls on
	// disjoint shards and must honour ctx between configurations.
	Sweep func(ctx context.Context, shard [][2]int) (sim.WorstCase, error)
}

// Model is the pluggable rendezvous-model contract. See the package
// comment for the guarantees an implementation owes the engine.
type Model interface {
	// Name is the model's registered name ("paper", "dynamic"), the
	// spelling scenario files select it by.
	Name() string
	// Units returns the size of the shard axis (the label-pair count
	// after any model-side reduction) without building executor state.
	// It fails exactly when Compile would fail on the enumeration.
	Units() (int, error)
	// Compile expands the configuration space and builds the per-shard
	// executor.
	Compile() (*Compiled, error)
	// Fingerprint returns the canonical content address of the search
	// this model denotes, salted with a model-specific domain. It
	// fails only when the model cannot denote a cacheable computation
	// (the same cases in which the search itself errors).
	Fingerprint() (string, error)
}

// Package adversary is the unified adversary-search engine: one entry
// point (SearchModel) that enumerates a model's configuration space
// (label pairs × start pairs × wake delays), executes every
// configuration, and reports the worst rendezvous time and cost with
// their witnessing configurations.
//
// It layers these things on top of the serial scan in package sim:
//
//   - Parallelism. The label-pair space is split into contiguous
//     shards, which a fixed pool of worker goroutines drains in shard
//     order; each shard sweeps with a private trajectory (or schedule)
//     cache so the hot path takes no locks. Per-shard results are
//     folded in shard order with a strictly-greater comparison, so the
//     output — witnesses, Runs, AllMet, and the first error — is
//     bit-for-bit identical to the serial scan for every worker count,
//     shard count and goroutine schedule. One driver runs every search:
//     SearchModel is SearchModelCheckpointed with no checkpoint file
//     and one shard per worker.
//
//   - Tiered dispatch. Executions are routed to the fastest executor
//     that covers the spec:
//
//     TierRing — the segment-level ring executor of internal/ringsim,
//     O(|schedule|) per execution, when the graph is the canonical
//     oriented ring and the explorer the clockwise sweep (the
//     Section 3 setting).
//
//     TierBatch — the 64-lane batched meeting-table executor
//     (meetoracle.MeetBatch), which advances up to 64 start-pair
//     executions per segment scan with bitset meeting masks, when the
//     start-pair × delay product is dense enough to fill the lanes and
//     the batch tables fit the memory budget.
//
//     TierTable — the meeting-table executor of internal/meetoracle,
//     also O(|schedule|) per execution, on any graph with any
//     fixed-duration explorer, whenever its precomputed tables fit
//     the memory budget. For both table tiers the tables are built and
//     every (label, start) schedule compiled once per search — before
//     workers fan out — and shared read-only (lock-free) by every
//     shard worker.
//
//     TierGeneric — the O(|schedule|·E) trajectory executor of
//     internal/sim, the reference semantics and the fallback for
//     degenerate spaces (negative delays, out-of-range starts) the
//     segment-level executors do not encode.
//
//     All tiers are bit-for-bit equivalent (each fast executor's
//     contract, enforced by differential fuzzing and exhaustive
//     cross-engine tests), so dispatch never changes results, only
//     speed.
//
//   - Symmetry reduction. Before tier dispatch, the start-pair space is
//     quotiented by the graph's port-preserving automorphism group
//     (graph.Automorphisms + internal/orbits): two start pairs in the
//     same orbit produce identical outcomes for every label pair and
//     delay, so only the first listed member of each orbit executes.
//     On vertex-transitive families (oriented rings and tori,
//     hypercubes, circulant complete graphs) this cuts executions by a
//     factor of n, compounding with whichever tier wins; on graphs with
//     trivial groups it is a no-op. The canonicalization rule —
//     representative = first orbit member in enumeration order —
//     makes the reduction invisible except in Runs: values, witnesses
//     and AllMet are bit-for-bit identical to the unreduced search
//     (enforced by an exhaustive equivalence sweep and
//     FuzzSymmetryEquivalence). PaperModel.Symmetry selects
//     Auto/Off/Forced.
//
// Package sim cannot host this dispatch itself because ringsim and
// meetoracle depend on sim's schedule types; adversary sits above all
// three and is what internal/bench, cmd/rdvbench and the public facade
// use.
package adversary

import (
	"context"
	"fmt"
	"runtime"

	"rendezvous/internal/explore"
	"rendezvous/internal/graph"
	"rendezvous/internal/meetoracle"
	"rendezvous/internal/orbits"
	"rendezvous/internal/ringsim"
	"rendezvous/internal/sim"
)

// Tier identifies an execution tier of the engine. The zero value
// TierAuto lets the engine pick the fastest eligible tier; the other
// values force one, which equivalence tests and benchmarks use to pin
// the executor down. Forcing a tier never changes results — only which
// engine produces them — except that forcing an inapplicable tier
// (TierRing off the canonical ring, TierTable with an explorer that
// rejects the graph) is an error.
type Tier int

const (
	// TierAuto selects ring, then batch, then table, then generic — the
	// fastest eligible executor.
	TierAuto Tier = iota
	// TierGeneric forces the O(|schedule|·E) trajectory executor
	// (internal/sim), the reference semantics.
	TierGeneric
	// TierTable forces the precomputed meeting-table executor
	// (internal/meetoracle), ignoring the memory budget.
	TierTable
	// TierRing forces the segment-level ring executor
	// (internal/ringsim); the spec must be ring-eligible.
	TierRing
	// TierBatch forces the 64-lane batched meeting-table executor
	// (meetoracle.MeetBatch), ignoring the memory budget and the
	// density heuristic TierAuto applies.
	TierBatch
)

// String implements fmt.Stringer.
func (t Tier) String() string {
	switch t {
	case TierAuto:
		return "auto"
	case TierGeneric:
		return "generic"
	case TierTable:
		return "table"
	case TierRing:
		return "ring"
	case TierBatch:
		return "batch"
	default:
		return fmt.Sprintf("tier(%d)", int(t))
	}
}

// ParseTier parses the textual form used by CLI flags — the inverse of
// String on the named tiers.
func ParseTier(s string) (Tier, error) {
	switch s {
	case "auto":
		return TierAuto, nil
	case "generic":
		return TierGeneric, nil
	case "table":
		return TierTable, nil
	case "ring":
		return TierRing, nil
	case "batch":
		return TierBatch, nil
	default:
		return 0, fmt.Errorf("adversary: unknown tier %q (want auto, generic, table, batch or ring)", s)
	}
}

// batchAutoMinConfigs is the start-pair × delay product at which
// TierAuto prefers the batch executor over the scalar table scan:
// below it a sweep cannot keep the 64 lanes of a batch word usefully
// full, and the scalar scan's lower constant wins.
const batchAutoMinConfigs = 128

// Symmetry selects the engine's start-pair orbit reduction. Reduction
// never changes values, witnesses or AllMet — only how many
// configurations execute (WorstCase.Runs) — so the zero value applies
// it automatically.
type Symmetry int

const (
	// SymmetryAuto applies the reduction whenever the graph has a
	// non-trivial port-preserving automorphism group and every start
	// pair is in range; degenerate spaces (out-of-range starts, which
	// have no orbit action) skip it and keep the generic tier's
	// semantics.
	SymmetryAuto Symmetry = iota
	// SymmetryOff disables the reduction; every listed start pair
	// executes. Equivalence tests and benchmarks use it as the
	// unreduced reference.
	SymmetryOff
	// SymmetryForced always applies the reduction machinery (on a
	// trivial group it degenerates to the identity quotient) and makes
	// inapplicable spaces — out-of-range start pairs — an error instead
	// of a silent skip.
	SymmetryForced
)

// String implements fmt.Stringer.
func (s Symmetry) String() string {
	switch s {
	case SymmetryAuto:
		return "auto"
	case SymmetryOff:
		return "off"
	case SymmetryForced:
		return "forced"
	default:
		return fmt.Sprintf("symmetry(%d)", int(s))
	}
}

// ParseSymmetry parses the textual form used by CLI flags.
func ParseSymmetry(s string) (Symmetry, error) {
	switch s {
	case "auto":
		return SymmetryAuto, nil
	case "off":
		return SymmetryOff, nil
	case "forced":
		return SymmetryForced, nil
	default:
		return 0, fmt.Errorf("adversary: unknown symmetry mode %q (want auto, off or forced)", s)
	}
}

// DefaultTableBudget is the memory the meeting-table tier may spend on
// precomputed tables when PaperModel.TableBudget is zero: 64 MiB, far
// above any experiment in the repository yet small enough to keep an
// accidental huge-graph search from ballooning resident memory.
const DefaultTableBudget int64 = 64 << 20

// Options holds a search's execution options: how many goroutines run
// it and what cancels it. Neither affects the result.
type Options struct {
	// Workers is the number of goroutines the label-pair shards are
	// swept on. 0 and 1 run serially in the calling goroutine; a
	// negative value selects GOMAXPROCS. Output is identical for every
	// worker count.
	Workers int
	// Context cancels a long-running search between executions; the
	// search then returns ctx.Err(). Nil means context.Background().
	Context context.Context
}

// resolveWorkers resolves the Workers option to a concrete goroutine
// count for the given number of shardable units: clamped to
// [1, units], negative selecting GOMAXPROCS.
func (o Options) resolveWorkers(units int) int {
	w := o.Workers
	if w < 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return max(1, min(w, units))
}

// Spec binds the model under attack: the graph, the EXPLORE procedure,
// and the deterministic algorithm as a label → schedule function.
type Spec struct {
	Graph    *graph.Graph
	Explorer explore.Explorer
	// ScheduleFor maps a label to its schedule. With Workers > 1 it is
	// called concurrently from every worker goroutine, so it must be
	// safe for concurrent use — a pure function of the label (like every
	// core.Algorithm.Schedule) qualifies; a closure that memoizes into a
	// shared map does not. It must also be deterministic: workers
	// compile schedules independently and rely on identical answers.
	ScheduleFor func(label int) sim.Schedule
}

// FastPathEligible reports whether executions of the spec can be routed
// through the segment-level ring executor: the graph must be the
// canonical oriented ring (node v's port 0 leads to v+1 mod n) and the
// explorer the clockwise sweep, which is exactly the model ringsim
// implements.
func (s Spec) FastPathEligible() bool {
	if _, ok := s.Explorer.(explore.OrientedRingSweep); !ok {
		return false
	}
	return graph.IsCanonicalOrientedRing(s.Graph)
}

// reduceSpace is the symmetry-reduction step: it replaces the space's
// start pairs with one representative per orbit of the graph's
// port-preserving automorphism group, keeping the first listed member
// of each orbit so the enumeration order of survivors — and therefore
// every witness — is unchanged. It returns the space untouched when
// the reduction cannot fire (SymmetryOff, a trivial group, or — under
// SymmetryAuto — out-of-range start pairs, which have no orbit action
// and whose semantics belong to the generic tier). Space-expansion
// errors surface here, before tier dispatch, identically for every
// Symmetry mode.
func reduceSpace(spec Spec, space sim.SearchSpace, sym Symmetry) (sim.SearchSpace, error) {
	if sym == SymmetryOff {
		return space, nil // the winning tier expands (and validates) itself
	}
	n := spec.Graph.N()
	labelPairs, startPairs, delays, err := space.Expand(n)
	if err != nil {
		return sim.SearchSpace{}, err
	}
	for _, sp := range startPairs {
		if sp[0] < 0 || sp[0] >= n || sp[1] < 0 || sp[1] >= n {
			if sym == SymmetryForced {
				return sim.SearchSpace{}, fmt.Errorf("adversary: SymmetryForced: start pair %v out of range [0,%d) has no orbit action", sp, n)
			}
			return space, nil
		}
	}
	// From here on the expansion is returned in explicit form even when
	// no orbit collapses, so the winning tier validates the (already
	// valid) slices instead of rebuilding them.
	expanded := sim.SearchSpace{LabelPairs: labelPairs, StartPairs: startPairs, Delays: delays}
	auts := graph.Automorphisms(spec.Graph)
	if len(auts) <= 1 && sym != SymmetryForced {
		return expanded, nil
	}
	orbs, err := orbits.Compute(auts, startPairs)
	if err != nil {
		return sim.SearchSpace{}, fmt.Errorf("adversary: symmetry reduction: %w", err)
	}
	reps := orbs.Representatives()
	if len(reps) == len(startPairs) {
		return expanded, nil
	}
	return sim.SearchSpace{LabelPairs: labelPairs, StartPairs: reps, Delays: delays}, nil
}

// tableDegenerate reports whether the expanded space contains
// configurations the meeting-table executor does not encode: negative
// delays (the generic path reports them through Meet's clamping
// semantics) and out-of-range starts (which the generic path has its
// own behaviour for — a per-execution compile error). Equal starts
// cannot reach the executors anymore: Expand rejects them up front.
func tableDegenerate(n int, startPairs [][2]int, delays []int) bool {
	for _, d := range delays {
		if d < 0 {
			return true
		}
	}
	for _, sp := range startPairs {
		if sp[0] < 0 || sp[0] >= n || sp[1] < 0 || sp[1] >= n {
			return true
		}
	}
	return false
}

// compiledRows holds a search's precompiled schedules, one row per
// label indexed by start node: rows[label][start]. Rows keep the shard
// hot loops free of hashing — one map lookup per label pair, then
// plain slice indexing per lane. A zero Compiled (nil starts) marks a
// (label, start) combination the sweep never touches.
type compiledRows map[int][]meetoracle.Compiled

// precompile lowers every (label, start) schedule the sweep can touch
// onto the oracle — once per search, instead of once per shard as the
// old per-shard caches did. The rows are read-only after construction
// and shared by all shard workers of both table tiers. Labels are
// validated in canonical enumeration order (position A before B within
// each label pair) so a compile error surfaces with exactly the
// serial scan's first failing configuration.
func precompile(oracle *meetoracle.Oracle, scheduleFor func(label int) sim.Schedule, labelPairs, startPairs [][2]int) (compiledRows, error) {
	compiled := make(compiledRows)
	if len(labelPairs) == 0 || len(startPairs) == 0 {
		return compiled, nil
	}
	n := oracle.N()
	add := func(label, start int) error {
		row := compiled[label]
		if row == nil {
			row = make([]meetoracle.Compiled, n)
			compiled[label] = row
		}
		if row[start].Valid() {
			return nil
		}
		c, err := oracle.Compile(start, scheduleFor(label))
		if err != nil {
			return fmt.Errorf("adversary: label %d start %d: %w", label, start, err)
		}
		row[start] = c
		return nil
	}
	// Compile failures depend only on the label (starts are already
	// validated in-range before dispatch reaches the table tiers), so
	// probing each label pair at the first start pair reproduces the
	// serial scan's first error.
	sp0 := startPairs[0]
	for _, lp := range labelPairs {
		if err := add(lp[0], sp0[0]); err != nil {
			return nil, err
		}
		if err := add(lp[1], sp0[1]); err != nil {
			return nil, err
		}
	}
	uniq := func(pairs [][2]int, side int) []int {
		seen := make(map[int]bool, len(pairs))
		var out []int
		for _, p := range pairs {
			if !seen[p[side]] {
				seen[p[side]] = true
				out = append(out, p[side])
			}
		}
		return out
	}
	for side := 0; side < 2; side++ {
		starts := uniq(startPairs, side)
		for _, label := range uniq(labelPairs, side) {
			for _, start := range starts {
				if err := add(label, start); err != nil {
					return nil, err
				}
			}
		}
	}
	return compiled, nil
}

// tableShard sweeps one contiguous slice of label pairs through the
// meeting-table executor, over the shared read-only oracle and the
// search-wide precompiled schedule rows.
func tableShard(ctx context.Context, oracle *meetoracle.Oracle, compiled compiledRows, labelPairs, startPairs [][2]int, delays []int) (sim.WorstCase, error) {
	wc := sim.WorstCase{AllMet: true}
	for _, lp := range labelPairs {
		if err := ctx.Err(); err != nil {
			return sim.WorstCase{}, err
		}
		rowA, rowB := compiled[lp[0]], compiled[lp[1]]
		for _, sp := range startPairs {
			ca := rowA[sp[0]]
			cb := rowB[sp[1]]
			for _, d := range delays {
				wc.Observe(lp[0], lp[1], sp[0], sp[1], d, oracle.Meet(ca, cb, 1, 1+d, false))
			}
		}
	}
	return wc, nil
}

// batchShard sweeps one contiguous slice of label pairs through the
// 64-lane batch executor: start pairs are gathered into lane blocks,
// every delay of a block executes through one MeetBatchWorst call per
// delay, and the buffered outcomes are then observed in canonical
// (start pair, delay) enumeration order — so witnesses are bit-for-bit
// identical to the scalar scan's. Observe reads only Met, Time() =
// Round and Cost() = CostA + CostB, which is exactly what the compact
// outcomes carry. The lane and outcome buffers are allocated once per
// shard and reused across every configuration.
func batchShard(ctx context.Context, oracle *meetoracle.Oracle, compiled compiledRows, labelPairs, startPairs [][2]int, delays []int) (sim.WorstCase, error) {
	var lanesA, lanesB [meetoracle.BatchLanes]meetoracle.Compiled
	rounds := make([]int, len(delays)*meetoracle.BatchLanes)
	costs := make([]int, len(delays)*meetoracle.BatchLanes)
	wc := sim.WorstCase{AllMet: true}
	for _, lp := range labelPairs {
		if err := ctx.Err(); err != nil {
			return sim.WorstCase{}, err
		}
		rowA, rowB := compiled[lp[0]], compiled[lp[1]]
		for base := 0; base < len(startPairs); base += meetoracle.BatchLanes {
			block := startPairs[base:min(base+meetoracle.BatchLanes, len(startPairs))]
			k := len(block)
			for i, sp := range block {
				lanesA[i] = rowA[sp[0]]
				lanesB[i] = rowB[sp[1]]
			}
			for di, d := range delays {
				oracle.MeetBatchWorst(lanesA[:k], lanesB[:k], d, rounds[di*k:(di+1)*k], costs[di*k:(di+1)*k])
			}
			for i, sp := range block {
				for di, d := range delays {
					wc.ObserveOutcome(lp[0], lp[1], sp[0], sp[1], d,
						rounds[di*k+i], costs[di*k+i])
				}
			}
		}
	}
	return wc, nil
}

// ringShard sweeps one contiguous slice of label pairs through the
// segment-level executor, with a private schedule cache.
func ringShard(ctx context.Context, n int, scheduleFor func(label int) sim.Schedule, labelPairs, startPairs [][2]int, delays []int) (sim.WorstCase, error) {
	scheds := make(map[int]sim.Schedule)
	get := func(l int) sim.Schedule {
		s, ok := scheds[l]
		if !ok {
			s = scheduleFor(l)
			scheds[l] = s
		}
		return s
	}
	wc := sim.WorstCase{AllMet: true}
	for _, lp := range labelPairs {
		if err := ctx.Err(); err != nil {
			return sim.WorstCase{}, err
		}
		sa, sb := get(lp[0]), get(lp[1])
		for _, sp := range startPairs {
			for _, d := range delays {
				res, err := ringsim.Run(n,
					ringsim.Agent{Schedule: sa, Start: sp[0], Wake: 1},
					ringsim.Agent{Schedule: sb, Start: sp[1], Wake: 1 + d})
				if err != nil {
					return sim.WorstCase{}, fmt.Errorf("adversary: labels %v starts %v delay %d: %w", lp, sp, d, err)
				}
				wc.Observe(lp[0], lp[1], sp[0], sp[1], d, sim.Result{
					Met:   res.Met,
					Round: res.Round,
					CostA: res.CostA,
					CostB: res.CostB,
				})
			}
		}
	}
	return wc, nil
}

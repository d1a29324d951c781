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
//     SearchModel is SearchModelCheckpointed with no checkpoint store
//     and one shard per worker. Every shard, local, checkpointed or on
//     a cluster worker, belongs to a Plan built by NewModelPlan and
//     runs through Plan.RunShard.
//
//   - Persistence. SearchModelCached answers a whole search from the
//     result store (internal/resultstore); SearchModelCheckpointed
//     stores each completed shard there as its own record, keyed by
//     ShardFingerprint, and restores those records on resume. The
//     store's checksummed, atomically published record is the
//     engine's one durable format.
//
//   - Tiered dispatch. Executions are routed to the fastest executor
//     that covers the spec:
//
//     TierRing — the run-level ring executor of internal/ringsim, when
//     the graph is the canonical oriented ring and the explorer the
//     clockwise sweep (the Section 3 setting). Each shard lowers every
//     label's schedule once into a ringsim.Timeline of constant-rate
//     runs; each label pair and delay is then one ringsim.Walk that
//     resolves every start pair at once, O(runs + start pairs), and
//     allocates nothing.
//
//     TierBatch — the 64-lane batched meeting-table executor
//     (meetoracle.MeetBatchWorst), which advances up to 64 start-pair
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
//     internal/sim, the reference semantics.
//
//     Every tier sees only spaces sim.SearchSpace.Expand accepts, so a
//     forced tier runs on that tier or errors. All tiers are
//     bit-for-bit equivalent (each fast executor's contract, enforced
//     by differential fuzzing and exhaustive cross-engine tests), so
//     dispatch never changes results, only speed.
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
//   - Tracing. Options.Context is the engine's one instrumentation
//     seam: under a context carrying an internal/trace span, the
//     search opens leaf spans beneath it for plan compilation
//     ("plan"), every stored shard record ("store.put") and the final
//     fold ("merge"), and Plan.RunShard opens one for every shard it
//     executes ("shard.exec") — under whatever span its own context
//     carries, so a cluster worker's /shard request records the same
//     span as a local search. No fingerprint reads the context, so
//     tracing never changes a result, and an untraced search builds no
//     span at all.
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
// the executor down. A forced tier runs on that tier or errors: forcing
// never changes results — only which engine produces them — except
// that forcing an inapplicable tier (TierRing off the canonical ring,
// TierTable or TierBatch with an explorer that rejects the graph) is an
// error.
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
	// TierRing forces the ring executor (internal/ringsim); the spec
	// must be ring-eligible.
	TierRing
	// TierBatch forces the 64-lane batched meeting-table executor
	// (meetoracle.MeetBatchWorst), ignoring the memory budget and the
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
	// non-trivial port-preserving automorphism group.
	SymmetryAuto Symmetry = iota
	// SymmetryOff disables the reduction; every listed start pair
	// executes. Equivalence tests and benchmarks use it as the
	// unreduced reference.
	SymmetryOff
	// SymmetryForced always applies the reduction machinery, even on a
	// trivial group, where the quotient is the identity.
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
// through the ring executor: the graph must be the
// canonical oriented ring (node v's port 0 leads to v+1 mod n) and the
// explorer the clockwise sweep, which is exactly the model ringsim
// implements.
func (s Spec) FastPathEligible() bool {
	if _, ok := s.Explorer.(explore.OrientedRingSweep); !ok {
		return false
	}
	return graph.IsCanonicalOrientedRing(s.Graph)
}

// reduceStarts is the symmetry-reduction step: it replaces the
// expanded start pairs with one representative per orbit of the
// graph's port-preserving automorphism group, keeping the first listed
// member of each orbit so the enumeration order of survivors — and
// therefore every witness — is unchanged. It returns the pairs
// untouched when the reduction cannot fire (SymmetryOff, or a trivial
// group under SymmetryAuto) and when no orbit collapses. The second
// case keeps an explicit empty list empty rather than nil: the generic
// tier hands the pairs to sim.Search, which reads nil as "every start
// pair".
func reduceStarts(g *graph.Graph, startPairs [][2]int, sym Symmetry) ([][2]int, error) {
	if sym == SymmetryOff {
		return startPairs, nil
	}
	auts := graph.Automorphisms(g)
	if len(auts) <= 1 && sym != SymmetryForced {
		return startPairs, nil
	}
	orbs, err := orbits.Compute(auts, startPairs)
	if err != nil {
		return nil, fmt.Errorf("adversary: symmetry reduction: %w", err)
	}
	if reps := orbs.Representatives(); len(reps) < len(startPairs) {
		return reps, nil
	}
	return startPairs, nil
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
	// Compile failures depend only on the label (Expand has already
	// validated every start), so probing each label pair at the first
	// start pair reproduces the serial scan's first error.
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
// ring executor. Each label's schedule is lowered to its ringsim
// Timeline once per shard, on the shard's own goroutine, and the start
// pairs are prepared once per shard. Each label pair and delay is then
// one ringsim.Walk over every start pair, into a buffer of one result
// per start pair allocated once per shard.
func ringShard(ctx context.Context, n int, scheduleFor func(label int) sim.Schedule, labelPairs, startPairs [][2]int, delays []int) (sim.WorstCase, error) {
	starts, err := ringsim.NewStarts(n, startPairs)
	if err != nil {
		return sim.WorstCase{}, fmt.Errorf("adversary: %w", err)
	}
	timelines := make(map[int]ringsim.Timeline)
	get := func(l int) ringsim.Timeline {
		tl, ok := timelines[l]
		if !ok {
			tl = ringsim.Compile(n, scheduleFor(l))
			timelines[l] = tl
		}
		return tl
	}
	out := make([]ringsim.Result, len(startPairs))
	wc := sim.WorstCase{AllMet: true}
	for _, lp := range labelPairs {
		if err := ctx.Err(); err != nil {
			return sim.WorstCase{}, err
		}
		ta, tb := get(lp[0]), get(lp[1])
		// The walks visit the label pair's configurations delay by
		// delay, but its witnesses must be the canonical scan's: the
		// first configuration in (start pair, delay) order to reach the
		// maximum. So a tie takes over a witness only from a
		// configuration later in that order (at is the canonical
		// index), and the label pair folds into wc by Merge's in-order
		// rule. Observing in canonical order instead would buffer every
		// delay's walk: start pairs × delays results per shard.
		pair := sim.WorstCase{Runs: len(startPairs) * len(delays), AllMet: true}
		timeAt, costAt := 0, 0
		witness := func(i, d, value int) sim.Witness {
			return sim.Witness{LabelA: lp[0], LabelB: lp[1], StartA: startPairs[i][0], StartB: startPairs[i][1], DelayB: d, Value: value}
		}
		for di, d := range delays {
			if err := ringsim.Walk(ta, tb, 1, 1+d, starts, out); err != nil {
				return sim.WorstCase{}, fmt.Errorf("adversary: labels %v delay %d: %w", lp, d, err)
			}
			for i, res := range out {
				if !res.Met {
					pair.AllMet = false
					continue
				}
				at := i*len(delays) + di
				if res.Round > pair.Time.Value || res.Round == pair.Time.Value && at < timeAt {
					pair.Time, timeAt = witness(i, d, res.Round), at
				}
				if c := res.Cost(); c > pair.Cost.Value || c == pair.Cost.Value && at < costAt {
					pair.Cost, costAt = witness(i, d, c), at
				}
			}
		}
		wc.Merge(pair)
	}
	return wc, nil
}

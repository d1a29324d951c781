package sim

import (
	"context"
	"fmt"

	"rendezvous/internal/explore"
	"rendezvous/internal/graph"
)

// Witness records the configuration achieving an extreme value in an
// adversary search.
type Witness struct {
	LabelA, LabelB int
	StartA, StartB int
	DelayB         int // agent B's wake round minus 1
	Value          int
}

// WorstCase aggregates the adversary's best achievements over a searched
// configuration space: the maximum rendezvous time and cost, with the
// configurations that realise them. Both witnesses follow the paper's
// until-meeting measures, so only executions that achieved rendezvous
// update them; executions that never meet are still counted in Runs and
// recorded through AllMet (this matches the segment-level ring engine,
// whose sweep has always skipped non-meeting executions when updating
// witnesses).
type WorstCase struct {
	Time Witness
	Cost Witness
	// Runs is the number of executions examined. Under the adversary
	// engine's symmetry reduction only one start pair per automorphism
	// orbit executes, so Runs can be smaller than the nominal size of
	// the configuration space; values and witnesses are unaffected.
	Runs int
	// AllMet reports whether every execution achieved rendezvous; a
	// correct algorithm must make this true.
	AllMet bool
}

// Merge folds the next shard's results into wc. Shards are folded in
// canonical enumeration order with a strictly-greater comparison, so the
// surviving witness is the first configuration (in that order) achieving
// the maximum — exactly the witness the serial scan would keep. This is
// what makes parallel output bit-for-bit equal to serial output.
func (wc *WorstCase) Merge(next WorstCase) {
	if next.Time.Value > wc.Time.Value {
		wc.Time = next.Time
	}
	if next.Cost.Value > wc.Cost.Value {
		wc.Cost = next.Cost
	}
	wc.Runs += next.Runs
	wc.AllMet = wc.AllMet && next.AllMet
}

// Observe records one execution outcome under the canonical
// strictly-greater update rule shared by the serial and parallel paths.
// Executions that never meet flip AllMet but update neither witness:
// the paper defines both time and cost until the meeting, so a
// non-meeting execution has no finite value of either (its schedule
// costs are an artifact of the simulation horizon, not of the model).
func (wc *WorstCase) Observe(labelA, labelB, startA, startB, delay int, res Result) {
	if !res.Met {
		wc.Runs++
		wc.AllMet = false
		return
	}
	wc.ObserveOutcome(labelA, labelB, startA, startB, delay, res.Time(), res.Cost())
}

// ObserveOutcome is Observe for callers that already hold the two
// scalars a recorded execution contributes — the meeting round (0 if
// the agents never met, exactly as Result.Round encodes it) and the
// combined cost of both agents until the meeting (ignored when round
// is 0). Batch executors use it to aggregate outcomes without
// materialising a Result per execution; the update rule is identical
// to Observe's by construction.
func (wc *WorstCase) ObserveOutcome(labelA, labelB, startA, startB, delay, round, cost int) {
	wc.Runs++
	if round == 0 {
		wc.AllMet = false
		return
	}
	if round > wc.Time.Value {
		wc.Time = Witness{LabelA: labelA, LabelB: labelB, StartA: startA, StartB: startB, DelayB: delay, Value: round}
	}
	if cost > wc.Cost.Value {
		wc.Cost = Witness{LabelA: labelA, LabelB: labelB, StartA: startA, StartB: startB, DelayB: delay, Value: cost}
	}
}

// SearchSpace describes the adversary's choices. A nil slice selects
// the exhaustive default noted per field; an explicit empty slice is an
// empty axis, so the space holds no configuration and a search over it
// runs nothing. (Scenario documents differ: compiling one turns a
// written [] into the default.)
type SearchSpace struct {
	// LabelPairs lists ordered (labelA, labelB) pairs; both agents run
	// the deterministic algorithm with their own label. The model
	// requires distinct labels >= 1, which Expand enforces. Defaults to
	// all ordered pairs of distinct labels in {1..L}.
	LabelPairs [][2]int
	// L is the label-space size used when LabelPairs is nil.
	L int
	// StartPairs lists ordered (startA, startB) pairs. The model places
	// the agents at distinct nodes of the graph, so Expand rejects pairs
	// with equal entries or entries outside [0, n). Defaults to all
	// ordered pairs of distinct nodes.
	StartPairs [][2]int
	// Delays lists wake delays for agent B (0 = simultaneous start).
	// The adversary delays the later agent by a non-negative number of
	// rounds, so Expand rejects negative delays. Defaults to {0}.
	Delays []int
}

// Expand materialises the space's enumeration over a graph of n nodes,
// applying the documented defaults and validating explicit choices
// against the model the way the defaults always were: labels must be
// distinct and >= 1, starts must be distinct nodes in [0, n), delays
// must be >= 0. It is the one definition of a valid space: every
// model, execution tier and fingerprint sees only spaces it accepts.
// The returned slices define the canonical configuration order
// (labelPairs × startPairs × delays) that both the serial and the
// sharded parallel search follow.
func (space SearchSpace) Expand(n int) (labelPairs, startPairs [][2]int, delays []int, err error) {
	labelPairs = space.LabelPairs
	if labelPairs == nil {
		if space.L < 2 {
			return nil, nil, nil, fmt.Errorf("sim: Search: need L >= 2 (got %d) when LabelPairs is nil", space.L)
		}
		labelPairs = make([][2]int, 0, space.L*(space.L-1))
		for a := 1; a <= space.L; a++ {
			for b := 1; b <= space.L; b++ {
				if a != b {
					labelPairs = append(labelPairs, [2]int{a, b})
				}
			}
		}
	} else {
		for i, lp := range labelPairs {
			if lp[0] < 1 || lp[1] < 1 {
				return nil, nil, nil, fmt.Errorf("sim: Search: LabelPairs[%d] = %v: labels must be >= 1", i, lp)
			}
			if lp[0] == lp[1] {
				return nil, nil, nil, fmt.Errorf("sim: Search: LabelPairs[%d] = %v: the model requires distinct labels", i, lp)
			}
		}
	}
	startPairs = space.StartPairs
	if startPairs == nil {
		if n < 2 {
			return nil, nil, nil, fmt.Errorf("sim: Search: need a graph with >= 2 nodes (got %d) when StartPairs is nil", n)
		}
		startPairs = make([][2]int, 0, n*(n-1))
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u != v {
					startPairs = append(startPairs, [2]int{u, v})
				}
			}
		}
	} else {
		for i, sp := range startPairs {
			if sp[0] == sp[1] {
				return nil, nil, nil, fmt.Errorf("sim: Search: StartPairs[%d] = %v: the model requires distinct start nodes", i, sp)
			}
			if sp[0] < 0 || sp[0] >= n || sp[1] < 0 || sp[1] >= n {
				return nil, nil, nil, fmt.Errorf("sim: Search: StartPairs[%d] = %v: start nodes must be in [0,%d)", i, sp, n)
			}
		}
	}
	delays = space.Delays
	if delays == nil {
		delays = []int{0}
	}
	for i, d := range delays {
		if d < 0 {
			return nil, nil, nil, fmt.Errorf("sim: Search: Delays[%d] = %d: delays must be >= 0", i, d)
		}
	}
	return labelPairs, startPairs, delays, nil
}

// Trajectories precompiles and caches solo trajectories per (label,
// start) so adversary searches do not recompile schedules. A single
// cache is not safe for concurrent use; the engine's generic tier
// builds one per shard.
type Trajectories struct {
	g           *graph.Graph
	ex          explore.Explorer
	scheduleFor func(label int) Schedule
	cache       map[[2]int]Trajectory
}

// NewTrajectories returns an empty cache over the given graph, explorer
// and per-label schedule function. The adversary engine's parallel
// search builds one cache per shard over the same scheduleFor, so it
// is called concurrently from every worker: it must be a
// deterministic function safe for concurrent use, not a memoizing
// closure over shared state.
func NewTrajectories(g *graph.Graph, ex explore.Explorer, scheduleFor func(label int) Schedule) *Trajectories {
	return &Trajectories{
		g:           g,
		ex:          ex,
		scheduleFor: scheduleFor,
		cache:       make(map[[2]int]Trajectory),
	}
}

// Get returns the solo trajectory of the given label from the given
// start, compiling it on first use.
func (tc *Trajectories) Get(label, start int) (Trajectory, error) {
	key := [2]int{label, start}
	if tr, ok := tc.cache[key]; ok {
		return tr, nil
	}
	tr, err := CompileTrajectory(tc.g, tc.ex, start, tc.scheduleFor(label))
	if err != nil {
		return Trajectory{}, fmt.Errorf("sim: label %d start %d: %w", label, start, err)
	}
	tc.cache[key] = tr
	return tr, nil
}

// Meet scans two solo trajectories for the first meeting round under
// the given wake rounds (the earlier agent must wake in round 1). It is
// the core of Run, exposed so callers that compile trajectories
// themselves (adversary searches, the unknown-E doubling wrapper) can
// reuse the scan without a Scenario.
func Meet(trajA, trajB Trajectory, wakeA, wakeB int, parachuted bool) Result {
	horizon := max(wakeA+trajA.Len(), wakeB+trajB.Len())
	for t := 1; t <= horizon; t++ {
		kA := t - wakeA + 1
		kB := t - wakeB + 1
		if parachuted && (kA < 0 || kB < 0) {
			continue
		}
		pA := trajA.At(kA)
		pB := trajB.At(kB)
		if pA == pB {
			// Alternative accounting (Conclusion): rounds and traversals
			// measured from the later agent's wake-up.
			later := max(wakeA, wakeB)
			fromLater := t - later + 1
			if fromLater < 0 {
				fromLater = 0
			}
			costLater := trajA.MovesAt(kA) - trajA.MovesAt(later-wakeA) +
				trajB.MovesAt(kB) - trajB.MovesAt(later-wakeB)
			return Result{
				Met:               true,
				Round:             t,
				Node:              pA,
				CostA:             trajA.MovesAt(kA),
				CostB:             trajB.MovesAt(kB),
				TimeFromLaterWake: fromLater,
				CostFromLaterWake: costLater,
			}
		}
	}
	return Result{
		Met:   false,
		Node:  -1,
		CostA: trajA.MovesAt(trajA.Len()),
		CostB: trajB.MovesAt(trajB.Len()),
	}
}

// Search runs the adversary serially over the given space and returns
// the worst time and cost found: Expand, then Sweep through the cache.
// Every execution must achieve rendezvous for AllMet to hold;
// executions that never meet are still counted in Runs so the caller
// can detect the violation, but contribute to neither witness (both
// measures are defined until the meeting).
func Search(ctx context.Context, tc *Trajectories, space SearchSpace) (WorstCase, error) {
	labelPairs, startPairs, delays, err := space.Expand(tc.g.N())
	if err != nil {
		return WorstCase{}, err
	}
	return Sweep(ctx, labelPairs, startPairs, delays, func(label, start, _ int) (Trajectory, error) {
		return tc.Get(label, start)
	})
}

// Sweep is the one loop over a search's configurations, for every
// generic executor: Search, the paper model's generic tier and the
// dynamic model. It visits them in canonical order (labelPairs ×
// startPairs × delays), gets agent A's trajectory for wake round 1
// and agent B's for wake round 1+d from traj, scans the two with Meet
// and folds the outcome with Observe. It sweeps its slices as given,
// so a nil or empty slice on any axis sweeps nothing; Expand is what
// applies the defaults. An error from traj ends the sweep with that
// error. The context is checked once per label pair, so cancellation
// latency is bounded by one (startPairs × delays) sweep; on
// cancellation Sweep returns ctx.Err().
func Sweep(ctx context.Context, labelPairs, startPairs [][2]int, delays []int, traj func(label, start, wake int) (Trajectory, error)) (WorstCase, error) {
	wc := WorstCase{AllMet: true}
	for _, lp := range labelPairs {
		if err := ctx.Err(); err != nil {
			return WorstCase{}, err
		}
		for _, sp := range startPairs {
			trajA, err := traj(lp[0], sp[0], 1)
			if err != nil {
				return WorstCase{}, err
			}
			for _, d := range delays {
				trajB, err := traj(lp[1], sp[1], 1+d)
				if err != nil {
					return WorstCase{}, err
				}
				wc.Observe(lp[0], lp[1], sp[0], sp[1], d, Meet(trajA, trajB, 1, 1+d, false))
			}
		}
	}
	return wc, nil
}

package bench

import (
	"rendezvous/internal/core"
	"rendezvous/internal/explore"
	"rendezvous/internal/graph"
	"rendezvous/internal/scenario"
	"rendezvous/internal/sim"
)

// E12AlternativeAccounting reproduces the Conclusion's discussion of the
// "parachuted" model of [26, 45], where time and cost are counted from
// the wake-up of the LATER agent: the complexities of Cheap and Fast are
// unchanged under this accounting (their bounds hold with the same
// constants), measured across a delay sweep.
func E12AlternativeAccounting(opts Options) (*Table, error) {
	const n, L = 18, 6
	e := n - 1
	t := &Table{
		ID:      "E12",
		Title:   "Alternative accounting: time/cost from the later agent's wake-up (Conclusion)",
		Claim:   "the time and cost complexities of our algorithms do not change in the alternative model (counted since the later agent's wake-up)",
		Columns: []string{"algorithm", "delay τ", "worst time (earlier)", "worst time (later)", "worst cost (earlier)", "worst cost (later)", "later-time bound"},
	}
	g := graph.OrientedRing(n)
	params := core.Params{L: L}
	labelPairs, _, _, err := sim.SearchSpace{L: L}.Expand(n)
	if err != nil {
		return nil, err
	}
	allOK := true
	for _, entry := range []struct {
		algo  core.Algorithm
		bound int // bound on later-wake time
	}{
		{core.Cheap{}, core.CheapWorstTimeBound(e, L)},
		{core.Fast{}, core.FastTimeBound(e, L)},
	} {
		for _, tau := range []int{0, e / 2, e, 2 * e, 5 * e} {
			if err := opts.err(); err != nil {
				return nil, err
			}
			tc := sim.NewTrajectories(g, explore.OrientedRingSweep{}, func(l int) sim.Schedule {
				return entry.algo.Schedule(l, params)
			})
			worstTime, worstLater, worstCost, worstCostLater := 0, 0, 0, 0
			for _, lp := range labelPairs {
				for d := 1; d < n; d++ {
					trajA, err := tc.Get(lp[0], 0)
					if err != nil {
						return nil, err
					}
					trajB, err := tc.Get(lp[1], d)
					if err != nil {
						return nil, err
					}
					res := sim.Meet(trajA, trajB, 1, 1+tau, false)
					if !res.Met {
						t.AddCheck("all met", false, "%s labels %v offset %d delay %d never meet", entry.algo.Name(), lp, d, tau)
						continue
					}
					worstTime = max(worstTime, res.Time())
					worstLater = max(worstLater, res.TimeFromLaterWake)
					worstCost = max(worstCost, res.Cost())
					worstCostLater = max(worstCostLater, res.CostFromLaterWake)
				}
			}
			if worstLater > entry.bound {
				allOK = false
			}
			t.AddRow(entry.algo.Name(), tau, worstTime, worstLater, worstCost, worstCostLater, entry.bound)
		}
	}
	t.AddCheck("later-wake time within the earlier-wake bounds", allOK,
		"alternative accounting never exceeds the propositions' formulas, at every delay")
	return t, nil
}

// E13Ablations measures what each design ingredient is for.
//
// Findings (both are recorded honestly, including the negative one):
//
//   - Cheap without its leading exploration (CheapLazy) is INCORRECT:
//     with delay τ = 2E the single explorations of labels ℓ and ℓ+2
//     align exactly and the agents sweep in lockstep forever. The
//     leading exploration is load-bearing for correctness, not merely
//     for the time bound.
//   - Fast without bit doubling (FastUndoubled) could not be broken by
//     exhaustive adversarial search on oriented rings (all offsets, all
//     delays 0..E, sweep and movement-deferring explorers): partial
//     explorations accumulate enough relative displacement to force the
//     meeting. The doubling is what the PROOF of Proposition 2.2 needs
//     (a full exploration inside the other agent's idle window, for any
//     EXPLORE on any graph) and costs about 2x in both time and cost.
func E13Ablations(opts Options) (*Table, error) {
	t := &Table{
		ID:      "E13",
		Title:   "Ablations: Cheap's leading exploration, Fast's bit doubling",
		Claim:   "Algorithm 1 brackets its wait with two explorations; Algorithm 2 doubles every bit of the transformed label — what does each buy?",
		Columns: []string{"variant", "delays", "all met", "worst time", "worst cost"},
		Notes: []string{
			"cheap-lazy fails outright: at τ=2E the lone explorations of labels ℓ and ℓ+2 coincide and lockstep sweeps never meet",
			"fast-undoubled survives exhaustive ring adversaries; the doubling is required by the proof's any-graph any-EXPLORE argument and costs ~2x",
		},
	}
	// Every variant's meeting (or not) is the measurement here.
	sweeps, err := opts.sweeps("E13", func(scenario.Search) bool { return true })
	if err != nil {
		return nil, err
	}
	// The fast pair sweeps every delay 0..E; the cheap pair the doubled
	// delays {0, 2E, 4E}, where τ = 2E aligns the lone explorations of
	// labels ℓ, ℓ+2.
	row, err := pick(sweeps, "fast-undoubled", "fast", "cheap-lazy", "cheap")
	if err != nil {
		return nil, err
	}
	undoubled, fastFull, lazy, cheap := row[0].wc, row[1].wc, row[2].wc, row[3].wc
	t.AddRow("fast-undoubled", "0..E", undoubled.AllMet, undoubled.Time.Value, undoubled.Cost.Value)
	t.AddRow("fast (control)", "0..E", fastFull.AllMet, fastFull.Time.Value, fastFull.Cost.Value)
	t.AddRow("cheap-lazy", "{0,2E,4E}", lazy.AllMet, lazy.Time.Value, lazy.Cost.Value)
	t.AddRow("cheap (control)", "{0,2E,4E}", cheap.AllMet, cheap.Time.Value, cheap.Cost.Value)
	bound := core.CheapWorstTimeBound(row[3].e(), row[3].l())

	t.AddCheck("undoubled Fast survives ring adversaries", undoubled.AllMet,
		"all offsets x delays 0..E met; worst time %d vs control %d", undoubled.Time.Value, fastFull.Time.Value)
	doublingFactor := float64(fastFull.Time.Value) / float64(undoubled.Time.Value)
	t.AddCheck("doubling costs ~2x", doublingFactor > 1.3 && doublingFactor < 2.7,
		"control/undoubled worst-time factor %.2f", doublingFactor)
	t.AddCheck("lazy Cheap admits non-meeting executions", !lazy.AllMet,
		"without the leading exploration, aligned lone explorations lockstep forever")
	t.AddCheck("real Cheap stays correct and bounded", cheap.AllMet && cheap.Time.Value <= bound,
		"worst time %d <= (2L+1)E = %d across the same delays", cheap.Time.Value, bound)
	return t, nil
}

// Package ringsim is an exact, run-level executor for rendezvous
// schedules on the oriented ring with the optimal clockwise sweep as
// EXPLORE (the Section 3 setting: E = n-1).
//
// Package sim simulates round by round, costing O(schedule·E) per
// execution. On the oriented ring every schedule segment moves an agent
// at a constant rate (+1 node per round while exploring, 0 while
// waiting or asleep), so the gap between two agents changes linearly
// within any interval where both rates are constant, and the first
// crossing of zero can be computed in O(1) per interval. Compile lowers
// a schedule once into its Timeline — the maximal constant-rate runs
// with the explore rounds done before each — and Meet walks two
// timelines with one cursor each, so an execution costs O(runs A +
// runs B), independent of E and of how long the agents wait, and
// allocates nothing. The paper's algorithms are cheap because agents
// wait: a FastWithRelabeling(1) schedule at L = 4096 is 8,193 segments but
// at most 4 runs. That makes exhaustive adversarial sweeps feasible at
// label-space sizes far beyond what the general simulator can touch
// (the experiment on the paper's open problem, E14, uses it at
// L = 4096). Sweeps run through the adversary engine, whose ring tier
// (adversary.TierRing) lowers each label once per shard and calls Meet
// once per configuration; Run is Compile plus Meet for one execution.
//
// Results are bit-for-bit equal to sim.Run with
// explore.OrientedRingSweep; the test suite checks the equivalence
// exhaustively on small spaces and by fuzzing long runs.
package ringsim

import (
	"errors"

	"rendezvous/internal/sim"
)

// Agent is one agent in the segment-level model.
type Agent struct {
	// Schedule is the agent's sequence of E-round explore/wait segments.
	Schedule sim.Schedule
	// Start is the agent's starting node on the ring 0..n-1.
	Start int
	// Wake is the 1-based round in which the agent wakes.
	Wake int
}

// Result mirrors the relevant subset of sim.Result.
type Result struct {
	Met          bool
	Round        int // first meeting round; 0 if never
	CostA, CostB int // edge traversals until the meeting (or full schedules)
}

// Cost returns the combined cost.
func (r Result) Cost() int { return r.CostA + r.CostB }

// Time returns the paper's time measure (rounds from the earlier wake,
// which the executor requires to be round 1).
func (r Result) Time() int { return r.Round }

// Errors mirroring the general simulator's validations.
var (
	ErrSameStart = errors.New("ringsim: agents must start at distinct nodes")
	ErrBadWake   = errors.New("ringsim: earlier agent must wake in round 1")
)

// Timeline is a schedule lowered for one ring size: its maximal
// constant-rate runs in rounds since wake. It does not depend on the
// agent's start node or wake round, so one Timeline per label serves
// every configuration of a sweep. The zero Timeline is the empty
// schedule. A Timeline is read-only once compiled.
type Timeline struct {
	runs     []run
	rounds   int // len(schedule)·E
	explored int // explore rounds in the whole schedule
}

// run covers rounds start+1..end since wake, at one rate: 1 while
// exploring, 0 while waiting. Consecutive runs alternate rates.
type run struct {
	start, end int
	rate       int
	before     int // explore rounds in rounds 1..start since wake
}

// Compile lowers a schedule onto the oriented ring of size n (E = n-1),
// merging consecutive segments of one kind into a single run.
func Compile(n int, s sim.Schedule) Timeline {
	e := n - 1
	// Count the runs first, so the timeline is one allocation.
	runs := 0
	for i := 0; i < len(s); i = runEnd(s, i) {
		runs++
	}
	tl := Timeline{runs: make([]run, 0, runs)}
	for i := 0; i < len(s); {
		j := runEnd(s, i)
		rate := 0
		if s[i] == sim.SegmentExplore {
			rate = 1
		}
		rounds := (j - i) * e
		tl.runs = append(tl.runs, run{start: tl.rounds, end: tl.rounds + rounds, rate: rate, before: tl.explored})
		tl.rounds += rounds
		tl.explored += rate * rounds
		i = j
	}
	return tl
}

// runEnd returns the end of the run of segments that starts at i: the
// first index past i whose segment explores when s[i] does not, or the
// other way round. One loop per kind keeps the scan of a long wait run
// to one comparison per segment, twice as fast as one loop comparing
// kinds.
func runEnd(s sim.Schedule, i int) int {
	j := i + 1
	if s[i] == sim.SegmentExplore {
		for j < len(s) && s[j] == sim.SegmentExplore {
			j++
		}
		return j
	}
	for j < len(s) && s[j] != sim.SegmentExplore {
		j++
	}
	return j
}

// Placed is one agent of a compiled execution: its lowered schedule,
// its starting node and its 1-based wake round.
type Placed struct {
	Timeline Timeline
	Start    int
	Wake     int
}

// Run computes the first meeting of the two agents on the oriented ring
// of size n (E = n-1), exactly as sim.Run would with the ring sweep. It
// is Compile for both schedules plus Meet; sweeps that execute one
// schedule many times compile it once and call Meet.
func Run(n int, a, b Agent) (Result, error) {
	if err := check(n, a.Start, b.Start, a.Wake, b.Wake); err != nil {
		return Result{}, err
	}
	return Meet(n,
		Placed{Timeline: Compile(n, a.Schedule), Start: a.Start, Wake: a.Wake},
		Placed{Timeline: Compile(n, b.Schedule), Start: b.Start, Wake: b.Wake})
}

// check is the general simulator's validation of a configuration.
func check(n, startA, startB, wakeA, wakeB int) error {
	if ((startA-startB)%n+n)%n == 0 {
		return ErrSameStart
	}
	if min(wakeA, wakeB) != 1 {
		return ErrBadWake
	}
	return nil
}

// Meet is the ring executor: the first meeting of two agents whose
// schedules were compiled for the ring of size n, exactly as sim.Run
// would find it with the ring sweep. It walks both timelines once, so
// it costs O(runs A + runs B) and allocates nothing. The agents are
// watched until the later of their schedules ends (wake-1 plus the
// schedule's rounds); agents that have not met by then never do, and
// each is charged its whole schedule's explore rounds.
func Meet(n int, a, b Placed) (Result, error) {
	if err := check(n, a.Start, b.Start, a.Wake, b.Wake); err != nil {
		return Result{}, err
	}
	ca := cursor{Timeline: a.Timeline, asleep: a.Wake - 1}
	cb := cursor{Timeline: b.Timeline, asleep: b.Wake - 1}
	horizon := max(ca.asleep+ca.rounds, cb.asleep+cb.rounds)

	// gap = (posB - posA) mod n at the end of each round; the agents
	// meet when it reaches 0. The rates change only at run boundaries,
	// so the scan jumps from one boundary of either timeline to the
	// next.
	gap := ((b.Start-a.Start)%n + n) % n
	for t := 0; t < horizon; {
		rA, untilA := ca.next(t, horizon)
		rB, untilB := cb.next(t, horizon)
		end := min(untilA, untilB)
		length := end - t
		delta := rB - rA

		if delta != 0 {
			// gap moves by delta each round; find the first round where
			// it hits 0 mod n.
			steps := n - gap
			if delta < 0 {
				steps = gap
			}
			if steps <= length {
				meet := t + steps
				return Result{Met: true, Round: meet, CostA: ca.cost(meet), CostB: cb.cost(meet)}, nil
			}
		}
		gap = ((gap+delta*length)%n + n) % n
		t = end
	}
	return Result{CostA: ca.explored, CostB: cb.explored}, nil
}

// cursor walks one agent's timeline in rounds since the earlier wake.
type cursor struct {
	Timeline
	asleep int // rounds before the agent wakes: Wake-1
	i      int // the run in effect; len(runs) once the schedule is over
}

// next returns the agent's rate in round t+1 and the last round that
// rate lasts until; once the schedule is over the agent idles until the
// horizon. t never decreases between calls. While the agent sleeps its
// rate is 0, which a leading wait run continues.
func (c *cursor) next(t, horizon int) (rate, until int) {
	for c.i < len(c.runs) && c.asleep+c.runs[c.i].end <= t {
		c.i++
	}
	if c.i == len(c.runs) {
		return 0, horizon
	}
	r := c.runs[c.i]
	if t < c.asleep && r.rate != 0 {
		return 0, c.asleep
	}
	return r.rate, c.asleep + r.end
}

// cost returns the agent's edge traversals in rounds 1..t, for a round
// t inside the span next last returned.
func (c *cursor) cost(t int) int {
	if c.i == len(c.runs) {
		return c.explored
	}
	r := c.runs[c.i]
	k := t - c.asleep
	if k <= r.start {
		return r.before
	}
	return r.before + r.rate*(k-r.start)
}

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
// with the explore rounds done before each. The paper's algorithms are
// cheap because agents wait: a FastWithRelabeling(1) schedule at
// L = 4096 is 8,193 segments but at most 4 runs.
//
// The rates depend only on the two timelines and the wake rounds, never
// on where the agents start: the start pair only sets the initial gap,
// its offset (startB - startA) mod n. So Walk executes two timelines
// from a whole list of start pairs at once, in one walk with one cursor
// per timeline. The offsets that have not met keep their order, so each
// interval settles the ones it closes from one end of that order: a
// walk costs O(runs A + runs B + start pairs), independent of E and of
// how long the agents wait, and it divides nowhere and allocates
// nothing. An interval in which exactly one agent moves for n-1 rounds
// or more closes every offset still open. Meet is the walk of one start
// pair, and Run is Compile plus Meet. Starts must be distinct nodes in
// [0, n), checked the way sim.Run checks them, never reduced mod n.
//
// This makes exhaustive adversarial sweeps feasible at label-space
// sizes far beyond what the general simulator can touch (the
// experiment on the paper's open problem, E14, uses it at L = 4096).
// Sweeps run through the adversary engine, whose ring tier
// (adversary.TierRing) lowers each label once per shard and walks each
// label pair once per delay.
//
// Results are bit-for-bit equal to sim.Run with
// explore.OrientedRingSweep; the test suite checks the equivalence
// exhaustively on small spaces and by fuzzing long runs.
package ringsim

import (
	"errors"
	"fmt"
	"slices"

	"rendezvous/internal/sim"
)

// Agent is one agent in the segment-level model.
type Agent struct {
	// Schedule is the agent's sequence of E-round explore/wait segments.
	Schedule sim.Schedule
	// Start is the agent's starting node on the ring, in [0, n).
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
	ErrSameStart     = errors.New("ringsim: agents must start at distinct nodes")
	ErrStartOutRange = errors.New("ringsim: start node out of range")
	ErrBadWake       = errors.New("ringsim: earlier agent must wake in round 1")
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
// schedule many times compile it once and call Walk.
func Run(n int, a, b Agent) (Result, error) {
	if err := check(n, a.Start, b.Start, a.Wake, b.Wake); err != nil {
		return Result{}, err
	}
	return Meet(n,
		Placed{Timeline: Compile(n, a.Schedule), Start: a.Start, Wake: a.Wake},
		Placed{Timeline: Compile(n, b.Schedule), Start: b.Start, Wake: b.Wake})
}

// check is the general simulator's validation of a configuration, in
// its order: distinct starts, then starts in range, then the wakes.
func check(n, startA, startB, wakeA, wakeB int) error {
	if err := checkStarts(n, startA, startB); err != nil {
		return err
	}
	return checkWakes(wakeA, wakeB)
}

func checkStarts(n, startA, startB int) error {
	if startA == startB {
		return ErrSameStart
	}
	if startA < 0 || startA >= n || startB < 0 || startB >= n {
		return ErrStartOutRange
	}
	return nil
}

func checkWakes(wakeA, wakeB int) error {
	if min(wakeA, wakeB) != 1 {
		return ErrBadWake
	}
	return nil
}

// offset is the start pair's gap (startB - startA) mod n, for starts
// check accepted.
func offset(n, startA, startB int) int {
	d := startB - startA
	if d < 0 {
		d += n
	}
	return d
}

// Meet is the ring executor for one start pair: the first meeting of
// two agents whose schedules were compiled for the ring of size n,
// exactly as sim.Run would find it with the ring sweep. It is Walk's
// one-offset case: O(runs A + runs B), and it allocates nothing. The
// agents are watched until the later of their schedules ends (wake-1
// plus the schedule's rounds); agents that have not met by then never
// do, and each is charged its whole schedule's explore rounds. Starts
// must be distinct nodes in [0, n) (ErrSameStart, ErrStartOutRange),
// and the earlier agent must wake in round 1 (ErrBadWake).
func Meet(n int, a, b Placed) (Result, error) {
	if err := check(n, a.Start, b.Start, a.Wake, b.Wake); err != nil {
		return Result{}, err
	}
	var out [1]Result
	walk(n, a.Timeline, b.Timeline, a.Wake, b.Wake, []int{offset(n, a.Start, b.Start)}, []int{0}, out[:])
	return out[0], nil
}

// Starts is a list of start pairs prepared for Walk, for one ring size.
// An execution depends on its start pair only through the pair's
// offset, so Walk resolves each distinct offset once and copies the
// result to every pair that shares it. A Starts is read-only once
// prepared and may serve any number of concurrent walks.
type Starts struct {
	n     int
	gaps  []int // the distinct offsets, ascending
	first []int // first[j]: the first listed pair whose offset is gaps[j]
	of    []int // of[i]: the index in gaps of pair i's offset
}

// NewStarts validates the start pairs for the ring of size n as sim.Run
// does — distinct nodes in [0, n), else ErrSameStart or
// ErrStartOutRange, wrapped with the first failing pair — and prepares
// them for Walk. The list may hold duplicates and be in any order.
func NewStarts(n int, pairs [][2]int) (Starts, error) {
	offsets := make([]int, len(pairs))
	for i, p := range pairs {
		if err := checkStarts(n, p[0], p[1]); err != nil {
			return Starts{}, fmt.Errorf("ringsim: start pair %d (%d, %d): %w", i, p[0], p[1], err)
		}
		offsets[i] = offset(n, p[0], p[1])
	}
	gaps := slices.Compact(slices.Sorted(slices.Values(offsets)))
	// of takes over offsets' storage, each entry read before it is
	// overwritten; scanning backwards leaves the first pair of each
	// offset in first.
	s := Starts{n: n, gaps: gaps, first: make([]int, len(gaps)), of: offsets}
	for i := len(offsets) - 1; i >= 0; i-- {
		j, _ := slices.BinarySearch(gaps, offsets[i])
		s.of[i], s.first[j] = j, i
	}
	return s, nil
}

// Walk executes agent A's timeline, waking in round wakeA, against agent
// B's, waking in round wakeB, from every start pair of starts at once,
// and writes the result of the i-th listed pair to out[i], exactly as
// Meet would for that pair alone. It walks the two timelines once:
// O(runs A + runs B + start pairs), no division and no allocation.
// The earlier agent must wake in round 1 (ErrBadWake); out must hold a
// result per listed pair, and the timelines must be compiled for the
// ring starts was prepared for.
func Walk(a, b Timeline, wakeA, wakeB int, starts Starts, out []Result) error {
	if err := checkWakes(wakeA, wakeB); err != nil {
		return err
	}
	if len(out) < len(starts.of) {
		panic(fmt.Sprintf("ringsim: Walk: %d results for %d start pairs", len(out), len(starts.of)))
	}
	walk(starts.n, a, b, wakeA, wakeB, starts.gaps, starts.first, out)
	if len(starts.gaps) < len(starts.of) {
		for i, j := range starts.of {
			if k := starts.first[j]; k != i {
				out[i] = out[k]
			}
		}
	}
	return nil
}

// walk is the ring executor: it executes the two timelines from every
// offset of gaps — distinct, ascending, in [1, n) — and writes the
// result for gaps[j] to out[dst[j]].
//
// An offset's gap is (posB - posA) mod n at the end of each round; the
// agents meet when it reaches 0. The rates change only at run
// boundaries, so the scan jumps from one boundary of either timeline to
// the next, and within an interval every open gap moves by the same
// delta each round. An open offset's gap is therefore its offset plus
// one shared shift, and it stays inside (0, n) — a gap that would leave
// that range meets instead — so no gap is ever reduced mod n, and the
// open offsets gaps[lo:hi] keep their order: growing gaps reach n from
// the top of the order first, shrinking ones reach 0 from the bottom.
func walk(n int, a, b Timeline, wakeA, wakeB int, gaps, dst []int, out []Result) {
	ca := cursor{Timeline: a, asleep: wakeA - 1}
	cb := cursor{Timeline: b, asleep: wakeB - 1}
	horizon := max(ca.asleep+ca.rounds, cb.asleep+cb.rounds)
	lo, hi, shift := 0, len(gaps), 0
	for t := 0; lo < hi && t < horizon; {
		rA, untilA := ca.next(t, horizon)
		rB, untilB := cb.next(t, horizon)
		end := min(untilA, untilB)
		length := end - t
		switch rB - rA {
		case 1:
			// B gains a node a round: a gap c reaches n after n-c
			// rounds, so the largest gaps meet first.
			for lo < hi && gaps[hi-1]+shift+length >= n {
				hi--
				meet := t + n - gaps[hi] - shift
				out[dst[hi]] = Result{Met: true, Round: meet, CostA: ca.cost(meet), CostB: cb.cost(meet)}
			}
			shift += length
		case -1:
			// A gains a node a round: a gap c reaches 0 after c
			// rounds, so the smallest gaps meet first.
			for lo < hi && gaps[lo]+shift <= length {
				meet := t + gaps[lo] + shift
				out[dst[lo]] = Result{Met: true, Round: meet, CostA: ca.cost(meet), CostB: cb.cost(meet)}
				lo++
			}
			shift -= length
		}
		t = end
	}
	for j := lo; j < hi; j++ {
		out[dst[j]] = Result{CostA: ca.explored, CostB: cb.explored}
	}
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

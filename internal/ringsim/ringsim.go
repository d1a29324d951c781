// Package ringsim is an exact, segment-level executor for rendezvous
// schedules on the oriented ring with the optimal clockwise sweep as
// EXPLORE (the Section 3 setting: E = n-1).
//
// Package sim simulates round by round, costing O(schedule·E) per
// execution. On the oriented ring every schedule segment moves an agent
// at a constant rate (+1 node per round while exploring, 0 while
// waiting or asleep), so the gap between two agents changes linearly
// within any interval where both rates are constant, and the first
// crossing of zero can be computed in O(1) per interval. This executor
// therefore runs in O(|schedule A| + |schedule B|) per execution —
// independent of E — which makes exhaustive adversarial sweeps feasible
// at label-space sizes far beyond what the general simulator can touch
// (the experiment on the paper's open problem, E14, uses it at
// L = 4096). Sweeps run through the adversary engine, whose ring tier
// (adversary.TierRing) calls Run once per configuration.
//
// Results are bit-for-bit equal to sim.Run with
// explore.OrientedRingSweep; the test suite checks the equivalence
// exhaustively on randomized schedules.
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

// phase is a maximal interval of constant movement rate.
type phase struct {
	until int // inclusive last round of the phase
	rate  int // 0 or 1 (the sweep only moves clockwise)
}

// phases expands an agent into its rate timeline: asleep (rate 0) until
// Wake-1, then one phase per segment of E rounds each, then idle
// forever (represented implicitly).
func phases(a Agent, e int) []phase {
	ps := make([]phase, 0, len(a.Schedule)+1)
	t := a.Wake - 1
	if t > 0 {
		ps = append(ps, phase{until: t, rate: 0})
	}
	for _, seg := range a.Schedule {
		t += e
		rate := 0
		if seg == sim.SegmentExplore {
			rate = 1
		}
		// Merge with the previous phase when the rate is unchanged, to
		// keep the sweep loop short.
		if len(ps) > 0 && ps[len(ps)-1].rate == rate {
			ps[len(ps)-1].until = t
			continue
		}
		ps = append(ps, phase{until: t, rate: rate})
	}
	return ps
}

// Run computes the first meeting of the two agents on the oriented ring
// of size n (E = n-1), exactly as sim.Run would with the ring sweep.
func Run(n int, a, b Agent) (Result, error) {
	if ((a.Start-b.Start)%n+n)%n == 0 {
		return Result{}, ErrSameStart
	}
	if min(a.Wake, b.Wake) != 1 {
		return Result{}, ErrBadWake
	}
	e := n - 1
	pa := phases(a, e)
	pb := phases(b, e)

	// gap = (posB - posA) mod n at the end of each round; the agents
	// meet when it reaches 0. Rates rA, rB change only at phase
	// boundaries; sweep both timelines with two pointers.
	gap := ((b.Start-a.Start)%n + n) % n
	t := 0 // rounds processed so far
	ia, ib := 0, 0
	horizon := max(endOf(pa), endOf(pb))

	for t < horizon {
		rA, untilA := rateAt(pa, ia, t)
		rB, untilB := rateAt(pb, ib, t)
		segEnd := min(untilA, untilB, horizon)
		length := segEnd - t
		delta := rB - rA

		if delta != 0 {
			// gap moves by delta each round; find the first round where
			// it hits 0 mod n.
			var steps int
			if delta < 0 {
				steps = gap
			} else {
				steps = n - gap
			}
			if steps <= length {
				meet := t + steps
				return Result{
					Met:   true,
					Round: meet,
					CostA: costUntil(a, e, meet),
					CostB: costUntil(b, e, meet),
				}, nil
			}
		}
		gap = ((gap+delta*length)%n + n) % n
		t = segEnd
		for ia < len(pa) && pa[ia].until <= t {
			ia++
		}
		for ib < len(pb) && pb[ib].until <= t {
			ib++
		}
	}
	return Result{
		Met:   false,
		CostA: costUntil(a, e, horizon),
		CostB: costUntil(b, e, horizon),
	}, nil
}

// rateAt returns the rate in effect after round t and the last round it
// lasts until, given the phase index cursor.
func rateAt(ps []phase, i, t int) (rate, until int) {
	if i >= len(ps) {
		return 0, int(^uint(0) >> 1) // idle forever
	}
	return ps[i].rate, ps[i].until
}

// endOf returns the last scheduled round of a phase list.
func endOf(ps []phase) int {
	if len(ps) == 0 {
		return 0
	}
	return ps[len(ps)-1].until
}

// costUntil returns the agent's edge traversals in rounds 1..t: the
// overlap of [wake, t] with its exploration segments.
func costUntil(a Agent, e, t int) int {
	cost := 0
	segStart := a.Wake - 1 // rounds before the segment begins
	for _, seg := range a.Schedule {
		segEnd := segStart + e
		if seg == sim.SegmentExplore {
			hi := min(segEnd, t)
			if hi > segStart {
				cost += hi - segStart
			}
		}
		segStart = segEnd
		if segStart >= t {
			break
		}
	}
	return cost
}

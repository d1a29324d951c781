package model

import (
	"context"
	"fmt"

	"rendezvous/internal/explore"
	"rendezvous/internal/graph"
	"rendezvous/internal/sim"
)

// maxDynamicPeriod caps the total phase period in rounds: the compiled
// plan materialises one phase index per round of the period, so an
// unbounded period would let one model allocate without limit.
const maxDynamicPeriod = 1 << 20

// Phase is one step of a dynamic graph's periodic edge schedule: for
// Rounds consecutive rounds, every edge listed in Disable is absent
// from the graph.
type Phase struct {
	// Rounds is the phase duration in rounds (>= 1).
	Rounds int `json:"rounds"`
	// Disable lists the edges absent during the phase, each as an
	// unordered {u, v} endpoint pair of an edge of the base graph.
	Disable [][2]int `json:"disable,omitempty"`
}

// Dynamic is the dynamic-graph rendezvous model: the paper's two-agent
// delay-adversary game played on a graph whose edge set changes on a
// declared schedule. The base graph is port-labeled and fixed; the
// phases cycle forever, starting at global round 1, and during a phase
// its disabled edges cannot be traversed.
//
// Agents still follow their compiled schedules (wait/explore segments
// expanded against the base graph's explorer), but execution differs
// from the static model in one rule: a step whose traversal is
// impossible in the current round — the planned edge is disabled, or
// the planned port does not exist at the node the agent actually
// occupies (blocked moves can displace it from the path its
// exploration plan assumed) — is spent waiting. The round is consumed,
// no edge is traversed, no cost accrues. Because blocking depends only
// on the global round number, each agent's trajectory is still a solo
// function of (label, start, wake round), and its shards sweep them
// with sim.Sweep, the loop the static generic tier runs.
//
// Dynamic runs exclusively on the generic tier: the fast tiers'
// precomputed tables and segment algebra assume a fixed edge set.
// Symmetry reduction is likewise not applied — an automorphism of the
// base graph need not preserve the phase schedule's edges.
type Dynamic struct {
	// Graph is the port-labeled base graph.
	Graph *graph.Graph
	// Explorer is the EXPLORE procedure, planned against the base
	// graph.
	Explorer explore.Explorer
	// ScheduleFor maps a label to its schedule; same contract as
	// adversary.Spec.ScheduleFor (deterministic, safe for concurrent
	// use).
	ScheduleFor func(label int) sim.Schedule
	// Space is the configuration space, with sim.SearchSpace's
	// defaults and validation.
	Space sim.SearchSpace
	// Phases is the periodic edge schedule (>= 1 phase). A single
	// phase disabling nothing reproduces the static model's outcomes.
	Phases []Phase
}

// Name implements Model.
func (m Dynamic) Name() string { return "dynamic" }

// validate checks everything about the model except the space (which
// Expand validates with its own messages).
func (m Dynamic) validate() error {
	if m.Graph == nil || m.Explorer == nil || m.ScheduleFor == nil {
		return fmt.Errorf("model: dynamic: Graph, Explorer and ScheduleFor are all required")
	}
	if len(m.Phases) == 0 {
		return fmt.Errorf("model: dynamic: need at least one phase")
	}
	period := 0
	for i, ph := range m.Phases {
		if ph.Rounds < 1 {
			return fmt.Errorf("model: dynamic: phases[%d]: rounds must be >= 1 (got %d)", i, ph.Rounds)
		}
		period += ph.Rounds
		if period > maxDynamicPeriod {
			return fmt.Errorf("model: dynamic: phase period exceeds %d rounds", maxDynamicPeriod)
		}
		for j, e := range ph.Disable {
			if !hasEdge(m.Graph, e[0], e[1]) {
				return fmt.Errorf("model: dynamic: phases[%d].disable[%d] = %v: not an edge of the base graph", i, j, e)
			}
		}
	}
	return nil
}

// phasePlan is the compiled periodic schedule: one phase index per
// round offset of the period, plus each phase's disabled-edge set
// keyed by normalized (min, max) endpoints.
type phasePlan struct {
	period   int
	phaseAt  []int
	disabled []map[[2]int]bool
}

func (m Dynamic) compilePhases() phasePlan {
	period := 0
	for _, ph := range m.Phases {
		period += ph.Rounds
	}
	pp := phasePlan{period: period, phaseAt: make([]int, 0, period), disabled: make([]map[[2]int]bool, len(m.Phases))}
	for i, ph := range m.Phases {
		set := make(map[[2]int]bool, len(ph.Disable))
		for _, e := range ph.Disable {
			set[normEdge(e[0], e[1])] = true
		}
		pp.disabled[i] = set
		for r := 0; r < ph.Rounds; r++ {
			pp.phaseAt = append(pp.phaseAt, i)
		}
	}
	return pp
}

func normEdge(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

// hasEdge reports whether {u, v} is an edge of g, by port scan.
func hasEdge(g *graph.Graph, u, v int) bool {
	if u < 0 || u >= g.N() || v < 0 || v >= g.N() || u == v {
		return false
	}
	for p := 0; p < g.Degree(u); p++ {
		if to, _ := g.Neighbor(u, p); to == v {
			return true
		}
	}
	return false
}

// blocked reports whether the edge {u, v} is disabled in global round
// t >= 1 (agents wake in round 1 + delay, and Expand admits no
// negative delay).
func (pp phasePlan) blocked(u, v, t int) bool {
	return pp.disabled[pp.phaseAt[(t-1)%pp.period]][normEdge(u, v)]
}

// compileTrajectory is the dynamic analogue of sim.CompileTrajectory:
// it expands the schedule into rounds, but executes each step against
// the round's edge set. wake is the agent's 1-based global wake round;
// the k-th round of the returned trajectory happens in global round
// wake + k - 1. Steps that cannot traverse — disabled edge, or a port
// that does not exist at the agent's actual node — are spent waiting.
// start is a node of the graph: Compile passes only the start pairs
// Expand accepted.
func (m Dynamic) compileTrajectory(pp phasePlan, start int, sched sim.Schedule, wake int) (sim.Trajectory, error) {
	g := m.Graph
	e := m.Explorer.Duration(g)
	pos := make([]int, 1, len(sched)*e+1)
	moves := make([]int, 1, len(sched)*e+1)
	pos[0] = start

	cur := start
	t := wake
	for i, seg := range sched {
		switch seg {
		case sim.SegmentWait:
			for r := 0; r < e; r++ {
				pos = append(pos, cur)
				moves = append(moves, moves[len(moves)-1])
				t++
			}
		case sim.SegmentExplore:
			plan, err := m.Explorer.Plan(g, cur)
			if err != nil {
				return sim.Trajectory{}, fmt.Errorf("model: dynamic: segment %d: %w", i, err)
			}
			if len(plan) != e {
				return sim.Trajectory{}, fmt.Errorf("model: dynamic: segment %d: plan has %d steps, want E = %d", i, len(plan), e)
			}
			for _, step := range plan {
				moved := false
				if step != explore.Wait && step >= 0 && step < g.Degree(cur) {
					if to, _ := g.Neighbor(cur, step); !pp.blocked(cur, to, t) {
						cur = to
						moved = true
					}
				}
				pos = append(pos, cur)
				if moved {
					moves = append(moves, moves[len(moves)-1]+1)
				} else {
					moves = append(moves, moves[len(moves)-1])
				}
				t++
			}
		default:
			return sim.Trajectory{}, fmt.Errorf("model: dynamic: segment %d: unknown segment kind %d", i, seg)
		}
	}
	return sim.Trajectory{Pos: pos, Moves: moves}, nil
}

// Units implements Model: the label-pair count of the expanded space.
func (m Dynamic) Units() (int, error) {
	if err := m.validate(); err != nil {
		return 0, err
	}
	labelPairs, _, _, err := m.Space.Expand(m.Graph.N())
	if err != nil {
		return 0, err
	}
	return len(labelPairs), nil
}

// Compile implements Model: every shard runs sim.Sweep over
// wake-dependent dynamic trajectories, through a private trajectory
// cache keyed by (label, start, wake), so the hot path takes no locks.
func (m Dynamic) Compile() (*Compiled, error) {
	if err := m.validate(); err != nil {
		return nil, err
	}
	labelPairs, startPairs, delays, err := m.Space.Expand(m.Graph.N())
	if err != nil {
		return nil, err
	}
	pp := m.compilePhases()
	sweep := func(ctx context.Context, shard [][2]int) (sim.WorstCase, error) {
		cache := make(map[[3]int]sim.Trajectory)
		return sim.Sweep(ctx, shard, startPairs, delays, func(label, start, wake int) (sim.Trajectory, error) {
			key := [3]int{label, start, wake}
			if tr, ok := cache[key]; ok {
				return tr, nil
			}
			tr, err := m.compileTrajectory(pp, start, m.ScheduleFor(label), wake)
			if err != nil {
				return sim.Trajectory{}, fmt.Errorf("model: dynamic: label %d start %d wake %d: %w", label, start, wake, err)
			}
			cache[key] = tr
			return tr, nil
		})
	}
	return &Compiled{
		Tier:       "generic",
		LabelPairs: labelPairs,
		StartPairs: startPairs,
		Delays:     delays,
		Sweep:      sweep,
	}, nil
}

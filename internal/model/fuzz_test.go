package model_test

import (
	"fmt"
	"testing"

	"rendezvous/internal/adversary"
	"rendezvous/internal/core"
	"rendezvous/internal/explore"
	"rendezvous/internal/graph"
	"rendezvous/internal/model"
	"rendezvous/internal/sim"
)

// refDynamic is an independent reference executor for model.Dynamic,
// written from the rules in Dynamic's doc and sharing none of its
// trajectory machinery: it plays every configuration of the canonical
// enumeration (label pairs × start pairs × delays) round by round. In
// each round it advances every awake agent one step of its schedule,
// planning each EXPLORE segment at the node the agent occupies when
// the segment starts, spends a step whose edge is down (or whose port
// does not exist at that node) waiting, and then compares the two
// positions. The first round they coincide is the meeting; once both
// schedules have ended without one, the agents never meet.
func refDynamic(m model.Dynamic) (sim.WorstCase, error) {
	g := m.Graph
	e := m.Explorer.Duration(g)
	period := 0
	for _, ph := range m.Phases {
		period += ph.Rounds
	}
	// down reports whether edge {u, v} is disabled in global round t
	// (t >= 1: the fuzzed delays are never negative).
	down := func(u, v, t int) bool {
		off := (t - 1) % period
		for _, ph := range m.Phases {
			if off >= ph.Rounds {
				off -= ph.Rounds
				continue
			}
			for _, d := range ph.Disable {
				if d == [2]int{u, v} || d == [2]int{v, u} {
					return true
				}
			}
			return false
		}
		panic("unreachable: off < period")
	}

	// planAt memoizes the explorer's plan per node (a plan depends on
	// the graph and the node it starts from alone).
	plans := make(map[int][]int)
	planAt := func(v int) ([]int, error) {
		if plan, ok := plans[v]; ok {
			return plan, nil
		}
		plan, err := m.Explorer.Plan(g, v)
		if err != nil {
			return nil, err
		}
		if len(plan) != e {
			return nil, fmt.Errorf("plan has %d steps, want E = %d", len(plan), e)
		}
		plans[v] = plan
		return plan, nil
	}

	type agent struct {
		sched sim.Schedule
		wake  int
		pos   int
		moves int
		seg   int   // index of the segment being executed
		step  int   // rounds of that segment already played
		plan  []int // the current EXPLORE segment's ports
	}
	// advance plays agent a's part of global round t.
	advance := func(a *agent, t int) error {
		if t < a.wake || a.seg >= len(a.sched) {
			return nil // asleep, or its schedule has ended
		}
		switch a.sched[a.seg] {
		case sim.SegmentWait:
		case sim.SegmentExplore:
			if a.step == 0 {
				plan, err := planAt(a.pos)
				if err != nil {
					return err
				}
				a.plan = plan
			}
			if port := a.plan[a.step]; port != explore.Wait && port >= 0 && port < g.Degree(a.pos) {
				if to, _ := g.Neighbor(a.pos, port); !down(a.pos, to, t) {
					a.pos = to
					a.moves++
				}
			}
		default:
			return fmt.Errorf("unknown segment kind %d", a.sched[a.seg])
		}
		if a.step++; a.step == e {
			a.seg, a.step = a.seg+1, 0
		}
		return nil
	}
	done := func(a *agent, t int) bool { return t >= a.wake && a.seg >= len(a.sched) }

	wc := sim.WorstCase{AllMet: true}
	n, L := g.N(), m.Space.L
	for la := 1; la <= L; la++ {
		for lb := 1; lb <= L; lb++ {
			if la == lb {
				continue
			}
			for u := 0; u < n; u++ {
				for v := 0; v < n; v++ {
					if u == v {
						continue
					}
					for _, d := range m.Space.Delays {
						a := &agent{sched: m.ScheduleFor(la), wake: 1, pos: u}
						b := &agent{sched: m.ScheduleFor(lb), wake: 1 + d, pos: v}
						round := 0
						for t := 1; !done(a, t) || !done(b, t); t++ {
							if err := advance(a, t); err != nil {
								return sim.WorstCase{}, err
							}
							if err := advance(b, t); err != nil {
								return sim.WorstCase{}, err
							}
							if a.pos == b.pos {
								round = t
								break
							}
						}
						wc.Runs++
						if round == 0 {
							wc.AllMet = false
							continue
						}
						witness := func(value int) sim.Witness {
							return sim.Witness{LabelA: la, LabelB: lb, StartA: u, StartB: v, DelayB: d, Value: value}
						}
						if round > wc.Time.Value {
							wc.Time = witness(round)
						}
						if cost := a.moves + b.moves; cost > wc.Cost.Value {
							wc.Cost = witness(cost)
						}
					}
				}
			}
		}
	}
	return wc, nil
}

// fuzzDynamic decodes a small dynamic model from fuzz bytes: a ring,
// path, star or grid of at most 9 nodes, an explorer that supports it,
// one of four algorithms at L <= 4, two delays in [0, 2E], and 1-3
// phases of 1-8 rounds that each disable 0-2 edges (spelled in either
// endpoint order).
func fuzzDynamic(family, nb, exb, algob, Lb, d1, d2 byte, phases []byte) model.Dynamic {
	var g *graph.Graph
	switch family % 4 {
	case 0:
		g = graph.OrientedRing(3 + int(nb)%7) // 3..9
	case 1:
		g = graph.Path(2 + int(nb)%8) // 2..9
	case 2:
		g = graph.Star(3 + int(nb)%7) // 3..9
	default:
		dims := [][2]int{{1, 3}, {2, 2}, {2, 3}, {2, 4}, {3, 3}}[int(nb)%5]
		g = graph.Grid(dims[0], dims[1])
	}
	explorers := []explore.Explorer{explore.DFS{}, explore.RotorRouter{}}
	if graph.IsCanonicalOrientedRing(g) {
		explorers = append(explorers, explore.OrientedRingSweep{})
	}
	ex := explorers[int(exb)%len(explorers)]
	algo := []core.Algorithm{core.Cheap{}, core.CheapSimultaneous{}, core.Fast{}, core.NewFastWithRelabeling(2)}[int(algob)%4]
	L := 2 + int(Lb)%3 // 2..4

	var edges [][2]int
	for u := 0; u < g.N(); u++ {
		for p := 0; p < g.Degree(u); p++ {
			if v, _ := g.Neighbor(u, p); u < v {
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	next := func() int {
		if len(phases) == 0 {
			return 0
		}
		b := phases[0]
		phases = phases[1:]
		return int(b)
	}
	ps := make([]model.Phase, 1+next()%3)
	for i := range ps {
		ps[i].Rounds = 1 + next()%8
		for range next() % 3 {
			b := next()
			edge := edges[(b>>1)%len(edges)]
			if b&1 == 1 {
				edge[0], edge[1] = edge[1], edge[0]
			}
			ps[i].Disable = append(ps[i].Disable, edge)
		}
	}

	e := ex.Duration(g)
	params := core.Params{L: L}
	return model.Dynamic{
		Graph:       g,
		Explorer:    ex,
		ScheduleFor: func(l int) sim.Schedule { return algo.Schedule(l, params) },
		Space:       sim.SearchSpace{L: L, Delays: []int{int(d1) % (2*e + 1), int(d2) % (2*e + 1)}},
		Phases:      ps,
	}
}

// FuzzDynamicVsReference differences model.Dynamic, searched by the
// engine, against refDynamic on random small graphs, explorers,
// algorithms, delays and phase schedules: the full WorstCase —
// witnesses, Runs and AllMet — must agree bit for bit at one worker
// and at three.
func FuzzDynamicVsReference(f *testing.F) {
	f.Add(byte(0), byte(3), byte(0), byte(0), byte(1), byte(0), byte(5), []byte{1, 2, 1, 4, 3, 0})
	f.Add(byte(1), byte(2), byte(0), byte(2), byte(2), byte(1), byte(9), []byte{2, 0, 2, 1, 6, 3, 1, 2})
	f.Add(byte(2), byte(1), byte(1), byte(1), byte(0), byte(3), byte(0), []byte{0, 7, 1, 5})
	f.Add(byte(3), byte(4), byte(0), byte(3), byte(2), byte(2), byte(17), []byte{1, 1, 2, 9, 12, 4, 0})

	f.Fuzz(func(t *testing.T, family, nb, exb, algob, Lb, d1, d2 byte, phases []byte) {
		m := fuzzDynamic(family, nb, exb, algob, Lb, d1, d2, phases)
		want, err := refDynamic(m)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		for _, workers := range []int{1, 3} {
			got, err := adversary.SearchModel(m, adversary.Options{Workers: workers})
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if got != want {
				t.Fatalf("workers=%d diverged on %v with %s, phases %v, delays %v:\nreference: %+v\ndynamic:   %+v",
					workers, m.Graph, m.Explorer.Name(), m.Phases, m.Space.Delays, want, got)
			}
		}
	})
}

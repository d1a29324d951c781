package sim

import (
	"context"
	"errors"
	"testing"

	"rendezvous/internal/explore"
	"rendezvous/internal/graph"
)

// parityExplorer is a test double on the oriented ring: plans from an
// even start go clockwise (port 0), plans from an odd start go
// counterclockwise (port 1). On an even ring both directions cover all
// nodes in n-1 steps. It lets tests steer the two agents toward or
// across each other.
type parityExplorer struct{}

func (parityExplorer) Name() string                { return "parity" }
func (parityExplorer) Duration(g *graph.Graph) int { return g.N() - 1 }
func (parityExplorer) Plan(g *graph.Graph, start int) (explore.Plan, error) {
	port := start % 2
	p := make(explore.Plan, g.N()-1)
	for i := range p {
		p[i] = port
	}
	return p, nil
}

func TestCompileTrajectoryExplore(t *testing.T) {
	g := graph.OrientedRing(6)
	tr, err := CompileTrajectory(g, explore.OrientedRingSweep{}, 2, Schedule{SegmentExplore})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 5 {
		t.Fatalf("Len = %d, want 5", tr.Len())
	}
	want := []int{2, 3, 4, 5, 0, 1}
	for k, w := range want {
		if tr.At(k) != w {
			t.Errorf("At(%d) = %d, want %d", k, tr.At(k), w)
		}
		if tr.MovesAt(k) != k {
			t.Errorf("MovesAt(%d) = %d, want %d", k, tr.MovesAt(k), k)
		}
	}
}

func TestCompileTrajectoryWaitAndCompose(t *testing.T) {
	g := graph.OrientedRing(5)
	sched := Schedule{SegmentWait, SegmentExplore, SegmentWait, SegmentExplore}
	tr, err := CompileTrajectory(g, explore.OrientedRingSweep{}, 0, sched)
	if err != nil {
		t.Fatal(err)
	}
	e := 4
	if tr.Len() != 4*e {
		t.Fatalf("Len = %d, want %d", tr.Len(), 4*e)
	}
	// During the first wait the agent stays at 0.
	for k := 0; k <= e; k++ {
		if tr.At(k) != 0 {
			t.Errorf("At(%d) = %d, want 0 during wait", k, tr.At(k))
		}
	}
	// First exploration walks to node 4; second wait holds there; second
	// exploration continues clockwise from 4 back to 3.
	if got := tr.At(2 * e); got != 4 {
		t.Errorf("after first explore at %d, want 4", got)
	}
	if got := tr.At(3 * e); got != 4 {
		t.Errorf("after second wait at %d, want 4", got)
	}
	if got := tr.At(4 * e); got != 3 {
		t.Errorf("after second explore at %d, want 3", got)
	}
	if got := tr.MovesAt(4 * e); got != 2*e {
		t.Errorf("total moves = %d, want %d", got, 2*e)
	}
}

func TestTrajectoryBoundaries(t *testing.T) {
	g := graph.OrientedRing(4)
	tr, err := CompileTrajectory(g, explore.OrientedRingSweep{}, 1, Schedule{SegmentExplore})
	if err != nil {
		t.Fatal(err)
	}
	if tr.At(-3) != 1 {
		t.Error("At(negative) must return the start")
	}
	if tr.At(100) != tr.At(tr.Len()) {
		t.Error("At(beyond) must freeze at the final node")
	}
	if tr.MovesAt(-1) != 0 {
		t.Error("MovesAt(negative) must be 0")
	}
	if tr.MovesAt(100) != tr.MovesAt(tr.Len()) {
		t.Error("MovesAt(beyond) must freeze at the final count")
	}
}

func TestCompileTrajectoryErrors(t *testing.T) {
	g := graph.Path(4)
	if _, err := CompileTrajectory(g, explore.OrientedRingSweep{}, 0, Schedule{SegmentExplore}); err == nil {
		t.Error("ring sweep on a path: want error")
	}
	if _, err := CompileTrajectory(g, explore.DFS{}, 0, Schedule{Segment(99)}); err == nil {
		t.Error("unknown segment: want error")
	}
}

func TestRunSimpleMeeting(t *testing.T) {
	g := graph.OrientedRing(8)
	// A explores immediately; B waits one segment. A must find B at B's
	// start within E rounds.
	res, err := Run(Scenario{
		Graph:    g,
		Explorer: explore.OrientedRingSweep{},
		A:        AgentSpec{Label: 1, Start: 0, Wake: 1, Schedule: Schedule{SegmentExplore}},
		B:        AgentSpec{Label: 2, Start: 5, Wake: 1, Schedule: Schedule{SegmentWait}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met {
		t.Fatal("agents did not meet")
	}
	if res.Node != 5 {
		t.Errorf("meeting node = %d, want 5", res.Node)
	}
	if res.Round != 5 {
		t.Errorf("meeting round = %d, want 5 (clockwise distance 0->5)", res.Round)
	}
	if res.Cost() != 5 || res.CostA != 5 || res.CostB != 0 {
		t.Errorf("cost = (%d,%d), want (5,0)", res.CostA, res.CostB)
	}
	if res.Time() != res.Round {
		t.Errorf("Time() = %d, want %d", res.Time(), res.Round)
	}
}

func TestRunSleepingAgentCanBeFound(t *testing.T) {
	g := graph.OrientedRing(6)
	// B wakes far in the future; in the default model it rests at its
	// start from round 0 and A finds it during A's first exploration.
	res, err := Run(Scenario{
		Graph:    g,
		Explorer: explore.OrientedRingSweep{},
		A:        AgentSpec{Label: 1, Start: 0, Wake: 1, Schedule: Schedule{SegmentExplore}},
		B:        AgentSpec{Label: 2, Start: 3, Wake: 100, Schedule: Schedule{SegmentExplore}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met || res.Round != 3 || res.CostB != 0 {
		t.Errorf("got %+v, want meeting at round 3 with sleeping B", res)
	}
}

func TestRunParachutedAgentAbsentBeforeWake(t *testing.T) {
	g := graph.OrientedRing(6)
	sc := Scenario{
		Graph:      g,
		Explorer:   explore.OrientedRingSweep{},
		A:          AgentSpec{Label: 1, Start: 0, Wake: 1, Schedule: Schedule{SegmentExplore}},
		B:          AgentSpec{Label: 2, Start: 3, Wake: 100, Schedule: Schedule{SegmentWait}},
		Parachuted: true,
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Met {
		t.Errorf("parachuted B (wake 100) was met at round %d; A's schedule ends at round 5", res.Round)
	}
	// Same scenario in the default model: meeting at round 3.
	sc.Parachuted = false
	res, err = Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met || res.Round != 3 {
		t.Errorf("default model: got %+v, want meeting at round 3", res)
	}
}

func TestRunCrossingEdgeIsNotAMeeting(t *testing.T) {
	// On an even oriented ring, A (even start) walks clockwise while B
	// (odd start, adjacent) walks counterclockwise: they swap positions
	// across shared edges every round and must never be considered met.
	g := graph.OrientedRing(4)
	res, err := Run(Scenario{
		Graph:    g,
		Explorer: parityExplorer{},
		A:        AgentSpec{Label: 1, Start: 0, Wake: 1, Schedule: Schedule{SegmentExplore}},
		B:        AgentSpec{Label: 2, Start: 1, Wake: 1, Schedule: Schedule{SegmentExplore}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Met {
		t.Errorf("edge-crossing counted as meeting at round %d", res.Round)
	}
}

func TestRunValidation(t *testing.T) {
	g := graph.OrientedRing(5)
	ex := explore.OrientedRingSweep{}
	base := Scenario{
		Graph:    g,
		Explorer: ex,
		A:        AgentSpec{Label: 1, Start: 0, Wake: 1, Schedule: Schedule{SegmentExplore}},
		B:        AgentSpec{Label: 2, Start: 1, Wake: 1, Schedule: Schedule{SegmentWait}},
	}
	tests := []struct {
		name   string
		mutate func(*Scenario)
		want   error
	}{
		{"same start", func(s *Scenario) { s.B.Start = s.A.Start }, ErrSameStart},
		{"same label", func(s *Scenario) { s.B.Label = s.A.Label }, ErrSameLabel},
		{"no early wake", func(s *Scenario) { s.A.Wake = 2; s.B.Wake = 3 }, ErrBadWake},
		{"start out of range", func(s *Scenario) { s.B.Start = 17 }, ErrStartOutRange},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			sc := base
			tt.mutate(&sc)
			if _, err := Run(sc); !errors.Is(err, tt.want) {
				t.Errorf("err = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestScheduleHelpers(t *testing.T) {
	s := FromBits([]byte{1, 0, 0, 1, 1})
	want := Schedule{SegmentExplore, SegmentWait, SegmentWait, SegmentExplore, SegmentExplore}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("FromBits = %v, want %v", s, want)
		}
	}
	if got := s.Explorations(); got != 3 {
		t.Errorf("Explorations = %d, want 3", got)
	}
	if got := s.Rounds(7); got != 35 {
		t.Errorf("Rounds(7) = %d, want 35", got)
	}
	if SegmentWait.String() != "wait" || SegmentExplore.String() != "explore" {
		t.Error("Segment.String broken")
	}
}

func TestSearchFindsWorstCase(t *testing.T) {
	g := graph.OrientedRing(8)
	// Oracle baseline: label 1 waits forever (one wait segment), label 2
	// explores once. Worst time over all start pairs is E (B needs the
	// full sweep to reach the node just behind it).
	scheduleFor := func(label int) Schedule {
		if label == 1 {
			return Schedule{SegmentWait}
		}
		return Schedule{SegmentExplore}
	}
	tc := NewTrajectories(g, explore.OrientedRingSweep{}, scheduleFor)
	wc, err := Search(context.Background(), tc, SearchSpace{L: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !wc.AllMet {
		t.Fatal("oracle baseline failed to always meet")
	}
	e := 7
	if wc.Time.Value != e {
		t.Errorf("worst time = %d, want E = %d", wc.Time.Value, e)
	}
	if wc.Cost.Value != e {
		t.Errorf("worst cost = %d, want E = %d", wc.Cost.Value, e)
	}
	if wc.Runs != 2*8*7 {
		t.Errorf("Runs = %d, want %d", wc.Runs, 2*8*7)
	}
}

func TestSearchDetectsNonMeeting(t *testing.T) {
	g := graph.OrientedRing(6)
	// Both labels explore immediately and forever stay in lockstep
	// rotation: same-direction sweeps never meet from distinct starts.
	scheduleFor := func(int) Schedule { return Schedule{SegmentExplore} }
	tc := NewTrajectories(g, explore.OrientedRingSweep{}, scheduleFor)
	wc, err := Search(context.Background(), tc, SearchSpace{L: 2})
	if err != nil {
		t.Fatal(err)
	}
	if wc.AllMet {
		t.Error("symmetric lockstep sweeps reported as always meeting")
	}
}

func TestSearchExplicitSpace(t *testing.T) {
	g := graph.OrientedRing(10)
	scheduleFor := func(label int) Schedule {
		if label == 3 {
			return Schedule{SegmentWait, SegmentWait}
		}
		return Schedule{SegmentExplore}
	}
	tc := NewTrajectories(g, explore.OrientedRingSweep{}, scheduleFor)
	wc, err := Search(context.Background(), tc, SearchSpace{
		LabelPairs: [][2]int{{7, 3}},
		StartPairs: [][2]int{{0, 9}},
		Delays:     []int{0, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if wc.Runs != 2 {
		t.Errorf("Runs = %d, want 2", wc.Runs)
	}
	if !wc.AllMet {
		t.Error("expected all executions to meet")
	}
	// Clockwise distance 0 -> 9 is 9 regardless of delay; worst time 9.
	if wc.Time.Value != 9 {
		t.Errorf("worst time = %d, want 9", wc.Time.Value)
	}
}

func TestSearchNeedsLabels(t *testing.T) {
	g := graph.OrientedRing(4)
	tc := NewTrajectories(g, explore.OrientedRingSweep{}, func(int) Schedule { return nil })
	if _, err := Search(context.Background(), tc, SearchSpace{L: 1}); err == nil {
		t.Error("L=1 with nil LabelPairs: want error")
	}
}

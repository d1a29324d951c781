package sim

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"rendezvous/internal/explore"
	"rendezvous/internal/graph"
)

// cheapLikeSchedule is a small standalone schedule family for tests
// (explore, wait ℓ times, explore), avoiding a dependency on core.
func cheapLikeSchedule(label int) Schedule {
	sched := Schedule{SegmentExplore}
	for i := 0; i < label; i++ {
		sched = append(sched, SegmentWait)
	}
	return append(sched, SegmentExplore)
}

// TestSearchCancellation: a cancelled context aborts the sweep with
// its error.
func TestSearchCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tc := NewTrajectories(graph.OrientedRing(8), explore.OrientedRingSweep{}, cheapLikeSchedule)
	if _, err := Search(ctx, tc, SearchSpace{L: 4}); err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestExpandDefaults checks the canonical enumeration the engine and
// its documentation promise.
func TestExpandDefaults(t *testing.T) {
	lp, sp, d, err := SearchSpace{L: 3}.Expand(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(lp) != 6 || len(sp) != 6 || len(d) != 1 || d[0] != 0 {
		t.Errorf("Expand: %v %v %v", lp, sp, d)
	}
	if lp[0] != [2]int{1, 2} || sp[0] != [2]int{0, 1} {
		t.Errorf("Expand order changed: %v %v", lp[0], sp[0])
	}
	if _, _, _, err := (SearchSpace{L: 1}).Expand(3); err == nil {
		t.Error("want error for L < 2")
	}
}

// TestSweepEmptyAxes: Sweep sweeps its slices as given, so a nil or an
// empty slice on any axis is an empty space — no default is applied.
func TestSweepEmptyAxes(t *testing.T) {
	tc := NewTrajectories(graph.OrientedRing(8), explore.OrientedRingSweep{}, cheapLikeSchedule)
	traj := func(label, start, _ int) (Trajectory, error) { return tc.Get(label, start) }
	labels, starts, delays := [][2]int{{1, 2}, {2, 1}}, [][2]int{{0, 3}, {4, 1}}, []int{0, 2}
	want := WorstCase{AllMet: true}
	for _, sc := range []struct {
		name           string
		labels, starts [][2]int
		delays         []int
	}{
		{"nil-labels", nil, starts, delays},
		{"empty-labels", [][2]int{}, starts, delays},
		{"nil-starts", labels, nil, delays},
		{"empty-starts", labels, [][2]int{}, delays},
		{"nil-delays", labels, starts, nil},
		{"empty-delays", labels, starts, []int{}},
	} {
		got, err := Sweep(context.Background(), sc.labels, sc.starts, sc.delays, traj)
		if err != nil || got != want {
			t.Errorf("%s: got %+v, %v; want %+v", sc.name, got, err, want)
		}
	}
}

// TestSweepWakeRounds: Sweep asks for agent A's trajectory at wake
// round 1 and agent B's at 1+d, in canonical order (label pairs ×
// start pairs × delays), and observes every configuration once.
func TestSweepWakeRounds(t *testing.T) {
	tc := NewTrajectories(graph.OrientedRing(8), explore.OrientedRingSweep{}, cheapLikeSchedule)
	labels, starts, delays := [][2]int{{1, 3}, {3, 2}}, [][2]int{{0, 3}, {6, 1}}, []int{0, 4}
	var calls [][3]int
	got, err := Sweep(context.Background(), labels, starts, delays, func(label, start, wake int) (Trajectory, error) {
		calls = append(calls, [3]int{label, start, wake})
		return tc.Get(label, start)
	})
	if err != nil {
		t.Fatal(err)
	}
	var want [][3]int
	for _, lp := range labels {
		for _, sp := range starts {
			want = append(want, [3]int{lp[0], sp[0], 1})
			for _, d := range delays {
				want = append(want, [3]int{lp[1], sp[1], 1 + d})
			}
		}
	}
	if fmt.Sprint(calls) != fmt.Sprint(want) {
		t.Errorf("traj calls\n got %v\nwant %v", calls, want)
	}
	if got.Runs != len(labels)*len(starts)*len(delays) || !got.AllMet {
		t.Errorf("Sweep = %+v, want %d runs, all met", got, len(labels)*len(starts)*len(delays))
	}
}

// TestSweepTrajError: an error from traj ends the sweep with that
// error.
func TestSweepTrajError(t *testing.T) {
	tc := NewTrajectories(graph.OrientedRing(8), explore.OrientedRingSweep{}, cheapLikeSchedule)
	boom := errors.New("boom")
	calls := 0
	wc, err := Sweep(context.Background(), [][2]int{{1, 2}, {2, 1}}, [][2]int{{0, 3}}, []int{0, 1}, func(label, start, _ int) (Trajectory, error) {
		if calls++; calls == 4 {
			return Trajectory{}, boom
		}
		return tc.Get(label, start)
	})
	if !errors.Is(err, boom) || wc != (WorstCase{}) {
		t.Errorf("got %+v, %v; want the zero WorstCase and %v", wc, err, boom)
	}
	if calls != 4 {
		t.Errorf("traj called %d times, want the sweep to stop at the failing 4th call", calls)
	}
}

// TestSweepCancellation: a cancelled context ends the sweep with its
// error.
func TestSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tc := NewTrajectories(graph.OrientedRing(8), explore.OrientedRingSweep{}, cheapLikeSchedule)
	traj := func(label, start, _ int) (Trajectory, error) { return tc.Get(label, start) }
	if _, err := Sweep(ctx, [][2]int{{1, 2}}, [][2]int{{0, 3}}, []int{0}, traj); err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

package sim

import (
	"context"
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

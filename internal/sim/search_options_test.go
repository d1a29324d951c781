package sim

import (
	"context"
	"testing"

	"rendezvous/internal/explore"
	"rendezvous/internal/graph"
)

// TestSearchSpaceExpandErrors is the table-driven error-path coverage
// for SearchSpace.Expand: invalid label spaces, graphs too small to
// form the default start-pair enumeration, and explicit pairs that
// violate the model (equal labels, labels below 1, equal starts) must
// fail up front, instead of silently producing a sweep the model does
// not define (the defaults were always validated; explicit pairs now
// are too).
func TestSearchSpaceExpandErrors(t *testing.T) {
	cases := []struct {
		name    string
		space   SearchSpace
		n       int
		wantErr bool
	}{
		{"default ok", SearchSpace{L: 2}, 4, false},
		{"L zero", SearchSpace{}, 4, true},
		{"L one", SearchSpace{L: 1}, 4, true},
		{"L negative", SearchSpace{L: -3}, 4, true},
		{"explicit label pairs bypass L", SearchSpace{LabelPairs: [][2]int{{1, 2}}}, 4, false},
		{"equal labels rejected", SearchSpace{LabelPairs: [][2]int{{1, 2}, {2, 2}}}, 4, true},
		{"zero label rejected", SearchSpace{LabelPairs: [][2]int{{0, 2}}}, 4, true},
		{"negative label rejected", SearchSpace{LabelPairs: [][2]int{{3, -1}}}, 4, true},
		{"single-node graph, default starts", SearchSpace{L: 2}, 1, true},
		{"zero-node graph, default starts", SearchSpace{L: 2}, 0, true},
		{"equal starts rejected", SearchSpace{L: 2, StartPairs: [][2]int{{0, 0}}}, 1, true},
		{"equal starts rejected among valid", SearchSpace{L: 2, StartPairs: [][2]int{{0, 1}, {3, 3}}}, 4, true},
		{"explicit distinct starts ok", SearchSpace{L: 2, StartPairs: [][2]int{{0, 1}}}, 4, false},
		{"out-of-range starts left to executors", SearchSpace{L: 2, StartPairs: [][2]int{{0, 9}}}, 4, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			labelPairs, startPairs, delays, err := tc.space.Expand(tc.n)
			if tc.wantErr {
				if err == nil {
					t.Fatal("want error")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(labelPairs) == 0 {
				t.Error("no label pairs")
			}
			if len(startPairs) == 0 {
				t.Error("no start pairs")
			}
			if len(delays) == 0 {
				t.Error("no delays")
			}
		})
	}
}

// TestSearchSpaceExpandDefaults pins the documented default
// enumeration: all ordered distinct pairs, in canonical order, and the
// {0} delay set.
func TestSearchSpaceExpandDefaults(t *testing.T) {
	labelPairs, startPairs, delays, err := SearchSpace{L: 3}.Expand(3)
	if err != nil {
		t.Fatal(err)
	}
	wantLabels := [][2]int{{1, 2}, {1, 3}, {2, 1}, {2, 3}, {3, 1}, {3, 2}}
	wantStarts := [][2]int{{0, 1}, {0, 2}, {1, 0}, {1, 2}, {2, 0}, {2, 1}}
	if len(labelPairs) != len(wantLabels) {
		t.Fatalf("labelPairs = %v", labelPairs)
	}
	for i := range wantLabels {
		if labelPairs[i] != wantLabels[i] {
			t.Fatalf("labelPairs[%d] = %v, want %v", i, labelPairs[i], wantLabels[i])
		}
	}
	for i := range wantStarts {
		if startPairs[i] != wantStarts[i] {
			t.Fatalf("startPairs[%d] = %v, want %v", i, startPairs[i], wantStarts[i])
		}
	}
	if len(delays) != 1 || delays[0] != 0 {
		t.Fatalf("delays = %v, want [0]", delays)
	}
}

// TestObserveUntilMeetingWitnesses pins the witness-update rule to the
// paper's until-meeting measures: an execution that never meets counts
// in Runs and flips AllMet but must update NEITHER witness — its
// accumulated schedule cost is an artifact of the simulation horizon,
// not a cost "until meeting". (Historically the Cost witness leaked
// such phantom costs while the Time witness correctly required Met;
// the segment-level ring engine always skipped both, so this also
// pins sim to ringsim's semantics.)
func TestObserveUntilMeetingWitnesses(t *testing.T) {
	wc := WorstCase{AllMet: true}
	wc.Observe(1, 2, 0, 3, 0, Result{Met: false, CostA: 500, CostB: 500})
	if wc.Cost.Value != 0 || wc.Time.Value != 0 {
		t.Fatalf("non-meeting execution leaked into a witness: %+v", wc)
	}
	if wc.AllMet || wc.Runs != 1 {
		t.Fatalf("non-meeting execution miscounted: %+v", wc)
	}
	wc.Observe(2, 1, 3, 0, 1, Result{Met: true, Round: 7, CostA: 2, CostB: 3})
	if wc.Time.Value != 7 || wc.Cost.Value != 5 {
		t.Fatalf("meeting execution not recorded: %+v", wc)
	}
	if want := (Witness{LabelA: 2, LabelB: 1, StartA: 3, StartB: 0, DelayB: 1, Value: 5}); wc.Cost != want {
		t.Fatalf("cost witness = %+v, want %+v", wc.Cost, want)
	}
	if wc.AllMet {
		t.Fatal("AllMet must stay false once any execution failed to meet")
	}
}

// TestSearchNonMeetingLeavesWitnessesEmpty is the integration form:
// lockstep same-direction sweeps on the oriented ring never meet, so
// the search must report the violation through AllMet while leaving
// both witnesses at their zero values instead of reporting the
// horizon-dependent schedule costs as a "worst case".
func TestSearchNonMeetingLeavesWitnessesEmpty(t *testing.T) {
	g := graph.OrientedRing(6)
	tc := NewTrajectories(g, explore.OrientedRingSweep{}, func(int) Schedule { return Schedule{SegmentExplore} })
	wc, err := Search(context.Background(), tc, SearchSpace{L: 2})
	if err != nil {
		t.Fatal(err)
	}
	if wc.AllMet {
		t.Fatal("lockstep sweeps reported as meeting")
	}
	if wc.Runs == 0 {
		t.Fatal("empty sweep")
	}
	if wc.Time != (Witness{}) || wc.Cost != (Witness{}) {
		t.Errorf("witnesses must stay empty when nothing meets: %+v", wc)
	}
}

package meetoracle

import (
	"runtime"
	"testing"

	"rendezvous/internal/explore"
	"rendezvous/internal/graph"
	"rendezvous/internal/sim"
)

// TestMeetBatchMatchesMeet is the unit-level differential for the
// 64-lane executor: over every schedule pair of length <= 3, every
// ordered distinct start pair (batched into partial and full lane
// blocks) and a delay sweep crossing E, MeetBatchWorst must reproduce
// what the scalar Meet reports to a sweep — the meeting round (0 when
// the agents never meet) and, when they meet, the combined cost —
// including the empty-schedule horizon-0 case and never-met outcomes.
func TestMeetBatchMatchesMeet(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		ex   explore.Explorer
	}{
		{"ring-5/sweep", graph.OrientedRing(5), explore.OrientedRingSweep{}},
		{"star-4/dfs", graph.Star(4), explore.DFS{}},
		{"grid-3x3/dfs", graph.Grid(3, 3), explore.DFS{}},
		{"torus-3x3/eulerian", graph.Torus(3, 3), explore.Eulerian{}},
	}
	all := allSchedules(3)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o, err := New(tc.g, tc.ex)
			if err != nil {
				t.Fatal(err)
			}
			n, e := o.N(), o.E()
			delays := []int{0, 1, e - 1, e, e + 1, 2*e + 1}
			o.PrepareBatch(delays)

			// All ordered distinct start pairs; on the 3x3 grid and torus
			// that is 72 pairs — a full 64-lane block plus a partial one.
			var starts [][2]int
			for a := 0; a < n; a++ {
				for b := 0; b < n; b++ {
					if a != b {
						starts = append(starts, [2]int{a, b})
					}
				}
			}
			lanesA := make([]Compiled, 0, BatchLanes)
			lanesB := make([]Compiled, 0, BatchLanes)
			rounds := make([]int, BatchLanes)
			costs := make([]int, BatchLanes)
			for _, sa := range all {
				for _, sb := range all {
					for base := 0; base < len(starts); base += BatchLanes {
						end := base + BatchLanes
						if end > len(starts) {
							end = len(starts)
						}
						block := starts[base:end]
						lanesA, lanesB = lanesA[:0], lanesB[:0]
						for _, sp := range block {
							ca, err := o.Compile(sp[0], sa)
							if err != nil {
								t.Fatal(err)
							}
							cb, err := o.Compile(sp[1], sb)
							if err != nil {
								t.Fatal(err)
							}
							lanesA = append(lanesA, ca)
							lanesB = append(lanesB, cb)
						}
						k := len(block)
						for _, d := range delays {
							o.MeetBatchWorst(lanesA, lanesB, d, rounds[:k], costs[:k])
							for i, sp := range block {
								want := o.Meet(lanesA[i], lanesB[i], 1, 1+d, false)
								if rounds[i] != want.Round || (want.Met && costs[i] != want.Cost()) {
									t.Fatalf("lane %d diverged (starts %v, delay %d):\nA: %v\nB: %v\nscalar: %+v\nbatch:  round %d cost %d",
										i, sp, d, sa, sb, want, rounds[i], costs[i])
								}
							}
						}
					}
				}
			}
		})
	}
}

// TestPrepareBatchCountsBuilds pins the observable build accounting the
// engine's prepared-before-fan-out test relies on: a fresh oracle has
// built nothing, PrepareBatch builds exactly one structure per phase
// plus the visit masks, repeated preparation is idempotent, and
// MeetBatchWorst on prepared delays builds nothing further.
func TestPrepareBatchCountsBuilds(t *testing.T) {
	g := graph.Grid(3, 3)
	o, err := New(g, explore.DFS{})
	if err != nil {
		t.Fatal(err)
	}
	e := o.E()
	delays := []int{0, 1, 5, e}
	if o.Prepared(delays) || o.BatchPrepared(delays) {
		t.Fatal("fresh oracle claims to be prepared")
	}
	if got := o.TableBuilds(); got != 0 {
		t.Fatalf("fresh oracle reports %d builds", got)
	}
	o.PrepareBatch(delays)
	if !o.Prepared(delays) || !o.BatchPrepared(delays) {
		t.Fatal("oracle not prepared after PrepareBatch")
	}
	want := int64(len(Phases(e, delays)) + 1) // slabs + visit masks
	builds := o.TableBuilds()
	if builds != want {
		t.Fatalf("PrepareBatch built %d structures, want %d", builds, want)
	}
	o.PrepareBatch(delays)
	o.Prepare(delays)
	if got := o.TableBuilds(); got != builds {
		t.Fatalf("repeated preparation rebuilt tables: %d -> %d builds", builds, got)
	}
	sched := sim.Schedule{sim.SegmentExplore, sim.SegmentWait, sim.SegmentExplore}
	ca, err := o.Compile(0, sched)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := o.Compile(4, sched)
	if err != nil {
		t.Fatal(err)
	}
	rounds, costs := make([]int, 1), make([]int, 1)
	for _, d := range delays {
		o.MeetBatchWorst([]Compiled{ca}, []Compiled{cb}, d, rounds, costs)
		o.Meet(ca, cb, 1, 1+d, false)
	}
	if got := o.TableBuilds(); got != builds {
		t.Fatalf("queries on prepared delays built %d further structures", got-builds)
	}
}

// TestMeetBatchMisuse pins the contract violations MeetBatchWorst
// rejects by panicking: empty and oversized batches, mismatched lane
// slices, short outputs, and negative delays.
func TestMeetBatchMisuse(t *testing.T) {
	o, err := New(graph.OrientedRing(4), explore.DFS{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := o.Compile(0, sim.Schedule{sim.SegmentExplore})
	if err != nil {
		t.Fatal(err)
	}
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: want panic", name)
			}
		}()
		fn()
	}
	rounds := make([]int, BatchLanes+1)
	costs := make([]int, BatchLanes+1)
	expectPanic("empty batch", func() {
		o.MeetBatchWorst(nil, nil, 0, nil, nil)
	})
	expectPanic("oversized batch", func() {
		as := make([]Compiled, BatchLanes+1)
		for i := range as {
			as[i] = c
		}
		o.MeetBatchWorst(as, as, 0, rounds, costs)
	})
	expectPanic("mismatched lanes", func() {
		o.MeetBatchWorst([]Compiled{c, c}, []Compiled{c}, 0, rounds[:2], costs[:2])
	})
	expectPanic("short rounds", func() {
		o.MeetBatchWorst([]Compiled{c, c}, []Compiled{c, c}, 0, rounds[:1], costs[:2])
	})
	expectPanic("short costs", func() {
		o.MeetBatchWorst([]Compiled{c, c}, []Compiled{c, c}, 0, rounds[:2], costs[:1])
	})
	expectPanic("negative delay", func() {
		o.MeetBatchWorst([]Compiled{c}, []Compiled{c}, -1, rounds[:1], costs[:1])
	})
}

// TestEstimateBatchBytesAccounting compares the budget-gate prediction
// against measured heap allocation on an oracle large enough to drown
// out allocator noise (16x16 grid, E = 510, ~10 MB of tables), so the
// estimates cannot silently drift from what New + PrepareBatch really
// allocate. The bound is deliberately loose — size-class rounding and
// per-pair hit-list slop are real — but catches any structural omission,
// which would show up as a 1.4x+ error.
func TestEstimateBatchBytesAccounting(t *testing.T) {
	g := graph.Grid(16, 16)
	ex := explore.DFS{}
	e := ex.Duration(g)
	delays := []int{0, 1, 3, e / 2, e, e + 5, 2 * e, 3*e + 1}
	phases := len(Phases(e, delays))

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	o, err := New(g, ex)
	if err != nil {
		t.Fatal(err)
	}
	o.PrepareBatch(delays)
	runtime.GC()
	runtime.ReadMemStats(&after)
	measured := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	runtime.KeepAlive(o)

	estimate := EstimateBatchBytes(g.N(), e, phases, len(delays))
	scalar := EstimateBytes(g.N(), e, phases)
	if estimate <= scalar {
		t.Fatalf("batch estimate %d not above scalar estimate %d", estimate, scalar)
	}
	ratio := float64(measured) / float64(estimate)
	t.Logf("measured %d bytes, estimated %d (ratio %.2f)", measured, estimate, ratio)
	if ratio < 0.5 || ratio > 1.5 {
		t.Errorf("EstimateBatchBytes drifted from measured allocation: measured %d, estimated %d, ratio %.2f (want within [0.5, 1.5])",
			measured, estimate, ratio)
	}
}

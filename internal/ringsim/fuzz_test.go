package ringsim

import (
	"math/rand"
	"testing"

	"rendezvous/internal/explore"
	"rendezvous/internal/graph"
	"rendezvous/internal/sim"
)

// fuzzSchedule decodes up to 12 runs from fuzz bytes, two bytes a run:
// the low bit of the first picks explore or wait, and the rest of the
// pair picks a length of 1..400 segments. Fewer than two bytes decode
// to the empty schedule.
func fuzzSchedule(raw []byte) sim.Schedule {
	var s sim.Schedule
	for i := 0; i+1 < len(raw) && i < 24; i += 2 {
		seg := sim.SegmentWait
		if raw[i]&1 == 1 {
			seg = sim.SegmentExplore
		}
		length := 1 + (int(raw[i]>>1)<<8|int(raw[i+1]))%400
		for range length {
			s = append(s, seg)
		}
	}
	return s
}

// FuzzRingVsSim differences the ring executor against the round-level
// simulator with the ring sweep, on schedules of long explore and wait
// runs — the shape that run merging and the cursors' jumps exist for —
// on rings of 3..16 nodes. Each input compiles one timeline pair and
// reuses it across several start pairs and wakes (either agent late,
// by up to the other's rounds plus 2n), so cursor state leaking from
// one execution into the next shows; Run, which compiles afresh, must
// agree on the first of them.
func FuzzRingVsSim(f *testing.F) {
	f.Add(uint8(5), int64(1), []byte{1, 3, 0, 200, 1, 0}, []byte{0, 9, 1, 1})
	f.Add(uint8(0), int64(2), []byte{}, []byte{1, 40})
	f.Add(uint8(13), int64(3), []byte{0, 255, 1, 2}, []byte{})
	f.Fuzz(func(t *testing.T, nb uint8, seed int64, rawA, rawB []byte) {
		n := 3 + int(nb)%14
		sa, sb := fuzzSchedule(rawA), fuzzSchedule(rawB)
		ta, tb := Compile(n, sa), Compile(n, sb)
		g := graph.OrientedRing(n)
		rng := rand.New(rand.NewSource(seed))
		for k := 0; k < 4; k++ {
			startA := rng.Intn(n)
			startB := (startA + 1 + rng.Intn(n-1)) % n
			wakeA, wakeB := 1, 1
			if rng.Intn(2) == 0 {
				wakeB += rng.Intn(len(sa)*(n-1) + 2*n + 1)
			} else {
				wakeA += rng.Intn(len(sb)*(n-1) + 2*n + 1)
			}
			want, werr := sim.Run(sim.Scenario{
				Graph:    g,
				Explorer: explore.OrientedRingSweep{},
				A:        sim.AgentSpec{Label: 1, Start: startA, Wake: wakeA, Schedule: sa},
				B:        sim.AgentSpec{Label: 2, Start: startB, Wake: wakeB, Schedule: sb},
			})
			got, gerr := Meet(n, Placed{Timeline: ta, Start: startA, Wake: wakeA}, Placed{Timeline: tb, Start: startB, Wake: wakeB})
			if (gerr != nil) != (werr != nil) || got.Met != want.Met || got.Round != want.Round ||
				got.CostA != want.CostA || got.CostB != want.CostB {
				t.Fatalf("n=%d starts (%d,%d) wakes (%d,%d) schedules %d/%d segments: Meet %+v err %v, sim %+v err %v",
					n, startA, startB, wakeA, wakeB, len(sa), len(sb), got, gerr, want, werr)
			}
			if k == 0 {
				run, rerr := Run(n, Agent{Schedule: sa, Start: startA, Wake: wakeA}, Agent{Schedule: sb, Start: startB, Wake: wakeB})
				if run != got || rerr != gerr {
					t.Fatalf("n=%d: Run %+v err %v, Meet over compiled timelines %+v err %v", n, run, rerr, got, gerr)
				}
			}
		}
	})
}

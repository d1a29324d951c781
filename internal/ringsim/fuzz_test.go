package ringsim

import (
	"errors"
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

// errKind names the validation error an executor returned, so that
// ringsim and sim can be required to refuse a configuration for the
// same reason; "" is no error.
func errKind(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrSameStart), errors.Is(err, sim.ErrSameStart):
		return "same start"
	case errors.Is(err, ErrStartOutRange), errors.Is(err, sim.ErrStartOutRange):
		return "start out of range"
	case errors.Is(err, ErrBadWake), errors.Is(err, sim.ErrBadWake):
		return "bad wake"
	}
	return err.Error()
}

// FuzzRingVsSim differences the ring executor against the round-level
// simulator with the ring sweep, on schedules of long explore and wait
// runs — the shape that run merging and the cursors' jumps exist for —
// on rings of 3..16 nodes. Each input compiles one timeline pair and
// reuses it across every execution, either agent waking late by up to
// the other's rounds plus 2n, so cursor state leaking from one
// execution into the next shows:
//   - four single executions through Meet, with starts drawn from
//     [-n, 2n) half the time and a late earlier agent one time in
//     eight, which must fail with the same kind of error as sim.Run or
//     match it field for field; Run, which compiles afresh, must agree
//     on the first;
//   - a Walk over every offset 1..n-1 and one over a shuffled list of
//     start pairs with repeated offsets and repeated pairs, every entry
//     of which must match sim.Run.
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
		reference := func(startA, startB, wakeA, wakeB int) (sim.Result, error) {
			return sim.Run(sim.Scenario{
				Graph:    g,
				Explorer: explore.OrientedRingSweep{},
				A:        sim.AgentSpec{Label: 1, Start: startA, Wake: wakeA, Schedule: sa},
				B:        sim.AgentSpec{Label: 2, Start: startB, Wake: wakeB, Schedule: sb},
			})
		}
		same := func(got Result, want sim.Result) bool {
			return got.Met == want.Met && got.Round == want.Round && got.CostA == want.CostA && got.CostB == want.CostB
		}
		wakes := func() (int, int) {
			if rng.Intn(2) == 0 {
				return 1, 1 + rng.Intn(len(sa)*(n-1)+2*n+1)
			}
			return 1 + rng.Intn(len(sb)*(n-1)+2*n+1), 1
		}
		pair := func(off int) [2]int {
			a := rng.Intn(n)
			return [2]int{a, (a + off) % n}
		}

		for k := 0; k < 4; k++ {
			sp := pair(1 + rng.Intn(n-1))
			if rng.Intn(2) == 0 {
				sp = [2]int{rng.Intn(3*n) - n, rng.Intn(3*n) - n}
			}
			wakeA, wakeB := wakes()
			if rng.Intn(8) == 0 {
				wakeA, wakeB = wakeA+1, wakeB+1
			}
			want, werr := reference(sp[0], sp[1], wakeA, wakeB)
			got, gerr := Meet(n, Placed{Timeline: ta, Start: sp[0], Wake: wakeA}, Placed{Timeline: tb, Start: sp[1], Wake: wakeB})
			if errKind(gerr) != errKind(werr) || (gerr == nil && !same(got, want)) {
				t.Fatalf("n=%d starts %v wakes (%d,%d) schedules %d/%d segments: Meet %+v err %v, sim %+v err %v",
					n, sp, wakeA, wakeB, len(sa), len(sb), got, gerr, want, werr)
			}
			if k == 0 {
				run, rerr := Run(n, Agent{Schedule: sa, Start: sp[0], Wake: wakeA}, Agent{Schedule: sb, Start: sp[1], Wake: wakeB})
				if run != got || rerr != gerr {
					t.Fatalf("n=%d: Run %+v err %v, Meet over compiled timelines %+v err %v", n, run, rerr, got, gerr)
				}
			}
		}

		every := make([][2]int, 0, n-1)
		for off := 1; off < n; off++ {
			every = append(every, pair(off))
		}
		shuffled := make([][2]int, 0, 2*n)
		for range 1 + rng.Intn(2*n) {
			if len(shuffled) > 0 && rng.Intn(4) == 0 {
				shuffled = append(shuffled, shuffled[rng.Intn(len(shuffled))])
				continue
			}
			shuffled = append(shuffled, pair(1+rng.Intn(n-1)))
		}
		for _, pairs := range [][][2]int{every, shuffled} {
			starts, err := NewStarts(n, pairs)
			if err != nil {
				t.Fatalf("NewStarts(%d, %v): %v", n, pairs, err)
			}
			wakeA, wakeB := wakes()
			out := make([]Result, len(pairs))
			if err := Walk(ta, tb, wakeA, wakeB, starts, out); err != nil {
				t.Fatalf("Walk wakes (%d,%d): %v", wakeA, wakeB, err)
			}
			for i, sp := range pairs {
				want, err := reference(sp[0], sp[1], wakeA, wakeB)
				if err != nil {
					t.Fatal(err)
				}
				if !same(out[i], want) {
					t.Fatalf("n=%d starts %v (entry %d of %v) wakes (%d,%d) schedules %d/%d segments: Walk %+v, sim %+v",
						n, sp, i, pairs, wakeA, wakeB, len(sa), len(sb), out[i], want)
				}
			}
		}
	})
}

package meetoracle

import (
	"math"
	"math/bits"

	"rendezvous/internal/sim"
)

// This file is the 64-wide batch executor: the SIMD-within-a-register
// form of Meet for adversarial sweeps. Within one (graph, explorer)
// oracle a sweep executes the same compiled schedule pair over
// thousands of start pairs, and the segment-boundary timeline of an
// execution — which agent is walking, at what wake-phase offset, until
// which round — depends only on the two schedules and the delay, never
// on the start nodes. MeetBatchWorst therefore runs the interval state
// machine once and advances up to 64 start-pair lanes through each
// interval with an active-lane bitmask, one or two table loads per
// live lane:
//
//   - both agents stationary: a node comparison;
//   - one walking: a word scan of the packed visit masks (the hit
//     lists as round bitsets), replacing Meet's binary search;
//   - both walking over a full slab window: one bit of the slab's
//     any-mask answers "never meet", and only meeting lanes touch the
//     int32 first table.
//
// Lanes that meet clear their active bit and drop out of all later
// intervals, so a batch call never scans past the point the scalar
// execution would have stopped at. A meeting lane's round and cost are
// read at the detection point, where the interval state already pins
// the segment index and walk offset of both agents — so, unlike the
// scalar result path, neither needs a division to re-derive them. Both
// follow the formulas result() uses (the equality is pinned by
// differential fuzzing and the exhaustive MeetBatchWorst-vs-Meet
// sweep).

// BatchLanes is the lane width of the batch executor: one machine word
// of start-pair lanes advanced per interval scan.
const BatchLanes = 64

// PrepareBatch builds everything MeetBatchWorst needs for the given
// wake delays: the meeting-table slabs of Prepare (with their
// any-masks) plus the packed visit masks. After it returns, every
// MeetBatchWorst call is a lock-free read of immutable tables.
func (o *Oracle) PrepareBatch(delays []int) {
	o.Prepare(delays)
	o.visitWords()
}

// BatchPrepared reports whether the oracle holds every table
// MeetBatchWorst needs for the given delays without further
// construction.
func (o *Oracle) BatchPrepared(delays []int) bool {
	return o.Prepared(delays) && o.visit.Load() != nil
}

// visitStride is the number of uint64 words one (v, u) visit mask
// spans: rounds are 1..e, stored one bit per round at bit index j.
func visitStride(e int) int { return (e + 64) / 64 }

func (o *Oracle) visitStride() int { return visitStride(o.e) }

// visitWords returns the packed hit lists, building them on first use:
// bit j of mask (v*n+u) is set iff the walk from v stands on u after j
// rounds (j in 1..e). Publication mirrors slabAt: double-checked under
// mu, atomically stored, lock-free for readers ever after.
func (o *Oracle) visitWords() []uint64 {
	if w := o.visit.Load(); w != nil {
		return *w
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if w := o.visit.Load(); w != nil {
		return *w
	}
	n, vw := o.n, o.visitStride()
	words := make([]uint64, n*n*vw)
	for v := 0; v < n; v++ {
		pos := o.pos[v]
		for j := 1; j <= o.e; j++ {
			u := int(pos[j])
			words[(v*n+u)*vw+j>>6] |= 1 << uint(j&63)
		}
	}
	o.builds.Add(1)
	o.visit.Store(&words)
	return words
}

// firstBitIn returns the smallest set bit index in [lo, hi] of words,
// or 0 if the range holds none. lo >= 1, hi < 64*len(words).
func firstBitIn(words []uint64, lo, hi int) int {
	w, last := lo>>6, hi>>6
	cur := words[w] &^ (1<<uint(lo&63) - 1)
	for {
		if w == last {
			cur &= ^uint64(0) >> uint(63-hi&63)
		}
		if cur != 0 {
			return w<<6 + bits.TrailingZeros64(cur)
		}
		if w == last {
			return 0
		}
		w++
		cur = words[w]
	}
}

// MeetBatchWorst executes up to BatchLanes start-pair lanes of one
// sweep configuration and reports, per lane, what WorstCase.Observe
// consumes of Meet(as[i], bs[i], 1, 1+delay, false): rounds[i] is the
// meeting round (0 when the lane never meets, matching Result.Round)
// and costs[i] the combined edge traversals of both agents until the
// meeting, Result.Cost() (unspecified for non-meeting lanes, which
// update no witness). All A lanes must compile the same schedule and
// all B lanes the same schedule (one label pair), on this oracle;
// delay must be non-negative — the shape every engine sweep has. The
// call allocates nothing; callers reuse their lane and result slices
// across configurations, and rounds and costs may hold stale values on
// entry: every entry is (re)written.
func (o *Oracle) MeetBatchWorst(as, bs []Compiled, delay int, rounds, costs []int) {
	k := len(as)
	if k == 0 || k > BatchLanes || len(bs) != k || len(rounds) != k || len(costs) != k {
		panic("meetoracle: MeetBatchWorst lanes must be equal-length slices of 1..BatchLanes")
	}
	if delay < 0 {
		panic("meetoracle: MeetBatchWorst requires a non-negative delay")
	}
	e, n := o.e, o.n
	segsA, segsB := as[0].segs, bs[0].segs
	endA := len(segsA) * e
	endB := delay + len(segsB)*e
	horizon := max(endA, endB)

	fill := func(i, tm, costA, costB int) {
		rounds[i] = tm
		costs[i] = costA + costB
	}

	// Lanes cleared from active met at their recorded round.
	active := ^uint64(0) >> uint(64-k)
	if horizon == 0 {
		// Both schedules empty, simultaneous start: the scalar scan
		// checks exactly round 1, both agents resting at their starts.
		for i := 0; i < k; i++ {
			if as[i].starts[0] == bs[i].starts[0] {
				fill(i, 1, 0, 0)
			} else {
				rounds[i] = 0
			}
		}
		return
	}
	visit := o.visitWords()
	vw := o.visitStride()
	t := 0 // rounds fully processed; each interval covers (t, segEnd]
	for t < horizon && active != 0 {
		// Lane-shared agent state over the interval, cf. state(): the
		// segment index, the walk offset (0 when stationary), and the
		// next boundary. A wakes at round 1, B delay rounds later.
		idxA, offA, nextA, stillA := 0, 0, 0, true
		if t >= endA {
			idxA, nextA = len(segsA), math.MaxInt
		} else {
			idxA, offA = t/e, t%e
			nextA = t + e - offA
			if segsA[idxA] == sim.SegmentExplore {
				stillA = false
			} else {
				offA = 0
			}
		}
		idxB, offB, nextB, stillB := 0, 0, 0, true
		if t < delay {
			nextB = delay
		} else if kb := t - delay; kb >= len(segsB)*e {
			idxB, nextB = len(segsB), math.MaxInt
		} else {
			idxB, offB = kb/e, kb%e
			nextB = t + e - offB
			if segsB[idxB] == sim.SegmentExplore {
				stillB = false
			} else {
				offB = 0
			}
		}
		segEnd := min(nextA, nextB, horizon)
		ln := segEnd - t

		switch {
		case stillA && stillB:
			for m := active; m != 0; m &= m - 1 {
				i := bits.TrailingZeros64(m)
				if as[i].starts[idxA] == bs[i].starts[idxB] {
					active &^= 1 << uint(i)
					fill(i, t+1, as[i].moves[idxA], bs[i].moves[idxB])
				}
			}
		case stillB:
			lo, hi := offA+1, offA+ln
			for m := active; m != 0; m &= m - 1 {
				i := bits.TrailingZeros64(m)
				w, u := as[i].starts[idxA], bs[i].starts[idxB]
				p := (int(w)*n + int(u)) * vw
				if j := firstBitIn(visit[p:p+vw], lo, hi); j != 0 {
					active &^= 1 << uint(i)
					fill(i, t+j-offA,
						as[i].moves[idxA]+int(o.moves[w][j]), bs[i].moves[idxB])
				}
			}
		case stillA:
			lo, hi := offB+1, offB+ln
			for m := active; m != 0; m &= m - 1 {
				i := bits.TrailingZeros64(m)
				u, w := as[i].starts[idxA], bs[i].starts[idxB]
				p := (int(w)*n + int(u)) * vw
				if j := firstBitIn(visit[p:p+vw], lo, hi); j != 0 {
					active &^= 1 << uint(i)
					fill(i, t+j-offB,
						as[i].moves[idxA], bs[i].moves[idxB]+int(o.moves[w][j]))
				}
			}
		default:
			// Both walking; interval starts are segment boundaries, so
			// at least one offset is 0 and the slab is keyed — with the
			// scalar scan's operand order — by the non-zero one.
			off, swapped := offA, false
			if off == 0 && offB > 0 {
				off, swapped = offB, true
			}
			s := o.slabAt(off)
			full := ln == e-off // full slab window: the any-bit decides
			for m := active; m != 0; m &= m - 1 {
				i := bits.TrailingZeros64(m)
				wA, wB := as[i].starts[idxA], bs[i].starts[idxB]
				u, v := wA, wB
				if swapped {
					u, v = v, u
				}
				idx := int(u)*n + int(v)
				var j int
				if full {
					if s.any[idx>>6]&(1<<uint(idx&63)) != 0 {
						j = int(s.first[idx])
					}
				} else if jj := int(s.first[idx]); jj > 0 && jj <= ln {
					j = jj
				}
				if j != 0 {
					active &^= 1 << uint(i)
					fill(i, t+j,
						as[i].moves[idxA]+int(o.moves[wA][offA+j]),
						bs[i].moves[idxB]+int(o.moves[wB][offB+j]))
				}
			}
		}
		t = segEnd
	}
	for m := active; m != 0; m &= m - 1 {
		rounds[bits.TrailingZeros64(m)] = 0
	}
}

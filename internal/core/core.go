// Package core implements the primary contribution of Miller & Pelc
// (PODC 2014): the deterministic rendezvous algorithms Cheap, Fast and
// FastWithRelabeling, expressed as schedules of E-round segments over an
// arbitrary EXPLORE procedure.
//
// All three algorithms share the structure "in segment i, either execute
// EXPLORE once or wait E rounds", differing only in which segments are
// explorations:
//
//   - Cheap (Algorithm 1): explore, wait 2ℓ segments, explore —
//     cost ≤ 3E, time ≤ (2L+1)E. A simultaneous-start variant waits
//     (ℓ-1) segments then explores once — cost exactly E, time ≤ LE.
//   - Fast (Algorithm 2): segments follow the doubled prefix-free
//     transformation of the label — time ≤ (4·log(L-1)+9)E and cost at
//     most twice that, both O(E·log L).
//   - FastWithRelabeling(w): relabels agents with fixed-weight-w bit
//     strings of length t (C(t,w) ≥ L) and runs Fast's segment structure
//     on them — cost O(w·E), time ≤ (4t+5)E; for constant w = c this is
//     cost O(E) and time O(L^{1/c}·E), beating both lower-bound curves
//     at once (the separation result of Section 1.3).
//
// The package also provides the unknown-E doubling wrapper from the
// paper's Conclusion and two reference baselines used by the benchmark
// harness.
package core

import (
	"fmt"

	"rendezvous/internal/label"
	"rendezvous/internal/sim"
)

// Params carries the model parameters shared by both agents: the label
// space size L. (E is implied by the Explorer attached to the scenario.)
type Params struct {
	// L is the size of the label space {1..L}.
	L int
}

// Algorithm maps an agent's label to its schedule of E-round segments.
// Implementations must be deterministic and label-respecting: two agents
// with distinct labels executing the same Algorithm must always achieve
// rendezvous.
type Algorithm interface {
	// Name identifies the algorithm in reports.
	Name() string
	// Schedule returns the segment sequence for the given label. It
	// panics if the label is outside {1..params.L}; label validity is a
	// precondition of the model, not a runtime input.
	Schedule(l int, params Params) sim.Schedule
}

func checkLabel(l int, params Params, algo string) {
	if l < 1 || l > params.L {
		panic(fmt.Sprintf("core: %s: label %d outside {1..%d}", algo, l, params.L))
	}
}

// Cheap is Algorithm 1 of the paper, for arbitrary starting times:
//
//	1: Execute EXPLORE once
//	2: Wait 2ℓE rounds
//	3: Execute EXPLORE once
//
// Proposition 2.1: rendezvous at cost at most 3E and in time at most
// (2ℓ+3)E ≤ (2L+1)E, where ℓ is the smaller label.
type Cheap struct{}

var _ Algorithm = Cheap{}

// Name implements Algorithm.
func (Cheap) Name() string { return "cheap" }

// Schedule implements Algorithm: [explore, wait×2ℓ, explore].
func (Cheap) Schedule(l int, params Params) sim.Schedule {
	checkLabel(l, params, "cheap")
	sched := make(sim.Schedule, 0, 2*l+2)
	sched = append(sched, sim.SegmentExplore)
	for i := 0; i < 2*l; i++ {
		sched = append(sched, sim.SegmentWait)
	}
	sched = append(sched, sim.SegmentExplore)
	return sched
}

// CheapSimultaneous is the simultaneous-start variant of Algorithm
// Cheap: agent ℓ waits (ℓ-1)E rounds and then explores the graph once.
// With simultaneous start this meets at cost exactly E (only the
// smaller-labeled agent ever moves) and in time at most ℓE ≤ LE. It is
// NOT correct under arbitrary wake-up delays; use Cheap there.
type CheapSimultaneous struct{}

var _ Algorithm = CheapSimultaneous{}

// Name implements Algorithm.
func (CheapSimultaneous) Name() string { return "cheap-simultaneous" }

// Schedule implements Algorithm: [wait×(ℓ-1), explore].
func (CheapSimultaneous) Schedule(l int, params Params) sim.Schedule {
	checkLabel(l, params, "cheap-simultaneous")
	sched := make(sim.Schedule, 0, l)
	for i := 0; i < l-1; i++ {
		sched = append(sched, sim.SegmentWait)
	}
	sched = append(sched, sim.SegmentExplore)
	return sched
}

// Fast is Algorithm 2 of the paper:
//
//	1: S[1..m] ← M(ℓ)
//	2: T[1..2m+1] ← (1, S[1], S[1], S[2], S[2], ..., S[m], S[m])
//	3: for i = 1 to 2m+1: if T[i] = 1 execute EXPLORE once, else wait E
//
// where M is the prefix-free transformation of package label.
// Proposition 2.2: time at most (4·log(L-1)+9)E and cost at most twice
// that, both O(E·log L).
type Fast struct{}

var _ Algorithm = Fast{}

// Name implements Algorithm.
func (Fast) Name() string { return "fast" }

// Schedule implements Algorithm.
func (Fast) Schedule(l int, params Params) sim.Schedule {
	checkLabel(l, params, "fast")
	return scheduleFromLabelBits(label.Transform(l))
}

// scheduleFromLabelBits builds T[1..2m+1] = (1, S1, S1, ..., Sm, Sm)
// mapped to segments (1 → explore, 0 → wait), written straight into
// the schedule: one allocation. This is the common layer of Fast and
// FastWithRelabeling.
func scheduleFromLabelBits(s []byte) sim.Schedule {
	sched := make(sim.Schedule, 0, 2*len(s)+1)
	sched = append(sched, sim.SegmentExplore)
	for _, b := range s {
		seg := sim.SegmentWait
		if b != 0 {
			seg = sim.SegmentExplore
		}
		sched = append(sched, seg, seg)
	}
	return sched
}

// FastWithRelabeling is the separation algorithm of Section 2: each
// agent is re-labeled with the t-bit characteristic string of the
// lexicographically ℓ-th smallest w(L)-subset of {1..t}, where t is the
// smallest integer with C(t, w(L)) ≥ L, and then executes Fast's segment
// structure on the new label. Every new label has Hamming weight exactly
// w(L), so the combined cost is O(w(L)·E) while the time is at most
// (4t+5)E. For constant w(L) = c: cost O(E), time O(L^{1/c}·E)
// (Corollary 2.1).
type FastWithRelabeling struct {
	// W is the weight function w(L) ≤ L. It must be positive for every L
	// the algorithm is used with.
	W func(L int) int
}

var _ Algorithm = FastWithRelabeling{}

// NewFastWithRelabeling returns the algorithm with the constant weight
// function w(L) = c, the instantiation of Corollary 2.1.
func NewFastWithRelabeling(c int) FastWithRelabeling {
	if c < 1 {
		panic(fmt.Sprintf("core: FastWithRelabeling: constant weight %d < 1", c))
	}
	return FastWithRelabeling{W: func(int) int { return c }}
}

// Name implements Algorithm.
func (f FastWithRelabeling) Name() string { return "fast-with-relabeling" }

// Schedule implements Algorithm.
func (f FastWithRelabeling) Schedule(l int, params Params) sim.Schedule {
	checkLabel(l, params, "fast-with-relabeling")
	w := f.W(params.L)
	if w < 1 {
		panic(fmt.Sprintf("core: fast-with-relabeling: w(%d) = %d < 1", params.L, w))
	}
	if w > params.L {
		panic(fmt.Sprintf("core: fast-with-relabeling: w(%d) = %d exceeds L", params.L, w))
	}
	newLabel, err := label.Relabel(l, params.L, w)
	if err != nil {
		// Relabel only fails on out-of-range inputs, which checkLabel and
		// the w checks above already exclude.
		panic(fmt.Sprintf("core: fast-with-relabeling: %v", err))
	}
	return scheduleFromLabelBits(newLabel)
}

// T returns the relabeled bit-length t = SmallestT(L, w(L)), which
// determines the time bound (4t+5)E of Proposition 2.3.
func (f FastWithRelabeling) T(L int) int {
	return label.SmallestT(L, f.W(L))
}

// WaitForMate is an oracle baseline, not a legal algorithm of the model:
// it assumes each agent knows whether its label is the smaller one (the
// paper's introduction notes that with such knowledge rendezvous reduces
// to graph exploration). The smaller label waits forever; the larger
// explores once. It realises the absolute lower bound time = cost = E
// and anchors the benchmark tables.
type WaitForMate struct{}

var _ Algorithm = WaitForMate{}

// Name implements Algorithm.
func (WaitForMate) Name() string { return "oracle-wait-for-mate" }

// Schedule implements Algorithm. By convention label 1 is "the smaller":
// the benchmark harness only pairs it against larger labels.
func (WaitForMate) Schedule(l int, params Params) sim.Schedule {
	checkLabel(l, params, "oracle-wait-for-mate")
	if l == 1 {
		return sim.Schedule{sim.SegmentWait}
	}
	return sim.Schedule{sim.SegmentExplore}
}

// ExploreForever is a straw-man baseline: every agent explores in every
// segment, for 2L+2 segments. It is incorrect in general (two agents in
// lockstep rotation on a ring never meet) and exists to demonstrate that
// label-based symmetry breaking is necessary; the benchmark harness uses
// it as a negative control.
type ExploreForever struct{}

var _ Algorithm = ExploreForever{}

// Name implements Algorithm.
func (ExploreForever) Name() string { return "strawman-explore-forever" }

// Schedule implements Algorithm.
func (ExploreForever) Schedule(l int, params Params) sim.Schedule {
	checkLabel(l, params, "strawman-explore-forever")
	sched := make(sim.Schedule, 2*params.L+2)
	for i := range sched {
		sched[i] = sim.SegmentExplore
	}
	return sched
}

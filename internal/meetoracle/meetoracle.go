// Package meetoracle generalizes the segment-level execution trick of
// internal/ringsim from the oriented ring to every graph family and
// every fixed-duration explorer.
//
// The observation: with a deterministic EXPLORE procedure, an EXPLORE
// segment started at node v always follows the same fixed walk W(v),
// and a WAIT segment stays put. The entire round-by-round behaviour of
// a schedule is therefore determined by per-graph structure that can be
// computed once per (graph, explorer) and amortized across every
// execution of an adversarial sweep:
//
//   - the walk tables pos[v][j] / moves[v][j] (position and cumulative
//     edge traversals after j rounds of EXPLORE from v, j = 0..E), whose
//     last column is the end-map end(v) driving segment-to-segment
//     composition;
//   - hit lists hits[v][u] (the rounds at which W(v) stands on u),
//     answering "when does a walking agent meet a stationary one";
//   - per-phase meeting slabs first_o[u][v] (the first round at which
//     W(u), already o rounds in, coincides with a freshly started W(v)),
//     answering "when do two walking agents meet under wake-phase
//     offset o = delay mod E".
//
// With the tables in hand, executing a configuration is a scan over the
// segment boundaries of the two schedules — O(|schedule A| +
// |schedule B|) table lookups, independent of E — exactly the
// complexity ringsim achieves on the ring by hand-derived gap
// arithmetic, now derived mechanically for any family.
//
// Results are bit-for-bit equal to package sim: Meet returns precisely
// what sim.Meet returns on the corresponding compiled trajectories, and
// Run mirrors sim.Run including its validation errors. The equivalence
// is enforced by differential fuzzing (FuzzMeetOracleVsSim) and
// exhaustive small-space tests.
//
// Concurrency: an Oracle is safe for concurrent use. Prepare (or
// PrepareBatch, for the 64-lane batch executor in batch.go) builds the
// tables a delay set needs up front, after which every Meet and
// MeetBatchWorst is a lock-free read of immutable tables — this is how
// the parallel search engine shares one oracle across all shard
// workers.
package meetoracle

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"rendezvous/internal/explore"
	"rendezvous/internal/graph"
	"rendezvous/internal/sim"
)

// Oracle holds the precomputed meeting structure of one (graph,
// explorer) pair.
type Oracle struct {
	g *graph.Graph
	e int
	n int

	// pos[v][j] is the node after j rounds of EXPLORE from v (j = 0..e);
	// pos[v][e] is the end-map. moves[v][j] counts the edge traversals in
	// those j rounds (plans may contain waits, so moves[v][j] <= j).
	pos   [][]int32
	moves [][]int32

	// hits[v*n+u] lists, in ascending order, the rounds j in 1..e at
	// which the walk from v stands on u.
	hits [][]int32

	// slabs[o] is the offset-o meeting table, built on demand under mu
	// and published with an atomic store so readers never lock. visit is
	// the batch executor's packed form of the hit lists (see
	// visitWords), built the same way. builds counts table
	// constructions, so tests can pin that a prepared oracle builds
	// nothing inside the parallel hot loop.
	mu     sync.Mutex
	slabs  []atomic.Pointer[slab]
	visit  atomic.Pointer[[]uint64]
	builds atomic.Int64
}

// slab is one phase of the meeting table: first[u*n+v] is the smallest
// j in [1, e-o] with pos[u][o+j] == pos[v][j], or 0 if the two walks
// never coincide inside the window. any packs first's zero/non-zero
// structure one bit per pair (bit u*n+v of the word array), so the
// batch executor can answer "do these walks meet at all inside the
// window" with one word load per lane.
type slab struct {
	first []int32
	any   []uint64
}

// New precomputes the walk tables for every start node. It fails if the
// explorer rejects the graph, produces a plan of the wrong duration, or
// names an unavailable port — the same conditions under which the
// generic simulator would fail, detected once up front instead of per
// execution.
func New(g *graph.Graph, ex explore.Explorer) (*Oracle, error) {
	n := g.N()
	e := ex.Duration(g)
	if e <= 0 {
		return nil, fmt.Errorf("meetoracle: explorer %s has non-positive duration %d on %v", ex.Name(), e, g)
	}
	o := &Oracle{
		g:     g,
		e:     e,
		n:     n,
		pos:   make([][]int32, n),
		moves: make([][]int32, n),
		hits:  make([][]int32, n*n),
		slabs: make([]atomic.Pointer[slab], e),
	}
	for v := 0; v < n; v++ {
		plan, err := ex.Plan(g, v)
		if err != nil {
			return nil, fmt.Errorf("meetoracle: %s: Plan(start=%d): %w", ex.Name(), v, err)
		}
		if len(plan) != e {
			return nil, fmt.Errorf("meetoracle: %s: Plan(start=%d) has %d steps, want E = %d", ex.Name(), v, len(plan), e)
		}
		pos := make([]int32, e+1)
		mov := make([]int32, e+1)
		cur := v
		pos[0] = int32(v)
		for j, step := range plan {
			if step != explore.Wait {
				if step < 0 || step >= g.Degree(cur) {
					return nil, fmt.Errorf("meetoracle: %s: Plan(start=%d) step %d: port %d unavailable at node of degree %d", ex.Name(), v, j, step, g.Degree(cur))
				}
				cur, _ = g.Neighbor(cur, step)
				mov[j+1] = mov[j] + 1
			} else {
				mov[j+1] = mov[j]
			}
			pos[j+1] = int32(cur)
		}
		o.pos[v] = pos
		o.moves[v] = mov
		for j := 1; j <= e; j++ {
			u := pos[j]
			o.hits[v*n+int(u)] = append(o.hits[v*n+int(u)], int32(j))
		}
	}
	return o, nil
}

// E returns the exploration duration the oracle is compiled for.
func (o *Oracle) E() int { return o.e }

// N returns the number of nodes of the underlying graph.
func (o *Oracle) N() int { return o.n }

// Graph returns the graph the oracle is compiled against.
func (o *Oracle) Graph() *graph.Graph { return o.g }

// End returns the end-map: the node at which an EXPLORE segment started
// at v terminates.
func (o *Oracle) End(v int) int { return int(o.pos[v][o.e]) }

// EstimateBytes predicts the resident size of an oracle for an n-node
// graph with duration-e exploration and the given number of distinct
// meeting-table phases — the quantity the search engine compares
// against its memory budget before selecting the meeting-table tier.
func EstimateBytes(n, e, phases int) int64 {
	walk := 2 * int64(n) * int64(e+1) * 4              // pos + moves
	hits := int64(n)*int64(e)*4 + int64(n)*int64(n)*24 // entries (one per walk round) + n² slice headers
	perSlab := int64(n)*int64(n)*4 + int64((n*n+63)/64)*8
	slabs := int64(phases)*perSlab + int64(e)*8 // first tables + any masks + pointer array
	return walk + hits + slabs
}

// EstimateBatchBytes predicts the resident size of an oracle prepared
// for the batch executor: EstimateBytes plus the packed visit masks
// and one worker's lane/result arena for a sweep over the given number
// of delays. TierAuto compares it against the memory budget before
// selecting the batch tier.
func EstimateBatchBytes(n, e, phases, delays int) int64 {
	visit := int64(n) * int64(n) * int64(visitStride(e)) * 8
	arena := int64(BatchLanes) * (int64(delays)*56 + 2*72) // result buffer + compiled-lane gather slices
	return EstimateBytes(n, e, phases) + visit + arena
}

// Phases returns the distinct slab offsets a set of wake delays needs
// under a duration-e exploration: for each delay d >= 0, the two
// wake-phase offsets d mod e and e - (d mod e) at which the agents'
// segment boundaries interleave; a negative delay adds none. It needs
// no oracle, so a dispatcher can compute the exact slab count — always
// at most e — before deciding whether the tables fit its budget.
func Phases(e int, delays []int) []int {
	seen := make(map[int]bool)
	var phases []int
	add := func(p int) {
		if !seen[p] {
			seen[p] = true
			phases = append(phases, p)
		}
	}
	for _, d := range delays {
		if d < 0 {
			continue
		}
		p := d % e
		add(p)
		if p > 0 {
			add(e - p)
		}
	}
	sort.Ints(phases)
	return phases
}

// Phases returns the distinct slab offsets the given wake delays need
// on this oracle.
func (o *Oracle) Phases(delays []int) []int { return Phases(o.e, delays) }

// Prepare builds the meeting-table slabs the given wake delays need, so
// that subsequent Meet calls are lock-free reads of immutable tables.
// A parallel search calls it once before fanning out workers over one
// shared oracle.
func (o *Oracle) Prepare(delays []int) {
	for _, p := range o.Phases(delays) {
		o.slabAt(p)
	}
}

// Prepared reports whether every meeting-table slab the given wake
// delays need already exists — the state Prepare leaves the oracle in.
// The search engine's tests use it to pin the contract that tables are
// built before workers fan out, never lazily under mu inside the
// parallel hot loop.
func (o *Oracle) Prepared(delays []int) bool {
	for _, p := range o.Phases(delays) {
		if o.slabs[p].Load() == nil {
			return false
		}
	}
	return true
}

// TableBuilds returns how many table structures (meeting slabs and the
// batch visit masks) this oracle has constructed so far. A prepared
// oracle's count is stable across any number of Meet/MeetBatchWorst
// calls; a growing count means tables are being built inside the hot
// loop.
func (o *Oracle) TableBuilds() int64 { return o.builds.Load() }

// slabAt returns the offset-o meeting table, building and publishing it
// on first use. The double-checked atomic load keeps the hot path
// lock-free once a slab exists.
func (o *Oracle) slabAt(off int) *slab {
	if s := o.slabs[off].Load(); s != nil {
		return s
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if s := o.slabs[off].Load(); s != nil {
		return s
	}
	n, e := o.n, o.e
	first := make([]int32, n*n)
	for u := 0; u < n; u++ {
		pu := o.pos[u]
		for v := 0; v < n; v++ {
			pv := o.pos[v]
			for j := 1; j <= e-off; j++ {
				if pu[off+j] == pv[j] {
					first[u*n+v] = int32(j)
					break
				}
			}
		}
	}
	any := make([]uint64, (n*n+63)/64)
	for idx, j := range first {
		if j != 0 {
			any[idx>>6] |= 1 << uint(idx&63)
		}
	}
	s := &slab{first: first, any: any}
	o.builds.Add(1)
	o.slabs[off].Store(s)
	return s
}

// Compiled is a schedule lowered onto the oracle's tables: the node and
// cumulative cost at every segment boundary. Compiling costs
// O(|schedule|) table lookups; afterwards position and cost at any
// round are O(1).
type Compiled struct {
	segs   []sim.Segment
	starts []int32 // starts[i] = node at the beginning of segment i; starts[len(segs)] = final node
	moves  []int   // moves[i] = edge traversals in the first i segments
}

// Segments returns the number of segments in the compiled schedule.
func (c Compiled) Segments() int { return len(c.segs) }

// Valid distinguishes a real compilation — including that of an empty
// schedule — from Compiled's zero value.
func (c Compiled) Valid() bool { return c.starts != nil }

// Start returns the node the schedule begins at.
func (c Compiled) Start() int { return int(c.starts[0]) }

// Final returns the node the agent rests at after the schedule ends.
func (c Compiled) Final() int { return int(c.starts[len(c.segs)]) }

// Compile lowers a schedule from the given start node. It fails on an
// out-of-range start or an unknown segment kind — the conditions under
// which sim.CompileTrajectory would fail, minus plan errors, which New
// has already ruled out for every node.
func (o *Oracle) Compile(start int, sched sim.Schedule) (Compiled, error) {
	if start < 0 || start >= o.n {
		return Compiled{}, fmt.Errorf("meetoracle: start node %d out of range [0, %d)", start, o.n)
	}
	starts := make([]int32, len(sched)+1)
	moves := make([]int, len(sched)+1)
	cur := int32(start)
	for i, seg := range sched {
		starts[i] = cur
		switch seg {
		case sim.SegmentWait:
			moves[i+1] = moves[i]
		case sim.SegmentExplore:
			moves[i+1] = moves[i] + int(o.moves[cur][o.e])
			cur = o.pos[cur][o.e]
		default:
			return Compiled{}, fmt.Errorf("meetoracle: segment %d: unknown segment kind %d", i, uint8(seg))
		}
	}
	starts[len(sched)] = cur
	return Compiled{segs: sched, starts: starts, moves: moves}, nil
}

// posAt returns the agent's node after k rounds since wake-up, matching
// sim.Trajectory.At on the corresponding trajectory.
func (o *Oracle) posAt(c Compiled, k int) int32 {
	if k <= 0 {
		return c.starts[0]
	}
	if k >= len(c.segs)*o.e {
		return c.starts[len(c.segs)]
	}
	i, r := k/o.e, k%o.e
	if r == 0 {
		return c.starts[i]
	}
	if c.segs[i] == sim.SegmentExplore {
		return o.pos[c.starts[i]][r]
	}
	return c.starts[i]
}

// costAt returns the agent's cumulative edge traversals in the first k
// rounds since wake-up, matching sim.Trajectory.MovesAt.
func (o *Oracle) costAt(c Compiled, k int) int {
	if k <= 0 {
		return 0
	}
	if k >= len(c.segs)*o.e {
		return c.moves[len(c.segs)]
	}
	i, r := k/o.e, k%o.e
	cost := c.moves[i]
	if r > 0 && c.segs[i] == sim.SegmentExplore {
		cost += int(o.moves[c.starts[i]][r])
	}
	return cost
}

// Meet computes the first meeting of two compiled schedules under the
// given wake rounds (both >= 1), returning exactly what sim.Meet
// returns on the corresponding trajectories. The scan walks the merged
// segment-boundary timeline: within each interval both agents are
// either stationary or a fixed offset into a fixed walk, so the first
// coincidence is one table lookup.
func (o *Oracle) Meet(a, b Compiled, wakeA, wakeB int, parachuted bool) sim.Result {
	dA, dB := wakeA-1, wakeB-1
	endA := dA + len(a.segs)*o.e
	endB := dB + len(b.segs)*o.e
	horizon := max(endA, endB)
	if horizon == 0 {
		// Both schedules empty, simultaneous start: sim scans exactly
		// round 1, where both agents rest at their starts.
		if a.starts[0] == b.starts[0] {
			return o.result(a, b, wakeA, wakeB, 1)
		}
		return o.noMeet(a, b)
	}

	t := 0 // rounds fully processed; each interval covers rounds (t, segEnd]
	for t < horizon {
		nodeA, offA, stillA, nextA := o.state(a, dA, t)
		nodeB, offB, stillB, nextB := o.state(b, dB, t)
		segEnd := min(nextA, nextB, horizon)

		if parachuted && (t < dA || t < dB) {
			// An agent is absent before its wake round: the only round of
			// this interval at which both agents exist is the closing
			// boundary, and only when it reaches both wake-up points.
			if segEnd >= dA && segEnd >= dB && o.posAt(a, segEnd-dA) == o.posAt(b, segEnd-dB) {
				return o.result(a, b, wakeA, wakeB, segEnd)
			}
			t = segEnd
			continue
		}

		ln := segEnd - t
		j := 0
		switch {
		case stillA && stillB:
			if nodeA == nodeB {
				j = 1
			}
		case stillB:
			j = o.hitWithin(nodeA, nodeB, offA, ln)
		case stillA:
			j = o.hitWithin(nodeB, nodeA, offB, ln)
		default:
			// Both walking. Interval starts are segment boundaries, so at
			// least one walk is freshly started (offset 0); the other's
			// offset is the wake-phase offset the slab is keyed by.
			switch {
			case offA > 0:
				j = int(o.slabAt(offA).first[nodeA*int32(o.n)+nodeB])
			case offB > 0:
				j = int(o.slabAt(offB).first[nodeB*int32(o.n)+nodeA])
			default:
				j = int(o.slabAt(0).first[nodeA*int32(o.n)+nodeB])
			}
		}
		if j > 0 && j <= ln {
			return o.result(a, b, wakeA, wakeB, t+j)
		}
		t = segEnd
	}
	return o.noMeet(a, b)
}

// state reports agent c's situation during the rounds following t:
// stationary at node (still), or off rounds into an EXPLORE walk from
// node. next is the first round after t at which the situation changes.
func (o *Oracle) state(c Compiled, d, t int) (node int32, off int, still bool, next int) {
	if t < d {
		return c.starts[0], 0, true, d
	}
	k := t - d
	if k >= len(c.segs)*o.e {
		return c.starts[len(c.segs)], 0, true, math.MaxInt
	}
	i, r := k/o.e, k%o.e
	next = t + o.e - r
	if c.segs[i] == sim.SegmentExplore {
		return c.starts[i], r, false, next
	}
	return c.starts[i], 0, true, next
}

// hitWithin returns the first j in [1, ln] at which the walk from v,
// already off rounds in, stands on node u — or 0 if it never does
// within the window.
func (o *Oracle) hitWithin(v, u int32, off, ln int) int {
	hs := o.hits[int(v)*o.n+int(u)]
	i := sort.Search(len(hs), func(i int) bool { return int(hs[i]) > off })
	if i < len(hs) && int(hs[i]) <= off+ln {
		return int(hs[i]) - off
	}
	return 0
}

// result assembles the sim.Result for a meeting at absolute round t,
// field for field as sim.Meet computes it.
func (o *Oracle) result(a, b Compiled, wakeA, wakeB, t int) sim.Result {
	kA := t - wakeA + 1
	kB := t - wakeB + 1
	later := max(wakeA, wakeB)
	fromLater := t - later + 1
	if fromLater < 0 {
		fromLater = 0
	}
	costA, costB := o.costAt(a, kA), o.costAt(b, kB)
	costLater := costA - o.costAt(a, later-wakeA) +
		costB - o.costAt(b, later-wakeB)
	return sim.Result{
		Met:               true,
		Round:             t,
		Node:              int(o.posAt(a, kA)),
		CostA:             costA,
		CostB:             costB,
		TimeFromLaterWake: fromLater,
		CostFromLaterWake: costLater,
	}
}

// noMeet assembles the never-met sim.Result: full schedule costs.
func (o *Oracle) noMeet(a, b Compiled) sim.Result {
	return sim.Result{
		Met:   false,
		Node:  -1,
		CostA: a.moves[len(a.segs)],
		CostB: b.moves[len(b.segs)],
	}
}

// Run executes a two-agent scenario through the tables, mirroring
// sim.Run: the same validations (and sentinel errors), the same Result.
func (o *Oracle) Run(a, b sim.AgentSpec, parachuted bool) (sim.Result, error) {
	if a.Start == b.Start {
		return sim.Result{}, sim.ErrSameStart
	}
	if a.Label == b.Label {
		return sim.Result{}, sim.ErrSameLabel
	}
	if a.Start < 0 || a.Start >= o.n || b.Start < 0 || b.Start >= o.n {
		return sim.Result{}, sim.ErrStartOutRange
	}
	if min(a.Wake, b.Wake) != 1 {
		return sim.Result{}, sim.ErrBadWake
	}
	ca, err := o.Compile(a.Start, a.Schedule)
	if err != nil {
		return sim.Result{}, fmt.Errorf("meetoracle: agent A: %w", err)
	}
	cb, err := o.Compile(b.Start, b.Schedule)
	if err != nil {
		return sim.Result{}, fmt.Errorf("meetoracle: agent B: %w", err)
	}
	return o.Meet(ca, cb, a.Wake, b.Wake, parachuted), nil
}

// Package orbits computes orbit decompositions of adversary start-pair
// spaces under a group of port-preserving graph automorphisms
// (graph.Automorphisms), with canonical representatives.
//
// Because a port-preserving automorphism φ carries whole executions
// onto executions — the trajectory of any schedule from φ(v) is the
// φ-image of its trajectory from v — two ordered start pairs in the
// same orbit yield identical Met/Time/Cost outcomes for every label
// pair and every delay. The adversary search therefore executes one
// representative per orbit and still observes the exact worst case.
//
// The canonicalization rule is chosen so reduction is invisible except
// in the execution count: the representative of each orbit is the
// FIRST member of that orbit in the enumeration order of the given
// pair list. Under the engine's first-strictly-greater witness rule,
// the first configuration achieving a maximum in the full enumeration
// always has a representative start pair (its orbit's first member
// achieves the same value no later), so the reduced search reports
// bit-for-bit the same witnesses and values as the unreduced one; only
// Runs shrinks, by a factor of up to |Aut|.
package orbits

import (
	"fmt"

	"rendezvous/internal/graph"
)

// Pairs is the orbit decomposition of an ordered start-pair list.
type Pairs struct {
	reps    [][2]int
	classOf map[[2]int]int
}

// Compute decomposes pairs into orbits under the given automorphisms,
// which must all act on the same node set [0, n). Pairs are classified
// in list order, so each orbit's representative is its first listed
// member; duplicates join the class of their first occurrence. Pair
// entries outside [0, n) are an error — no orbit action exists there.
func Compute(auts []graph.Automorphism, pairs [][2]int) (*Pairs, error) {
	n := 0
	if len(auts) > 0 {
		n = len(auts[0])
	}
	o := &Pairs{classOf: make(map[[2]int]int, len(pairs))}
	for i, p := range pairs {
		if p[0] < 0 || p[0] >= n || p[1] < 0 || p[1] >= n {
			return nil, fmt.Errorf("orbits: pair %d = %v out of range [0,%d)", i, p, n)
		}
		if _, seen := o.classOf[p]; seen {
			continue
		}
		class := len(o.reps)
		o.reps = append(o.reps, p)
		for _, a := range auts {
			img := [2]int{a[p[0]], a[p[1]]}
			if _, seen := o.classOf[img]; !seen {
				o.classOf[img] = class
			}
		}
		// Defensive: guarantee the representative is classified even if
		// the caller's group misses the identity.
		if _, seen := o.classOf[p]; !seen {
			o.classOf[p] = class
		}
	}
	return o, nil
}

// Count returns the number of orbits among the listed pairs.
func (o *Pairs) Count() int { return len(o.reps) }

// Representatives returns one start pair per orbit — the first listed
// member of each — in first-occurrence order, which is a subsequence
// of the original enumeration order. The caller must not mutate it.
func (o *Pairs) Representatives() [][2]int { return o.reps }

// Representative returns the canonical representative of p's orbit,
// and whether p belongs to any computed orbit.
func (o *Pairs) Representative(p [2]int) ([2]int, bool) {
	class, ok := o.classOf[p]
	if !ok {
		return [2]int{}, false
	}
	return o.reps[class], true
}

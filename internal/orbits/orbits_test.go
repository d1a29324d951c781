package orbits

import (
	"testing"

	"rendezvous/internal/graph"
)

// allPairs returns every ordered distinct pair over n nodes in the
// search engine's canonical enumeration order.
func allPairs(n int) [][2]int {
	pairs := make([][2]int, 0, n*(n-1))
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v {
				pairs = append(pairs, [2]int{u, v})
			}
		}
	}
	return pairs
}

// TestRingOrbits: on the oriented n-ring the ordered distinct pairs
// fall into n-1 orbits keyed by clockwise gap, each represented by its
// first listed member (0, gap).
func TestRingOrbits(t *testing.T) {
	n := 5
	g := graph.OrientedRing(n)
	o, err := Compute(graph.Automorphisms(g), allPairs(n))
	if err != nil {
		t.Fatal(err)
	}
	if o.Count() != n-1 {
		t.Fatalf("Count = %d, want %d", o.Count(), n-1)
	}
	reps := o.Representatives()
	for i, want := range [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}} {
		if reps[i] != want {
			t.Errorf("reps[%d] = %v, want %v", i, reps[i], want)
		}
	}
	rep, ok := o.Representative([2]int{3, 1})
	if !ok || rep != [2]int{0, 3} {
		t.Errorf("Representative((3,1)) = %v,%v; want (0,3) — gap (1-3) mod 5 = 3", rep, ok)
	}
}

// TestLiftTransportsRepresentatives: every pair's representative is
// carried onto the pair by some automorphism of the graph — the pair
// really lies in its representative's orbit, so an outcome witnessed
// at the representative lifts back to it.
func TestLiftTransportsRepresentatives(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"ring-6":    graph.OrientedRing(6),
		"torus-3x3": graph.Torus(3, 3),
		"cube-3":    graph.Hypercube(3),
		"grid-2x3":  graph.Grid(2, 3),
	} {
		t.Run(name, func(t *testing.T) {
			auts := graph.Automorphisms(g)
			pairs := allPairs(g.N())
			o, err := Compute(auts, pairs)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range pairs {
				rep, ok := o.Representative(p)
				if !ok {
					t.Fatalf("pair %v unclassified", p)
				}
				lifted := false
				for _, phi := range auts {
					if phi[rep[0]] == p[0] && phi[rep[1]] == p[1] {
						if !g.IsAutomorphism(phi) {
							t.Fatalf("group element %v is not an automorphism", phi)
						}
						lifted = true
						break
					}
				}
				if !lifted {
					t.Fatalf("no automorphism carries rep %v onto %v", rep, p)
				}
			}
		})
	}
}

// TestTrivialGroupKeepsEveryPair: with only the identity, every listed
// pair is its own orbit and the representative list is the input.
func TestTrivialGroupKeepsEveryPair(t *testing.T) {
	id := graph.Automorphism{0, 1, 2, 3}
	pairs := [][2]int{{0, 1}, {2, 3}, {3, 0}}
	o, err := Compute([]graph.Automorphism{id}, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if o.Count() != len(pairs) {
		t.Fatalf("Count = %d, want %d", o.Count(), len(pairs))
	}
	for i, p := range pairs {
		if o.Representatives()[i] != p {
			t.Errorf("reps[%d] = %v, want %v", i, o.Representatives()[i], p)
		}
	}
}

// TestDuplicatesAndSubsets: duplicate pairs collapse into their first
// occurrence, and a subset holding several members of one orbit keeps
// only the first.
func TestDuplicatesAndSubsets(t *testing.T) {
	auts := graph.Automorphisms(graph.OrientedRing(6))
	o, err := Compute(auts, [][2]int{{1, 3}, {1, 3}, {4, 0}, {0, 5}})
	if err != nil {
		t.Fatal(err)
	}
	// (1,3) and (4,0) both have gap 2; (0,5) has gap 5.
	if o.Count() != 2 {
		t.Fatalf("Count = %d, want 2", o.Count())
	}
	if reps := o.Representatives(); reps[0] != [2]int{1, 3} || reps[1] != [2]int{0, 5} {
		t.Fatalf("reps = %v", reps)
	}
	if rep, _ := o.Representative([2]int{4, 0}); rep != [2]int{1, 3} {
		t.Errorf("Representative((4,0)) = %v, want (1,3)", rep)
	}
}

// TestComputeErrors: out-of-range pair entries have no orbit action
// and must be rejected, including against the empty group.
func TestComputeErrors(t *testing.T) {
	auts := graph.Automorphisms(graph.OrientedRing(4))
	for _, pairs := range [][][2]int{
		{{0, 4}},
		{{-1, 2}},
		{{9, 9}},
	} {
		if _, err := Compute(auts, pairs); err == nil {
			t.Errorf("pairs %v: want error", pairs)
		}
	}
	if _, err := Compute(nil, [][2]int{{0, 1}}); err == nil {
		t.Error("empty group with nonempty pairs: want out-of-range error")
	}
	o, err := Compute(auts, nil)
	if err != nil || o.Count() != 0 {
		t.Errorf("empty pair list: got %v, %v", o.Count(), err)
	}
	if _, ok := o.Representative([2]int{0, 1}); ok {
		t.Error("unlisted pair must not resolve")
	}
}

// TestMissingIdentityStillClassifiesReps: a caller-supplied group
// without the identity (not produced by graph.Automorphisms, but
// allowed by the signature) must still classify each representative
// into its own orbit.
func TestMissingIdentityStillClassifiesReps(t *testing.T) {
	rot := graph.Automorphism{1, 2, 3, 0} // rotation only, no identity
	o, err := Compute([]graph.Automorphism{rot}, [][2]int{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if o.Count() != 1 {
		t.Fatalf("Count = %d, want 1 ((1,2) is the rotation image of (0,1))", o.Count())
	}
	rep, ok := o.Representative([2]int{0, 1})
	if !ok || rep != [2]int{0, 1} {
		t.Fatalf("representative lost without identity: %v %v", rep, ok)
	}
}

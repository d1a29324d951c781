package adversary

import (
	"testing"

	"rendezvous/internal/core"
	"rendezvous/internal/explore"
	"rendezvous/internal/graph"
	"rendezvous/internal/sim"
)

// renamedExplorer wraps an explorer under a different name, to pin
// down that fingerprints hash explorer behaviour, not identity.
type renamedExplorer struct {
	explore.Explorer
}

func (renamedExplorer) Name() string { return "totally-different-name" }

// allOrderedPairs spells out the default expansion of {1..L} label
// pairs (or 0..n-1 start pairs with base 0) explicitly.
func allOrderedPairs(lo, hi int) [][2]int {
	var pairs [][2]int
	for a := lo; a <= hi; a++ {
		for b := lo; b <= hi; b++ {
			if a != b {
				pairs = append(pairs, [2]int{a, b})
			}
		}
	}
	return pairs
}

// fingerprintModel is the base search of the fingerprint tests: the
// cheap algorithm at L = 4 on the oriented 6-ring.
func fingerprintModel(space sim.SearchSpace) PaperModel {
	return PaperModel{Spec: specFor(graph.OrientedRing(6), explore.OrientedRingSweep{}, core.Cheap{}, 4), Space: space}
}

func mustFingerprint(t *testing.T, m PaperModel) string {
	t.Helper()
	fp, err := m.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// TestFingerprintCanonicalization is the "two spellings, one hash"
// contract the serving layer depends on: every pair of requests that
// denotes the same computation must collide, however it was written.
func TestFingerprintCanonicalization(t *testing.T) {
	base := fingerprintModel(sim.SearchSpace{L: 4})
	baseFP := mustFingerprint(t, base)

	t.Run("L-vs-explicit-label-pairs", func(t *testing.T) {
		m := base
		m.Space = sim.SearchSpace{LabelPairs: allOrderedPairs(1, 4)}
		if got := mustFingerprint(t, m); got != baseFP {
			t.Errorf("explicit label pairs hash differently from L: %s != %s", got, baseFP)
		}
	})
	t.Run("default-vs-explicit-start-pairs", func(t *testing.T) {
		m := base
		m.Space = sim.SearchSpace{L: 4, StartPairs: allOrderedPairs(0, 5)}
		if got := mustFingerprint(t, m); got != baseFP {
			t.Errorf("explicit start pairs hash differently from the default: %s != %s", got, baseFP)
		}
	})
	t.Run("default-vs-explicit-delays", func(t *testing.T) {
		m := base
		m.Space = sim.SearchSpace{L: 4, Delays: []int{0}}
		if got := mustFingerprint(t, m); got != baseFP {
			t.Errorf("explicit {0} delays hash differently from the default: %s != %s", got, baseFP)
		}
	})
	t.Run("explorer-by-behaviour-not-name", func(t *testing.T) {
		m := base
		m.Spec.Explorer = renamedExplorer{explore.OrientedRingSweep{}}
		if got := mustFingerprint(t, m); got != baseFP {
			t.Errorf("renamed explorer with identical plans hashes differently: %s != %s", got, baseFP)
		}
	})
	t.Run("graph-by-structure-not-construction", func(t *testing.T) {
		m := base
		// Rebuild the canonical oriented ring by hand, edge by edge.
		b := graph.NewBuilder(6)
		for v := 0; v < 6; v++ {
			b.AddEdgePorts(v, 0, (v+1)%6, 1)
		}
		m.Spec.Graph = b.MustBuild()
		if got := mustFingerprint(t, m); got != baseFP {
			t.Errorf("structurally identical graph hashes differently: %s != %s", got, baseFP)
		}
	})
	t.Run("deterministic", func(t *testing.T) {
		if got := mustFingerprint(t, base); got != baseFP {
			t.Errorf("same model hashed twice diverged: %s != %s", got, baseFP)
		}
	})
}

// TestFingerprintSeparation checks the other direction: every
// engine-relevant difference must change the hash.
func TestFingerprintSeparation(t *testing.T) {
	base := fingerprintModel(sim.SearchSpace{L: 4})
	baseFP := mustFingerprint(t, base)
	params := core.Params{L: 4}

	mutations := map[string]func(*PaperModel){
		"graph-size":   func(m *PaperModel) { m.Spec.Graph = graph.OrientedRing(7) },
		"graph-family": func(m *PaperModel) { m.Spec.Graph = graph.Path(6); m.Spec.Explorer = explore.DFS{} },
		"explorer": func(m *PaperModel) {
			m.Spec.Explorer = explore.DFS{}
		},
		"algorithm": func(m *PaperModel) {
			m.Spec.ScheduleFor = func(l int) sim.Schedule { return core.Fast{}.Schedule(l, params) }
		},
		"label-space": func(m *PaperModel) { m.Space = sim.SearchSpace{L: 3} },
		"delays":      func(m *PaperModel) { m.Space = sim.SearchSpace{L: 4, Delays: []int{0, 1}} },
		"start-pairs": func(m *PaperModel) { m.Space = sim.SearchSpace{L: 4, StartPairs: [][2]int{{0, 3}}} },
		"symmetry":    func(m *PaperModel) { m.Symmetry = SymmetryOff },
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			m := base
			mutate(&m)
			if got := mustFingerprint(t, m); got == baseFP {
				t.Errorf("%s mutation did not change the fingerprint", name)
			}
		})
	}

	// Explorer differences must separate even for explorers sharing a
	// duration formula: DFS and UnmarkedDFS differ on every family.
	m1, m2 := base, base
	m1.Spec.Explorer = explore.DFS{}
	m2.Spec.Explorer = explore.UnmarkedDFS{}
	if mustFingerprint(t, m1) == mustFingerprint(t, m2) {
		t.Error("DFS and UnmarkedDFS hash identically")
	}
}

func TestFingerprintErrors(t *testing.T) {
	base := fingerprintModel(sim.SearchSpace{L: 4})

	t.Run("nil-components", func(t *testing.T) {
		for name, mutate := range map[string]func(*PaperModel){
			"graph":    func(m *PaperModel) { m.Spec.Graph = nil },
			"explorer": func(m *PaperModel) { m.Spec.Explorer = nil },
			"schedule": func(m *PaperModel) { m.Spec.ScheduleFor = nil },
		} {
			m := base
			mutate(&m)
			if _, err := m.Fingerprint(); err == nil {
				t.Errorf("nil %s: want error", name)
			}
		}
	})
	t.Run("invalid-space", func(t *testing.T) {
		m := base
		m.Space = sim.SearchSpace{L: 1}
		if _, err := m.Fingerprint(); err == nil {
			t.Error("L=1 space: want error")
		}
		m.Space = sim.SearchSpace{L: 4, StartPairs: [][2]int{{2, 2}}}
		if _, err := m.Fingerprint(); err == nil {
			t.Error("equal start pair: want error")
		}
	})
	t.Run("explorer-rejects-graph", func(t *testing.T) {
		m := base
		m.Spec.Graph = graph.Path(4) // odd-degree nodes: no Eulerian circuit
		m.Spec.Explorer = explore.Eulerian{}
		if _, err := m.Fingerprint(); err == nil {
			t.Error("Eulerian on a path: want error")
		}
	})
}

// BenchmarkFingerprint times the content address of three of the
// serving benchmark's hot-set searches: the cost a served cache hit
// pays before it can look the result up. Each search is the cheap
// algorithm under the default explorer with delays {0, 1, E}.
func BenchmarkFingerprint(b *testing.B) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		l    int
	}{
		{"ring24-L64", graph.OrientedRing(24), 64},
		{"hypercube4-L32", graph.Hypercube(4), 32},
		{"torus4x4-L32", graph.Torus(4, 4), 32},
	} {
		ex, err := explore.ByName("", tc.g, 16)
		if err != nil {
			b.Fatal(err)
		}
		m := PaperModel{
			Spec:  specFor(tc.g, ex, core.Cheap{}, tc.l),
			Space: sim.SearchSpace{L: tc.l, Delays: []int{0, 1, ex.Duration(tc.g)}},
		}
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := m.Fingerprint(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

package bench

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"

	"rendezvous/examples/scenarios"
	"rendezvous/internal/adversary"
	"rendezvous/internal/core"
	"rendezvous/internal/model"
	"rendezvous/internal/scenario"
	"rendezvous/internal/sim"
)

// scenarioOptions lowers the experiment options onto the scenario
// compiler's runner-side defaults.
func (o Options) scenarioOptions() scenario.Options {
	return scenario.Options{Tier: o.Tier, Symmetry: o.Symmetry, TableBudget: o.TableBudget}
}

// search executes one engine search of any model under the harness's
// persistence options: a store hit short-circuits the engine and a
// checkpoint directory makes the search resumable. Results are
// identical on every path. It is the one store/checkpoint front of the
// package: the experiments and RunScenario both search through it.
func (o Options) search(m model.Model) (sim.WorstCase, error) {
	opts := adversary.Options{Workers: o.Workers, Context: o.Context}
	if o.CheckpointDir == "" {
		wc, _, err := adversary.SearchModelCached(o.Store, m, opts)
		return wc, err
	}
	fp, err := m.Fingerprint()
	if err != nil {
		// Unfingerprintable searches (the engine would reject them, a
		// forced tier the spec cannot run among them) run unpersisted,
		// so the caller sees the engine's own error.
		return adversary.SearchModel(m, opts)
	}
	if o.Store != nil {
		if wc, ok := o.Store.Get(fp); ok {
			return wc, nil
		}
	}
	ckpt := filepath.Join(o.CheckpointDir, fp+".ckpt")
	wc, err := adversary.SearchModelCheckpointed(m, opts,
		adversary.CheckpointConfig{Path: ckpt, Fingerprint: fp})
	if err != nil {
		return sim.WorstCase{}, err
	}
	// The checkpoint is crash recovery, not a cache (that is the
	// store's job): once the search completed, drop it so the resume
	// directory does not accumulate one stale file per configuration.
	os.Remove(ckpt)
	if o.Store != nil {
		_ = o.Store.Put(fp, wc) // best-effort: a miss next time recomputes
	}
	return wc, nil
}

// RunScenario compiles and runs every search of a scenario file through
// the engine's model-generic path, returning the results in file
// order. It is rdvbench -scenario: the searches the experiments run
// from their committed files, for any file.
func RunScenario(f *scenario.File, opts Options) ([]sim.WorstCase, error) {
	models, err := f.CompileAll(opts.scenarioOptions())
	if err != nil {
		return nil, err
	}
	results := make([]sim.WorstCase, len(models))
	for i, m := range models {
		if results[i], err = opts.search(m); err != nil {
			return nil, fmt.Errorf("bench: scenario search %d: %w", i, err)
		}
	}
	return results, nil
}

// sweep is one engine search of an experiment: the scenario document
// that spells it, the paper model it compiles to, the algorithm it
// names, and the adversary's worst case.
type sweep struct {
	doc  scenario.Search
	m    adversary.PaperModel
	algo core.Algorithm
	wc   sim.WorstCase
}

// n is the size of the search's graph.
func (s sweep) n() int { return s.m.Spec.Graph.N() }

// e is the exploration time E of the search's explorer on its graph.
func (s sweep) e() int { return s.m.Spec.Explorer.Duration(s.m.Spec.Graph) }

// l is the search's label-space size L.
func (s sweep) l() int { return s.m.Space.L }

// weight returns w for a FastWithRelabeling(w) search; ok is false for
// every other algorithm.
func (s sweep) weight() (w int, ok bool) {
	fwr, ok := s.algo.(core.FastWithRelabeling)
	if !ok {
		return 0, false
	}
	return fwr.W(s.l()), true
}

// name is the algorithm's table label: fwr(w=W) for the relabeling
// family (whose Name does not carry the weight), Name otherwise.
func (s sweep) name() string {
	if w, ok := s.weight(); ok {
		return fmt.Sprintf("fwr(w=%d)", w)
	}
	return s.algo.Name()
}

// sweeps runs every search of the experiment's committed scenario file
// (examples/scenarios/<id>.json), in file order. An execution that
// never meets fails the experiment — the algorithms under test are
// proven to meet — unless mayMiss (nil exempts nothing) accepts the
// search: a baseline or ablation whose non-meeting is data, not a bug.
func (o Options) sweeps(id string, mayMiss func(scenario.Search) bool) ([]sweep, error) {
	data, err := scenarios.FS.ReadFile(id + ".json")
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", id, err)
	}
	f, err := scenario.ParseFile(data)
	if err != nil {
		return nil, fmt.Errorf("bench: %s.json: %w", id, err)
	}
	if f.Experiment != id {
		return nil, fmt.Errorf("bench: %s.json is bound to experiment %q", id, f.Experiment)
	}
	models, err := f.CompileAll(o.scenarioOptions())
	if err != nil {
		return nil, fmt.Errorf("bench: %s.json: %w", id, err)
	}
	out := make([]sweep, len(models))
	for i, m := range models {
		s := sweep{doc: f.Searches[i]}
		var ok bool
		if s.m, ok = m.(adversary.PaperModel); !ok {
			return nil, fmt.Errorf("bench: %s: search %d: model %q, want paper", id, i, m.Name())
		}
		if s.algo, err = core.AlgorithmByName(s.doc.Algorithm); err != nil {
			return nil, fmt.Errorf("bench: %s: search %d: %w", id, i, err)
		}
		if s.wc, err = o.search(m); err != nil {
			return nil, fmt.Errorf("bench: %s on %v: %w", s.algo.Name(), s.m.Spec.Graph, err)
		}
		if !s.wc.AllMet && (mayMiss == nil || !mayMiss(s.doc)) {
			return nil, fmt.Errorf("bench: %s on %v: some executions never meet", s.algo.Name(), s.m.Spec.Graph)
		}
		out[i] = s
	}
	return out, nil
}

// groups splits sweeps into maximal consecutive runs sharing key.
func groups[K comparable](sweeps []sweep, key func(sweep) K) [][]sweep {
	var out [][]sweep
	for start := 0; start < len(sweeps); {
		end := start + 1
		for end < len(sweeps) && key(sweeps[end]) == key(sweeps[start]) {
			end++
		}
		out = append(out, sweeps[start:end])
		start = end
	}
	return out
}

// pick returns, for each named scenario algorithm in order, the first
// sweep of group that runs it.
func pick(group []sweep, algorithms ...string) ([]sweep, error) {
	out := make([]sweep, len(algorithms))
	for i, algorithm := range algorithms {
		j := slices.IndexFunc(group, func(s sweep) bool { return s.doc.Algorithm == algorithm })
		if j < 0 {
			return nil, fmt.Errorf("bench: no %s search among %d", algorithm, len(group))
		}
		out[i] = group[j]
	}
	return out, nil
}

// fitExponent fits the least-squares slope of log(y) against log(x) —
// used to estimate empirical scaling exponents such as Corollary 2.1's
// L^{1/c}.
func fitExponent(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return math.NaN()
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		lx, ly := math.Log(xs[i]), math.Log(ys[i])
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
	}
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}

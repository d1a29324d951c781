package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"rendezvous/internal/adversary"
	"rendezvous/internal/model"
	"rendezvous/internal/scenario"
	"rendezvous/internal/sim"
)

// doc is one compiled search document of a workload.
type doc struct {
	name string
	// search is the standalone document, kept for re-compiles.
	search scenario.Search
	model  model.Model
	// configs is the declared configuration count: label pairs × start
	// pairs × delays of the expanded space, before symmetry reduction.
	configs int64
	// compile is the document's share of its parse and compile time.
	compile time.Duration
}

// offline is the paper and dynamic workloads: a fixed list of compiled
// documents, searched one after another in a seeded order, each cold
// through adversary.SearchModel with GOMAXPROCS workers, as
// rdvbench -scenario runs them. One pass over the list is one window.
type offline struct {
	name string
	// load reads or generates the documents and compiles them.
	load  func(cfg config) ([]doc, error)
	docs  []doc
	order []int
	// ref holds the warm-up result of every document; every timed
	// pass must reproduce it.
	ref  []sim.WorstCase
	refE []error
	// outs holds the timed outputs, one entry per op.
	outs []offlineOut
	// traces holds the traced phase's per-search decompositions.
	traces []searchTrace
}

type offlineOut struct {
	doc int
	wc  sim.WorstCase
	err error
}

func newPaper() *offline   { return &offline{name: "paper", load: loadPaper} }
func newDynamic() *offline { return &offline{name: "dynamic", load: loadDynamic} }

// setUpRuns is high because an offline set-up takes only milliseconds,
// so a single preemption would move one interval by tens of percent.
func (w *offline) setUpRuns() int { return 21 }

func (w *offline) setUp(cfg config) error {
	docs, err := w.load(cfg)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewPCG(uint64(cfg.seed), 0x6f72646572))
	w.docs, w.order = docs, rng.Perm(len(docs))
	w.outs, w.traces = nil, nil
	return nil
}

func (w *offline) tearDown() {}

func (w *offline) windowSize() int { return len(w.docs) }

// loadPaper parses and compiles every search of the committed
// examples/scenarios/E*.json files. Files without searches (the
// experiments that make no engine search) contribute nothing.
func loadPaper(cfg config) ([]doc, error) {
	files, err := filepath.Glob(filepath.Join(cfg.root, "examples", "scenarios", "E*.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("paper: no examples/scenarios/E*.json under %q (run from the repository root)", cfg.root)
	}
	var docs []doc
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		f, err := scenario.ParseFile(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		models, err := f.CompileAll(scenario.Options{})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		elapsed := time.Since(start)
		for i, m := range models {
			configs, err := declaredConfigs(m)
			if err != nil {
				return nil, fmt.Errorf("%s: search %d: %w", path, i, err)
			}
			s := f.Searches[i]
			s.Version = scenario.Version
			docs = append(docs, doc{
				name:    fmt.Sprintf("%s#%d", filepath.Base(path), i),
				search:  s,
				model:   m,
				configs: configs,
				compile: elapsed / time.Duration(len(models)),
			})
		}
	}
	return docs, nil
}

// loadDynamic generates the seed's dynamic documents and parses and
// compiles each.
func loadDynamic(cfg config) ([]doc, error) {
	raw, err := dynamicDocs(cfg.seed)
	if err != nil {
		return nil, err
	}
	docs := make([]doc, 0, len(raw))
	for i, data := range raw {
		d, err := compileDoc(fmt.Sprintf("dynamic#%d", i), data)
		if err != nil {
			return nil, err
		}
		docs = append(docs, d)
	}
	return docs, nil
}

// compileDoc parses and compiles one standalone document.
func compileDoc(name string, data []byte) (doc, error) {
	start := time.Now()
	s, err := scenario.ParseSearch(data)
	if err != nil {
		return doc{}, fmt.Errorf("%s: %w", name, err)
	}
	m, err := s.Compile(scenario.Options{})
	if err != nil {
		return doc{}, fmt.Errorf("%s: %w", name, err)
	}
	elapsed := time.Since(start)
	configs, err := declaredConfigs(m)
	if err != nil {
		return doc{}, fmt.Errorf("%s: %w", name, err)
	}
	return doc{name: name, search: *s, model: m, configs: configs, compile: elapsed}, nil
}

// declaredConfigs is a model's declared configuration count.
func declaredConfigs(m model.Model) (int64, error) {
	space, n, err := spaceOf(m)
	if err != nil {
		return 0, err
	}
	lp, sp, d, err := space.Expand(n)
	if err != nil {
		return 0, err
	}
	return int64(len(lp)) * int64(len(sp)) * int64(len(d)), nil
}

// spaceOf returns a model's configuration space and graph size.
func spaceOf(m model.Model) (sim.SearchSpace, int, error) {
	switch m := m.(type) {
	case adversary.PaperModel:
		return m.Space, m.Spec.Graph.N(), nil
	case model.Dynamic:
		return m.Space, m.Graph.N(), nil
	}
	return sim.SearchSpace{}, 0, fmt.Errorf("unsupported model %q", m.Name())
}

func searchOpts() adversary.Options { return adversary.Options{Workers: -1} }

// warmUp runs one untimed pass and keeps its outputs as the reference
// every timed pass must reproduce.
func (w *offline) warmUp() error {
	w.ref = make([]sim.WorstCase, len(w.docs))
	w.refE = make([]error, len(w.docs))
	for _, i := range w.order {
		w.ref[i], w.refE[i] = adversary.SearchModel(w.docs[i].model, searchOpts())
	}
	return nil
}

// run executes whole passes until the deadline. A traced pass runs
// each search through its plan, shard and merge calls with a span
// around each.
func (w *offline) run(start, deadline time.Time, traced bool) ([]op, error) {
	var ops []op
	for {
		for _, i := range w.order {
			t := time.Now()
			var wc sim.WorstCase
			var err error
			if traced {
				var tr searchTrace
				wc, tr, err = tracedSearch(w.docs[i].model, t.Sub(start))
				tr.doc, tr.op = i, len(ops)
				w.traces = append(w.traces, tr)
			} else {
				wc, err = adversary.SearchModel(w.docs[i].model, searchOpts())
			}
			now := time.Now()
			ops = append(ops, op{end: now.Sub(start), latency: now.Sub(t), configs: w.docs[i].configs})
			w.outs = append(w.outs, offlineOut{doc: i, wc: wc, err: err})
		}
		if !time.Now().Before(deadline) {
			return ops, nil
		}
	}
}

// genericSample is how many small documents are re-run with the generic
// tier forced; smallConfigs and smallL bound what counts as small.
const (
	genericSample = 8
	smallConfigs  = 20000
	smallL        = 64
)

// check verifies every timed output: it must equal the warm-up
// reference, and for a seeded sample of small documents the reference
// must equal a serial re-run with the generic tier forced. An op whose
// document fails either check counts as failed.
func (w *offline) check(cfg config) (attempted, failed int, notes []string) {
	bad := make([]bool, len(w.docs))
	for i := range w.docs {
		if w.refE[i] != nil {
			bad[i] = true
			notes = append(notes, fmt.Sprintf("%s: %v", w.docs[i].name, w.refE[i]))
		}
	}
	var small []int
	for i, d := range w.docs {
		if d.configs <= smallConfigs && d.search.EffectiveL() <= smallL && !bad[i] {
			small = append(small, i)
		}
	}
	rng := rand.New(rand.NewPCG(uint64(cfg.seed), 0x67656e65726963))
	rng.Shuffle(len(small), func(a, b int) { small[a], small[b] = small[b], small[a] })
	for _, i := range small[:min(genericSample, len(small))] {
		s := w.docs[i].search
		s.Tier = "generic"
		m, err := s.Compile(scenario.Options{})
		if err == nil {
			var wc sim.WorstCase
			wc, err = adversary.SearchModel(m, adversary.Options{Workers: 1})
			if err == nil && wc != w.ref[i] {
				err = fmt.Errorf("generic tier gives %+v, %s gives %+v", wc, w.name, w.ref[i])
			}
		}
		if err != nil {
			bad[i] = true
			notes = append(notes, fmt.Sprintf("%s: generic re-run: %v", w.docs[i].name, err))
		}
	}
	for _, o := range w.outs {
		attempted++
		switch {
		case o.err != nil:
			failed++
			notes = append(notes, fmt.Sprintf("%s: %v", w.docs[o.doc].name, o.err))
		case o.wc != w.ref[o.doc]:
			failed++
			if len(notes) < 10 {
				notes = append(notes, fmt.Sprintf("%s: output differs from the warm-up pass", w.docs[o.doc].name))
			}
		case bad[o.doc]:
			failed++
		}
	}
	return attempted, failed, notes
}

// layers replays every document's plan sub-steps and computes the
// per-layer metrics of the traced passes.
func (w *offline) layers(cfg config, untraced, traced phase) (*layers, attribution, error) {
	l := &layers{}
	var compile time.Duration
	for _, d := range w.docs {
		compile += d.compile
	}
	l.set("scenario.compile_us", "us", us(compile)/float64(max(len(w.docs), 1)))
	tierOf := make(map[int]string)
	for _, t := range w.traces {
		tierOf[t.doc] = t.tier
	}
	replays := make([]replay, 0, len(w.docs))
	for i, d := range w.docs {
		r, err := replayDoc(d.model, tierOf[i], true)
		if err != nil {
			return nil, attribution{}, fmt.Errorf("%s: replay: %w", d.name, err)
		}
		replays = append(replays, r)
	}
	engineLayers(l, w.traces, func(doc int) int64 { return w.docs[doc].configs }, replays)
	if _, err := writeSpans(cfg, w.traces); err != nil {
		return nil, attribution{}, err
	}
	return l, searchAttribution(w.traces), nil
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"rendezvous/internal/adversary"
	"rendezvous/internal/auth"
	"rendezvous/internal/explore"
	"rendezvous/internal/model"
	"rendezvous/internal/resultstore"
	"rendezvous/internal/scenario"
	"rendezvous/internal/serve"
	"rendezvous/internal/sim"
	"rendezvous/internal/trace"
)

// The serve workload's request sequence. Each of the serveConns
// connections replays blocks of serveBlock requests; a block holds
// exactly serveMisses fresh searches at seeded positions, and hits on
// the hot set everywhere else, half of them in the inline form and
// half in the scenario form.
const (
	serveConns  = 2
	serveBlock  = 20
	serveMisses = 2
	// serveWindow is the op count of one measurement window.
	serveWindow = 1000
	// warmBlocks is the untimed warm-up, in blocks per connection.
	warmBlocks = 10
)

// tenantTokens grants the two bearer-token tenants, one per connection.
const tenantTokens = "perfbench-token-a tenant-a 1\nperfbench-token-b tenant-b 1\n"

var connTokens = [serveConns]string{"perfbench-token-a", "perfbench-token-b"}

// shape is a document's cost-setting parameters.
type shape struct {
	graph scenario.GraphSpec
	algo  string
	l     int
}

// hotShapes is the hot set: families, sizes and label spaces vary, so
// the compile and fingerprint cost of a hit varies with the document.
var hotShapes = []shape{
	{scenario.GraphSpec{Family: "ring", N: 8}, "cheap", 16},
	{scenario.GraphSpec{Family: "ring", N: 12}, "fast", 32},
	{scenario.GraphSpec{Family: "ring", N: 16}, "fwr(2)", 8},
	{scenario.GraphSpec{Family: "ring", N: 24}, "cheap", 64},
	{scenario.GraphSpec{Family: "path", N: 6}, "cheap", 8},
	{scenario.GraphSpec{Family: "path", N: 10}, "fast", 16},
	{scenario.GraphSpec{Family: "star", N: 7}, "fast", 8},
	{scenario.GraphSpec{Family: "star", N: 9}, "cheap", 32},
	{scenario.GraphSpec{Family: "complete", N: 5}, "cheap", 16},
	{scenario.GraphSpec{Family: "complete", N: 7}, "fwr(2)", 8},
	{scenario.GraphSpec{Family: "circulant", N: 6}, "fast", 16},
	{scenario.GraphSpec{Family: "circulant", N: 8}, "cheap", 8},
	{scenario.GraphSpec{Family: "grid", Rows: 2, Cols: 3}, "cheap", 32},
	{scenario.GraphSpec{Family: "grid", Rows: 3, Cols: 3}, "fast", 8},
	{scenario.GraphSpec{Family: "grid", Rows: 3, Cols: 4}, "cheap", 16},
	{scenario.GraphSpec{Family: "grid", Rows: 4, Cols: 4}, "fwr(2)", 8},
	{scenario.GraphSpec{Family: "torus", Rows: 3, Cols: 3}, "cheap", 16},
	{scenario.GraphSpec{Family: "torus", Rows: 3, Cols: 4}, "fast", 8},
	{scenario.GraphSpec{Family: "torus", Rows: 4, Cols: 4}, "cheap", 32},
	{scenario.GraphSpec{Family: "torus", Rows: 4, Cols: 5}, "fast", 8},
	{scenario.GraphSpec{Family: "hypercube", N: 2}, "fwr(2)", 16},
	{scenario.GraphSpec{Family: "hypercube", N: 3}, "cheap", 16},
	{scenario.GraphSpec{Family: "hypercube", N: 4}, "fast", 8},
	{scenario.GraphSpec{Family: "hypercube", N: 4}, "cheap", 32},
}

// missShapes are the fresh searches: grid, torus and hypercube shapes
// of near-constant cost, on which the automatic tier choice picks the
// batch tier (grids) or, after orbit reduction, the scalar table.
var missShapes = []shape{
	{scenario.GraphSpec{Family: "grid", Rows: 3, Cols: 4}, "cheap", 8},
	{scenario.GraphSpec{Family: "grid", Rows: 4, Cols: 4}, "fast", 6},
	{scenario.GraphSpec{Family: "torus", Rows: 4, Cols: 4}, "cheap", 8},
	{scenario.GraphSpec{Family: "torus", Rows: 4, Cols: 5}, "fast", 8},
	{scenario.GraphSpec{Family: "hypercube", N: 4}, "cheap", 8},
	{scenario.GraphSpec{Family: "hypercube", N: 5}, "fast", 6},
}

// explorationTime is E for the shape's graph under the automatic
// explorer choice.
func explorationTime(g scenario.GraphSpec) (int, error) {
	built, err := g.Build()
	if err != nil {
		return 0, err
	}
	ex, err := explore.ByName("", built, 16)
	if err != nil {
		return 0, err
	}
	return ex.Duration(built), nil
}

// serveReq is one request of the sequence.
type serveReq struct {
	conn, block int
	// hot is the hot-set index of a hit, or -1 for a miss.
	hot int
	// miss is the global index of a miss; it makes the miss's delay set,
	// and so its fingerprint, unique.
	miss   int
	inline bool
}

// serveDoc is a hot-set document with its request bodies.
type serveDoc struct {
	doc
	bodies [2][2][]byte // [inline][timings]
}

// serveOut is one completed request, decoded.
type serveOut struct {
	req     serveReq
	status  int
	resp    serve.Response
	err     error
	latency time.Duration
	// timings marks a request sent with "timings": true.
	timings bool
}

// serveWorkload drives an in-process rdvd over loopback HTTP.
type serveWorkload struct {
	cfg       config
	hot       []serveDoc
	missE     []int
	tmp       string
	http      *http.Server
	transport [serveConns]*http.Transport
	url       string
	blocks    [serveConns]int
	outs      []serveOut
}

func newServe() *serveWorkload { return &serveWorkload{} }

func (w *serveWorkload) setUpRuns() int { return 5 }

func (w *serveWorkload) windowSize() int { return serveWindow }

// setUp generates the hot set, starts a server with rdvd's defaults
// (a fresh on-disk store, tracing on, GOMAXPROCS engine slots and
// workers) plus the two tenants, and pre-fills the hot set through
// real requests.
func (w *serveWorkload) setUp(cfg config) error {
	w.cfg = cfg
	w.blocks = [serveConns]int{}
	w.outs = nil
	if err := w.generate(cfg.seed); err != nil {
		return err
	}
	tmpRoot := filepath.Join(cfg.root, buildDir, "tmp")
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(tmpRoot, "serve-store-")
	if err != nil {
		return err
	}
	w.tmp = dir
	store, err := resultstore.Open(dir)
	if err != nil {
		return err
	}
	authn, err := auth.ParseTokens([]byte(tenantTokens))
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv, err := serve.New(serve.Config{
		Store:    store,
		Workers:  -1,
		Auth:     authn,
		Tracer:   trace.New(trace.Config{}),
		Instance: ln.Addr().String(),
	})
	if err != nil {
		ln.Close()
		return err
	}
	w.url = "http://" + ln.Addr().String() + "/search"
	w.http = &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	go w.http.Serve(ln)
	for c := range w.transport {
		w.transport[c] = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	}
	for i := range w.hot {
		out := w.post(0, w.hot[i].bodies[1][0])
		if out.err == nil && out.status != http.StatusOK {
			out.err = fmt.Errorf("status %d: %s", out.status, out.resp.Error)
		}
		if out.err != nil {
			return fmt.Errorf("serve: pre-fill %s: %w", w.hot[i].name, out.err)
		}
	}
	return nil
}

// tearDown stops the server and removes its store.
func (w *serveWorkload) tearDown() {
	if w.http != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := w.http.Shutdown(ctx); err != nil {
			w.http.Close()
		}
		cancel()
		w.http = nil
	}
	for _, t := range w.transport {
		if t != nil {
			t.CloseIdleConnections()
		}
	}
	if w.tmp != "" {
		os.RemoveAll(w.tmp)
		w.tmp = ""
	}
}

// generate builds the hot set and the miss shapes' exploration times
// from the seed. The seed draws each hot document's delay set among
// sets of the same size, so a hit's declared configurations do not
// depend on the seed.
func (w *serveWorkload) generate(seed int64) error {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x686f74))
	w.hot = w.hot[:0]
	for i, sh := range hotShapes {
		e, err := explorationTime(sh.graph)
		if err != nil {
			return err
		}
		patterns := [][]int{{0, 1, e}, {0, e, 2 * e}, {0, 2, e + 1}}
		s := scenario.Search{Version: scenario.Version, Graph: sh.graph, Algorithm: sh.algo, L: sh.l, Delays: patterns[rng.IntN(len(patterns))]}
		d, err := compileServeDoc(fmt.Sprintf("hot#%d", i), s)
		if err != nil {
			return err
		}
		w.hot = append(w.hot, d)
	}
	w.missE = w.missE[:0]
	for _, sh := range missShapes {
		e, err := explorationTime(sh.graph)
		if err != nil {
			return err
		}
		w.missE = append(w.missE, e)
	}
	return nil
}

// compileServeDoc parses and compiles a document the way the daemon's
// scenario form does and renders its request bodies.
func compileServeDoc(name string, s scenario.Search) (serveDoc, error) {
	data, err := json.Marshal(s)
	if err != nil {
		return serveDoc{}, err
	}
	d, err := compileDoc(name, data)
	if err != nil {
		return serveDoc{}, err
	}
	sd := serveDoc{doc: d}
	for timings := 0; timings < 2; timings++ {
		scen, err := json.Marshal(serve.Request{Scenario: data, Timings: timings == 1})
		if err != nil {
			return serveDoc{}, err
		}
		inline, err := json.Marshal(serve.Request{
			Graph:     serve.GraphSpec{Family: s.Graph.Family, N: s.Graph.N, Rows: s.Graph.Rows, Cols: s.Graph.Cols},
			Explorer:  s.Explorer,
			Algorithm: s.Algorithm,
			L:         s.L,
			Delays:    s.Delays,
			Timings:   timings == 1,
		})
		if err != nil {
			return serveDoc{}, err
		}
		sd.bodies[0][timings], sd.bodies[1][timings] = scen, inline
	}
	return sd, nil
}

// block returns the requests of one block of one connection: a pure
// function of (seed, connection, block).
func (w *serveWorkload) block(c, b int) []serveReq {
	rng := rand.New(rand.NewPCG(uint64(w.cfg.seed), uint64(c)<<32|uint64(b)))
	reqs := make([]serveReq, serveBlock)
	perm := rng.Perm(serveBlock)
	misses := 0
	hits := 0
	for pos := range reqs {
		r := serveReq{conn: c, block: b, hot: -1}
		if perm[pos] < serveMisses {
			r.miss = (b*serveConns+c)*serveMisses + misses
			r.inline = misses%2 == 0
			misses++
		} else {
			r.hot = rng.IntN(len(w.hot))
			r.inline = hits%2 == 0
			hits++
		}
		reqs[pos] = r
	}
	return reqs
}

// missDoc is the fresh search of a miss: a seeded shape with the
// delays {0, 1, E, E+1+miss}, whose last delay makes it unique.
func (w *serveWorkload) missDoc(r serveReq) scenario.Search {
	rng := rand.New(rand.NewPCG(uint64(w.cfg.seed), 0x6d697373<<32|uint64(r.miss)))
	k := rng.IntN(len(missShapes))
	sh, e := missShapes[k], w.missE[k]
	return scenario.Search{Version: scenario.Version, Graph: sh.graph, Algorithm: sh.algo, L: sh.l, Delays: []int{0, 1, e, e + 1 + r.miss}}
}

// missConfigs is a miss document's declared configuration count: every
// label pair, every ordered start pair, four delays.
func missConfigs(s scenario.Search) int64 {
	n := int64(s.Graph.N)
	switch s.Graph.Family {
	case "grid", "torus":
		n = int64(s.Graph.Rows * s.Graph.Cols)
	case "hypercube":
		n = 1 << s.Graph.N
	}
	l := int64(s.L)
	return l * (l - 1) * n * (n - 1) * int64(len(s.Delays))
}

// body renders a request's body.
func (w *serveWorkload) body(r serveReq, timings bool) ([]byte, int64, error) {
	t := 0
	if timings {
		t = 1
	}
	if r.hot >= 0 {
		h := w.hot[r.hot]
		if r.inline {
			return h.bodies[1][t], h.configs, nil
		}
		return h.bodies[0][t], h.configs, nil
	}
	s := w.missDoc(r)
	var req serve.Request
	if r.inline {
		req = serve.Request{
			Graph:     serve.GraphSpec{Family: s.Graph.Family, N: s.Graph.N, Rows: s.Graph.Rows, Cols: s.Graph.Cols},
			Algorithm: s.Algorithm,
			L:         s.L,
			Delays:    s.Delays,
		}
	} else {
		data, err := json.Marshal(s)
		if err != nil {
			return nil, 0, err
		}
		req.Scenario = data
	}
	req.Timings = timings
	data, err := json.Marshal(req)
	return data, missConfigs(s), err
}

// post sends one request on connection c and decodes the answer.
func (w *serveWorkload) post(c int, body []byte) serveOut {
	var out serveOut
	req, err := http.NewRequest(http.MethodPost, w.url, bytes.NewReader(body))
	if err != nil {
		out.err = err
		return out
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Authorization", "Bearer "+connTokens[c])
	start := time.Now()
	resp, err := w.transport[c].RoundTrip(req)
	if err != nil {
		out.err = err
		return out
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	out.latency = time.Since(start)
	out.status = resp.StatusCode
	if err == nil {
		err = json.Unmarshal(data, &out.resp)
	}
	out.err = err
	return out
}

// warmUp runs warmBlocks untimed blocks on every connection.
func (w *serveWorkload) warmUp() error {
	for c := 0; c < serveConns; c++ {
		for i := 0; i < warmBlocks; i++ {
			b := w.blocks[c]
			w.blocks[c]++
			for _, r := range w.block(c, b) {
				body, _, err := w.body(r, false)
				if err != nil {
					return err
				}
				w.post(c, body)
			}
		}
	}
	return nil
}

// run drives both connections as closed loops, each replaying its
// blocks until the deadline passes at a block boundary.
func (w *serveWorkload) run(start, deadline time.Time, timings bool) ([]op, error) {
	var (
		wg   sync.WaitGroup
		ops  [serveConns][]op
		outs [serveConns][]serveOut
		errs [serveConns]error
	)
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				b := w.blocks[c]
				w.blocks[c]++
				for _, r := range w.block(c, b) {
					body, configs, err := w.body(r, timings)
					if err != nil {
						errs[c] = err
						return
					}
					out := w.post(c, body)
					out.req, out.timings = r, timings
					ops[c] = append(ops[c], op{end: time.Since(start), latency: out.latency, configs: configs, hit: r.hot >= 0})
					outs[c] = append(outs[c], out)
				}
				if !time.Now().Before(deadline) {
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	all := append(ops[0], ops[1]...)
	slices.SortStableFunc(all, func(a, b op) int { return int(a.end - b.end) })
	w.outs = append(w.outs, outs[0]...)
	w.outs = append(w.outs, outs[1]...)
	return all, nil
}

// expected is the locally computed answer for a document.
type expected struct {
	fp  string
	wc  sim.WorstCase
	err error
}

// check verifies every response of the timed phases: a 200 carrying
// the locally computed fingerprint, the designed cached flag, and the
// engine's result for the document, computed here with the engine.
// It runs on GOMAXPROCS goroutines after the timed phases.
func (w *serveWorkload) check(cfg config) (attempted, failed int, notes []string) {
	hot := make([]expected, len(w.hot))
	for i := range w.hot {
		hot[i] = localAnswer(w.hot[i].model)
	}
	bad := make([]string, len(w.outs))
	var wg sync.WaitGroup
	workers := serveConns
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := k; i < len(w.outs); i += workers {
				bad[i] = w.verify(w.outs[i], hot)
			}
		}()
	}
	wg.Wait()
	for _, b := range bad {
		attempted++
		if b != "" {
			failed++
			if len(notes) < 10 {
				notes = append(notes, b)
			}
		}
	}
	return attempted, failed, notes
}

func (w *serveWorkload) verify(o serveOut, hot []expected) string {
	r := o.req
	if o.err != nil {
		return fmt.Sprintf("conn %d block %d: %v", r.conn, r.block, o.err)
	}
	if o.status != http.StatusOK {
		return fmt.Sprintf("conn %d block %d: status %d: %s", r.conn, r.block, o.status, o.resp.Error)
	}
	var want expected
	if r.hot >= 0 {
		want = hot[r.hot]
	} else {
		d, err := w.compileMiss(r)
		if err != nil {
			return fmt.Sprintf("miss %d: %v", r.miss, err)
		}
		want = localAnswer(d.model)
	}
	switch {
	case want.err != nil:
		return fmt.Sprintf("conn %d block %d: local engine: %v", r.conn, r.block, want.err)
	case o.resp.Fingerprint != want.fp:
		return fmt.Sprintf("conn %d block %d: fingerprint %s, want %s", r.conn, r.block, o.resp.Fingerprint, want.fp)
	case o.resp.Cached != (r.hot >= 0):
		return fmt.Sprintf("conn %d block %d: cached=%v, designed %v", r.conn, r.block, o.resp.Cached, r.hot >= 0)
	case o.resp.Result == nil || *o.resp.Result != want.wc:
		return fmt.Sprintf("conn %d block %d: result differs from the engine's", r.conn, r.block)
	}
	return ""
}

// compileMiss parses and compiles a miss's document.
func (w *serveWorkload) compileMiss(r serveReq) (doc, error) {
	data, err := json.Marshal(w.missDoc(r))
	if err != nil {
		return doc{}, err
	}
	return compileDoc(fmt.Sprintf("miss#%d", r.miss), data)
}

// localAnswer fingerprints and searches a model in this process.
func localAnswer(m model.Model) expected {
	var e expected
	if e.fp, e.err = m.Fingerprint(); e.err == nil {
		e.wc, e.err = adversary.SearchModel(m, searchOpts())
	}
	return e
}

// servePhases maps the server's explain-API phases to layer names.
var servePhases = []struct{ phase, layer string }{
	{"auth", "auth.authenticate"},
	{"ratecheck", "admission.ratecheck"},
	{"fingerprint", "serve.fingerprint"},
	{"cache", "resultstore.get"},
	{"queue", "admission.wait"},
	{"engine", "serve.engine"},
	{"store", "resultstore.put"},
}

// replayMisses bounds how many of the traced phase's miss documents
// the engine-layer replay re-runs.
const replayMisses = 200

// layers aggregates the server's phase breakdown over the traced
// requests, and replays the traced phase's miss documents and the hot
// set through the engine's public calls for the engine layers.
func (w *serveWorkload) layers(cfg config, untraced, traced phase) (*layers, attribution, error) {
	l := &layers{}
	a := attribution{self: make(map[string]time.Duration)}
	sums := make(map[string]float64)
	var requests, misses, cached int
	var http float64
	var missReqs []serveReq
	for _, o := range w.outs {
		if !o.timings || o.err != nil || o.status != 200 {
			continue
		}
		requests++
		if o.resp.Cached {
			cached++
		}
		if o.req.hot < 0 {
			misses++
			if len(missReqs) < replayMisses {
				missReqs = append(missReqs, o.req)
			}
		}
		a.total += o.latency
		server := 0.0
		for _, t := range o.resp.Timings {
			sums[t.Phase] += t.DurationMs
			server += t.DurationMs
		}
		http += ms(o.latency) - server
	}
	if requests == 0 || misses == 0 {
		return nil, a, fmt.Errorf("serve: the traced phase completed no hits or no misses")
	}
	for _, p := range servePhases {
		a.add(p.layer, time.Duration(sums[p.phase]*float64(time.Millisecond)))
	}
	perReq := func(phase string) float64 { return 1000 * sums[phase] / float64(requests) }
	perMiss := func(phase string) float64 { return 1000 * sums[phase] / float64(misses) }

	var compile time.Duration
	var traces []searchTrace
	var replays []replay
	var configs []int64
	for _, h := range w.hot {
		r, err := replayDoc(h.model, "", false)
		if err != nil {
			return nil, a, fmt.Errorf("%s: replay: %w", h.name, err)
		}
		compile += h.compile
		replays = append(replays, r)
	}
	for i, req := range missReqs {
		d, err := w.compileMiss(req)
		if err != nil {
			return nil, a, err
		}
		_, tr, err := tracedSearch(d.model, 0)
		if err != nil {
			return nil, a, fmt.Errorf("%s: %w", d.name, err)
		}
		tr.doc = i
		r, err := replayDoc(d.model, tr.tier, true)
		if err != nil {
			return nil, a, fmt.Errorf("%s: replay: %w", d.name, err)
		}
		compile += d.compile
		traces = append(traces, tr)
		replays = append(replays, r)
		configs = append(configs, d.configs)
	}
	if _, err := writeSpans(cfg, traces); err != nil {
		return nil, a, err
	}
	l.set("scenario.compile_us", "us", us(compile)/float64(len(replays)))
	engineLayers(l, traces, func(doc int) int64 { return configs[doc] }, replays)
	l.set("auth.authenticate_us", "us", perReq("auth"))
	l.set("admission.ratecheck_us", "us", perReq("ratecheck"))
	l.set("serve.fingerprint_us", "us", perReq("fingerprint"))
	l.set("resultstore.get_us", "us", perReq("cache"))
	l.set("admission.wait_us", "us", perMiss("queue"))
	l.set("serve.engine_ms", "ms", perMiss("engine")/1000)
	l.set("resultstore.put_us", "us", perMiss("store"))
	l.set("serve.http_us", "us", 1000*http/float64(requests))
	l.set("serve.hit_ratio", "1", float64(cached)/float64(requests))
	return l, a, nil
}

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"rendezvous/internal/scenario"
)

func TestDynamicDocsAreSeeded(t *testing.T) {
	a, err := dynamicDocs(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := dynamicDocs(7)
	if err != nil {
		t.Fatal(err)
	}
	c, err := dynamicDocs(8)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.EqualFunc(a, b, bytes.Equal) {
		t.Error("the same seed generated different documents")
	}
	if slices.EqualFunc(a, c, bytes.Equal) {
		t.Error("different seeds generated identical documents")
	}
}

func TestDynamicDocsCompile(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 99} {
		docs, err := dynamicDocs(seed)
		if err != nil {
			t.Fatal(err)
		}
		if len(docs) != len(dynamicShapes()) {
			t.Fatalf("seed %d: %d documents, want one per stratum (%d)", seed, len(docs), len(dynamicShapes()))
		}
		for i, data := range docs {
			s, err := scenario.ParseSearch(data)
			if err != nil {
				t.Fatalf("seed %d doc %d: ParseSearch: %v", seed, i, err)
			}
			m, err := s.Compile(scenario.Options{})
			if err != nil {
				t.Fatalf("seed %d doc %d: Compile: %v", seed, i, err)
			}
			if m.Name() != "dynamic" {
				t.Fatalf("seed %d doc %d: model %q, want dynamic", seed, i, m.Name())
			}
			if n := len(s.Phases); n < 2 || n > 4 {
				t.Errorf("seed %d doc %d: %d phases, want 2–4", seed, i, n)
			}
			for _, ph := range s.Phases {
				if n := len(ph.Disable); n < 1 || n > 3 {
					t.Errorf("seed %d doc %d: a phase disables %d edges, want 1–3", seed, i, n)
				}
			}
		}
	}
}

// serveFor generates a serve workload's inputs without starting a
// server.
func serveFor(t *testing.T, seed int64) *serveWorkload {
	t.Helper()
	w := newServe()
	w.cfg = config{seed: seed}
	if err := w.generate(seed); err != nil {
		t.Fatal(err)
	}
	return w
}

// missBodies renders the miss documents of the first blocks.
func missBodies(t *testing.T, w *serveWorkload, blocks int) [][]byte {
	t.Helper()
	var out [][]byte
	for b := 0; b < blocks; b++ {
		for c := 0; c < serveConns; c++ {
			for _, r := range w.block(c, b) {
				if r.hot < 0 {
					data, err := json.Marshal(w.missDoc(r))
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, data)
				}
			}
		}
	}
	return out
}

func TestServeInputsAreSeeded(t *testing.T) {
	a, b, c := serveFor(t, 5), serveFor(t, 5), serveFor(t, 6)
	hot := func(w *serveWorkload) [][]byte {
		var out [][]byte
		for _, h := range w.hot {
			out = append(out, h.bodies[0][0], h.bodies[1][0])
		}
		return out
	}
	if !slices.EqualFunc(hot(a), hot(b), bytes.Equal) || !slices.EqualFunc(missBodies(t, a, 20), missBodies(t, b, 20), bytes.Equal) {
		t.Error("the same seed generated different serve documents")
	}
	if slices.EqualFunc(missBodies(t, a, 20), missBodies(t, c, 20), bytes.Equal) {
		t.Error("different seeds generated identical miss documents")
	}
	if !slices.Equal(a.block(1, 3), b.block(1, 3)) || slices.Equal(a.block(1, 3), c.block(1, 3)) {
		t.Error("the request sequence is not a function of the seed")
	}
}

func TestServeDocsCompile(t *testing.T) {
	w := serveFor(t, 1)
	if len(w.hot) != len(hotShapes) {
		t.Fatalf("%d hot documents, want %d", len(w.hot), len(hotShapes))
	}
	fps := make(map[string]string)
	for _, h := range w.hot {
		fp, err := h.model.Fingerprint()
		if err != nil {
			t.Fatalf("%s: %v", h.name, err)
		}
		if prev, dup := fps[fp]; dup {
			t.Fatalf("%s and %s share a fingerprint", prev, h.name)
		}
		fps[fp] = h.name
	}
	for i, data := range missBodies(t, w, 30) {
		d, err := compileDoc("miss", data)
		if err != nil {
			t.Fatalf("miss %d: %v", i, err)
		}
		fp, err := d.model.Fingerprint()
		if err != nil {
			t.Fatalf("miss %d: %v", i, err)
		}
		if prev, dup := fps[fp]; dup {
			t.Fatalf("miss %d shares its fingerprint with %s", i, prev)
		}
		fps[fp] = "miss"
	}
}

func TestServeSequenceHasDesignedCounts(t *testing.T) {
	w := serveFor(t, 3)
	const blocks = 50
	misses := make(map[int]bool)
	for c := 0; c < serveConns; c++ {
		for b := 0; b < blocks; b++ {
			reqs := w.block(c, b)
			var hits, miss, inlineHits, inlineMisses int
			for _, r := range reqs {
				if r.hot >= 0 {
					hits++
					if r.inline {
						inlineHits++
					}
					continue
				}
				miss++
				if r.inline {
					inlineMisses++
				}
				if misses[r.miss] {
					t.Fatalf("miss index %d repeats", r.miss)
				}
				misses[r.miss] = true
			}
			if hits != serveBlock-serveMisses || miss != serveMisses {
				t.Fatalf("conn %d block %d: %d hits and %d misses, want %d and %d", c, b, hits, miss, serveBlock-serveMisses, serveMisses)
			}
			if inlineHits != hits/2 || inlineMisses != miss/2 {
				t.Fatalf("conn %d block %d: %d of %d hits and %d of %d misses inline, want half", c, b, inlineHits, hits, inlineMisses, miss)
			}
		}
	}
	if len(misses) != serveConns*blocks*serveMisses {
		t.Fatalf("%d distinct misses, want %d", len(misses), serveConns*blocks*serveMisses)
	}
}

func TestTailAndMedian(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	v, pct, ok := tail(xs)
	if !ok || v != 90 || pct != 90 {
		t.Errorf("tail = %v, p%v, %v; want 90, p90", v, pct, ok)
	}
	if _, _, ok := tail(xs[:10]); ok {
		t.Error("tail of 10 samples should leave none with 10 beyond")
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestUnion(t *testing.T) {
	ivs := []interval{{0, 10}, {5, 12}, {20, 25}, {21, 22}}
	if got := union(ivs); got != 17 {
		t.Errorf("union = %v, want 17", got)
	}
}

func TestWindows(t *testing.T) {
	var ops []op
	for i := 1; i <= 25; i++ {
		ops = append(ops, op{end: time.Duration(i) * time.Second, latency: time.Duration(i) * time.Millisecond})
	}
	ws := windows(ops, 12, allOps)
	if len(ws.rates) != 2 || ws.rates[0] != 1 || ws.rates[1] != 1 {
		t.Errorf("rates = %v, want two windows of 1 op/s", ws.rates)
	}
	if len(ws.tails) != 2 || ws.tails[0] != 2 || ws.tails[1] != 14 {
		t.Errorf("tails = %v, want [2 14]", ws.tails)
	}
}

// benchmarkLists reads the metric names BENCHMARK.json declares.
func benchmarkLists(t *testing.T) (endToEndNames, perLayerNames []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEndNames = append(endToEndNames, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayerNames = append(perLayerNames, m.Name)
	}
	return endToEndNames, perLayerNames
}

func TestBenchmarkJSONMatches(t *testing.T) {
	e2e, layers := benchmarkLists(t)
	if !slices.Equal(e2e, endToEnd) || !slices.Equal(layers, perLayer) {
		t.Errorf("BENCHMARK.json lists %v and %v; the benchmark prints %v and %v", e2e, layers, endToEnd, perLayer)
	}
}

// reportOnly lists the metrics a traced run of each workload prints in
// its report besides the BENCHMARK.json ones.
var reportOnly = map[string][]string{
	"paper":   {"orbits.reduce_us", "orbits.kept_ratio", "meetoracle.build_us", "meetoracle.table_kb", "meetoracle.precompile_us", "ringsim.ns_per_run", "ringsim.alloc_b_per_run", "meetoracle.batch_ns_per_run", "meetoracle.table_ns_per_run"},
	"dynamic": {"sim.generic_ns_per_run"},
	"serve": {"orbits.reduce_us", "orbits.kept_ratio", "meetoracle.build_us", "meetoracle.table_kb", "meetoracle.precompile_us",
		"auth.authenticate_us", "admission.ratecheck_us", "serve.fingerprint_us", "resultstore.get_us",
		"admission.wait_us", "serve.engine_ms", "resultstore.put_us", "serve.http_us", "serve.hit_ratio"},
}

func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range []string{"paper", "dynamic", "serve"} {
		for _, traced := range []string{"0", "1"} {
			t.Run(name+"/trace"+traced, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run([]string{"-workload", name, "-seed", "4", "-seconds", "1", "-trace", traced, "-root", ".."}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("result %+v", res)
				}
				want := endToEnd
				report := []string{"fail_ratio"}
				if traced == "1" {
					want, report = perLayer, reportOnly[name]
				} else if name == "serve" {
					report = append(report, "req_per_s", "hit_ms_p50", "hit_ms_tail", "miss_ms_p50", "miss_ms_tail")
				}
				var got []string
				for k, m := range res.Metrics {
					got = append(got, k)
					if m.Unit == "" {
						t.Errorf("%s has no unit", k)
					}
				}
				slices.Sort(got)
				if !slices.Equal(got, slices.Sorted(slices.Values(want))) {
					t.Errorf("metrics %v, want %v", got, want)
				}
				for _, k := range append(slices.Clone(want), report...) {
					if !strings.Contains(stdout.String(), "\n"+k+" ") {
						t.Errorf("the report does not print %s", k)
					}
				}
			})
		}
	}
}

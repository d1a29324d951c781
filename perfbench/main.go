// Command perfbench is the repository benchmark. One command runs a
// seeded workload through the engine's and the daemon's public entry
// points, checks every output, and prints the end-to-end metrics by
// name and unit; with -trace 1 a separate traced run prints the
// per-layer metrics, timed around calls into each module's public
// functions. It is a module of its own, so the repository's own tests
// do not build it; run it from the repository root:
//
//	python3 perfbench/run.py --workload paper --seed 1 --seconds 20 --trace 0
//
// or, with the toolchain's default caches,
//
//	go -C perfbench run . -root .. -workload paper -seed 1 -seconds 20 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines above it are the
// human-readable report: the run stanza (Go version, GOMAXPROCS, nproc,
// CPU model, seed, op counts, the tail percentile with its sample count
// and the CPU steal share over the timed phase), every metric by name
// and unit, and in a traced run the per-layer self times with the
// unattributed remainder. A wrong output makes the command exit 1.
//
// # Workloads
//
// paper: every search of the committed examples/scenarios/E*.json
// files (120 searches), compiled during set-up and then run cold, one
// after another, through adversary.SearchModel with GOMAXPROCS workers,
// as rdvbench -scenario runs them; the seed permutes their order. This
// is the reproduction users run. The ring tier takes about 98% of its
// sweep time and the 21 table and batch searches about 2%, so ring-tier
// changes show here and table-tier changes barely do. Known hot spot,
// kept in on purpose: E14's fwr(1) search at L=4096 allocates about
// 3.1 GB per search in ringsim (per-run phase lists, about 1,330 GC
// cycles per pass) and takes about 60% of a pass; dropping it would
// hide the hot spot.
//
// dynamic: seeded model.Dynamic scenario documents over ring, grid and
// torus base graphs with 2–4 periodic phases, each disabling 1–3 edges;
// the cheap, fast and fwr algorithms; L from 4 to 10; basic or spread
// delays. Each goes through scenario.ParseSearch and Compile, then
// adversary.SearchModel. This is the only workload where the generic
// executor does the work; the ROADMAP's "Dynamic within 2× of batch"
// is claimed here, and paper must not move when it is. The strata that
// set a document's cost are fixed; the seed draws the phase schedules
// and the order, so every seed does nearly the same work.
//
// serve: an in-process rdvd (serve.New with rdvd's defaults — tracing
// on, a fresh on-disk store, GOMAXPROCS engine slots and workers — plus
// two bearer-token tenants) served over loopback HTTP. Load is a closed
// loop with one connection per tenant, each replaying a fixed seeded
// request sequence in blocks of 20: 18 hits on a hot set pre-filled
// during set-up (half in the inline form, half in the "scenario" form;
// families, sizes and L vary, so compile and fingerprint cost varies)
// and 2 fresh searches with unique fingerprints at near-constant cost
// (grid, torus and hypercube shapes, so the automatic tier choice picks
// batch and, after orbit reduction, the scalar table). Hits exercise
// only serving layers (auth, rate check, compile and fingerprint, store
// Get, JSON and HTTP); misses add admission, orbits, meetoracle and the
// fsync'd store Put, so a change that speeds up hits by slowing writes
// shows.
//
// Deliberately not loaded: admission queueing and single-flight (two
// closed-loop clients never exceed two engine slots), cluster fan-out,
// and the E6–E9 and E12 pipelines, which make no engine searches. A
// workload is added when one of those layers is optimised.
//
// # Steadiness
//
// Every run executes the same seed-generated op sequence after an
// untimed warm-up and a runtime.GC(). Load comes from this one process,
// with GOMAXPROCS engine workers and at most GOMAXPROCS client
// connections. The timed phase is cut into windows — one pass over the
// documents offline, 1000 consecutive requests on serve — and rates and
// tails are medians over windows. No end-to-end metric is a
// sub-millisecond interval or an alias of another.
//
// # End-to-end metrics (-trace 0)
//
// Every workload prints every metric; an op is a search (paper,
// dynamic) or a request (serve).
//
//	configs_per_s    1/s  higher  declared configurations resolved per wall
//	                              second: the phase's mean configurations per
//	                              op times the median per-window op rate. A
//	                              document's declared configurations are label
//	                              pairs × start pairs × delays of its expanded
//	                              space, before symmetry reduction. On serve it
//	                              is req_per_s times the sequence's mean
//	                              configurations per request.
//	search_ms_p50    ms   lower   median wall time of one op (client-observed
//	                              on serve, hits and misses together).
//	search_ms_tail   ms   lower   per window, the highest percentile with at
//	                              least 10 samples beyond it; the median over
//	                              windows. The percentile and the window's
//	                              sample count are in the run stanza.
//	alloc_kb_per_op  kB   lower   bytes the process allocated over the timed
//	                              phase, per op (on serve, client side too).
//	setup_s          s    lower   one whole set-up interval: input generation
//	                              and the parse and compile of every document,
//	                              plus server start and hot-set pre-fill on
//	                              serve. Set-up runs several times; the median
//	                              interval is reported.
//
// The report also prints fail_ratio (ops that errored, were refused or
// returned a wrong output, over ops attempted — the JSON's failed over
// attempted), and on serve req_per_s and the client-observed
// hit_ms_p50, hit_ms_tail, miss_ms_p50 and miss_ms_tail. They are not in
// BENCHMARK.json's list because every workload must print every listed
// metric: the offline workloads have no hits or misses, fail_ratio is 0
// by design, and req_per_s moves by the same ratio as configs_per_s.
//
// # Per-layer metrics (-trace 1) and the end-to-end metric each should move
//
// The traced invocation measures half its time untraced and half
// traced, and reports the difference as bench.trace_overhead. Offline,
// each traced search runs as adversary.NewModelPlan(m, GOMAXPROCS),
// Plan.RunShard on GOMAXPROCS goroutines and adversary.MergeShards,
// with a span around each call; the plan's sub-steps are then replayed
// serially through the public calls below, outside those spans. On
// serve every request sets "timings": true and the server's own phase
// breakdown is aggregated; the engine layers are the benchmark's replay
// of the traced phase's miss documents. Spans are kept in memory and
// written to .bench_build/spans/ at the end. Each layer's self time and
// the unattributed remainder of the end-to-end time are printed; a layer
// sum above the end-to-end time is flagged as double counting.
//
//	scenario.compile_us         ParseSearch or ParseFile, plus Compile,
//	                            per document            setup_s; hit_ms_p50 (serve, scenario form)
//	core.schedule_us            ScheduleFor(label), per label   configs_per_s (paper)
//	sim.expand_us               SearchSpace.Expand, per search  search_ms_p50
//	adversary.plan_us           NewModelPlan, per search        search_ms_p50; miss_ms_p50 (serve)
//	orbits.reduce_us            graph.Automorphisms + orbits.Compute   miss_ms_p50 (serve)
//	orbits.kept_ratio           representatives / start pairs   miss_ms_p50 (serve)
//	meetoracle.build_us         meetoracle.New + Prepare/PrepareBatch  miss_ms_p50, alloc_kb_per_op (serve)
//	meetoracle.table_kb         EstimateBytes/EstimateBatchBytes       alloc_kb_per_op (serve)
//	meetoracle.precompile_us    Oracle.Compile over every (label, start) pair   miss_ms_p50 (serve)
//	ringsim.ns_per_run          Plan.RunShard on ring plans, per run   configs_per_s (paper)
//	ringsim.alloc_b_per_run     bytes allocated per ring run           configs_per_s, alloc_kb_per_op (paper)
//	meetoracle.batch_ns_per_run Plan.RunShard on batch plans, per run  miss_ms_p50 (serve); paper by ~2% at most
//	meetoracle.table_ns_per_run Plan.RunShard on table plans, per run  miss_ms_p50 (serve); paper by ~2% at most
//	sim.generic_ns_per_run      Plan.RunShard on generic plans         configs_per_s (dynamic)
//	adversary.sweep_ns_per_run  Plan.RunShard on every tier, per run   configs_per_s
//	adversary.runs_ratio        Σ WorstCase.Runs / declared configs    configs_per_s (paper, dynamic)
//	adversary.shard_imbalance   slowest / mean RunShard time           search_ms_tail, configs_per_s (paper)
//	adversary.merge_us          MergeShards, per search                search_ms_p50 (expected negligible)
//	runtime.gc_cpu_share        runtime/metrics GC CPU / total CPU     configs_per_s (paper)
//	runtime.gc_cycles_per_op    GC cycles per op                       configs_per_s (paper)
//	auth.authenticate_us        the server's auth phase                hit_ms_p50, req_per_s (serve)
//	admission.ratecheck_us      the server's ratecheck phase           hit_ms_p50, req_per_s (serve)
//	serve.fingerprint_us        the server's compile + fingerprint phase   hit_ms_p50, req_per_s (serve)
//	resultstore.get_us          the server's cache phase               hit_ms_p50, req_per_s (serve)
//	resultstore.fingerprint_us  Model.Fingerprint() alone, per document    hit_ms_p50 (serve)
//	admission.wait_us           the server's queue phase               miss_ms_p50, miss_ms_tail (serve)
//	serve.engine_ms             the server's engine phase              miss_ms_p50, miss_ms_tail (serve)
//	resultstore.put_us          the server's store phase               miss_ms_p50, miss_ms_tail (serve)
//	serve.http_us               client latency − Σ server phases       hit_ms_p50, req_per_s (serve)
//	serve.hit_ratio             cached / all responses (must equal the designed 0.9)   req_per_s (serve)
//	bench.unattributed_share    end-to-end time no layer span covers
//	bench.trace_overhead        traced / untraced mean op time − 1
//
// A layer a workload does not exercise is not printed for it (ringsim
// is exercised only by paper, the generic executor only by dynamic, the
// serving layers only by serve). BENCHMARK.json lists the layer metrics
// every workload prints.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// buildDir is where the benchmark keeps what it writes, under the
// repository root.
const buildDir = ".bench_build"

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd and perLayer are the metric lists of BENCHMARK.json, in the
// order the report prints them.
var (
	endToEnd = []string{"configs_per_s", "search_ms_p50", "search_ms_tail", "alloc_kb_per_op", "setup_s"}
	perLayer = []string{
		"scenario.compile_us", "core.schedule_us", "sim.expand_us", "adversary.plan_us",
		"adversary.sweep_ns_per_run", "adversary.runs_ratio", "adversary.shard_imbalance",
		"adversary.merge_us", "resultstore.fingerprint_us", "runtime.gc_cpu_share",
		"runtime.gc_cycles_per_op", "bench.unattributed_share", "bench.trace_overhead",
	}
)

// workload is one benchmark workload.
type workload interface {
	// setUpRuns is how many times set-up runs; setup_s is the median.
	setUpRuns() int
	// setUp builds everything the ops need from the seed.
	setUp(cfg config) error
	// tearDown releases what setUp built.
	tearDown()
	// warmUp runs the op sequence once, untimed.
	warmUp() error
	// windowSize is the op count of one measurement window.
	windowSize() int
	// run executes whole rounds of the op sequence until the deadline;
	// traced selects the traced execution.
	run(start, deadline time.Time, traced bool) ([]op, error)
	// check verifies every output of the timed phases.
	check(cfg config) (attempted, failed int, notes []string)
	// layers computes the per-layer metrics of the traced phase.
	layers(cfg config, untraced, traced phase) (*layers, attribution, error)
}

func newWorkload(name string) (workload, bool) {
	switch name {
	case "paper":
		return newPaper(), true
	case "dynamic":
		return newDynamic(), true
	case "serve":
		return newServe(), true
	}
	return nil, false
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: paper, dynamic or serve")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 20, "length of the timed phase in seconds")
	traceFlag := fs.Int("trace", 0, "0 prints the end-to-end metrics; 1 runs traced and prints the per-layer metrics")
	root := fs.String("root", ".", "repository root")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := newWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want paper, dynamic or serve)\n", *name)
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: want -seconds >= 1 and -trace 0 or 1")
		return 2
	}
	cfg := config{workload: *name, seed: *seed, seconds: *seconds, trace: *traceFlag == 1, root: *root}
	res, lines, err := runWorkload(w, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for _, line := range lines {
		fmt.Fprintln(stdout, line)
	}
	data, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(data))
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload sets the workload up several times, warms it up, runs
// the timed phase (or the untraced and traced halves), checks every
// output and assembles the report.
func runWorkload(w workload, cfg config) (result, []string, error) {
	var setups []float64
	for i := 0; i < w.setUpRuns(); i++ {
		if i > 0 {
			w.tearDown()
		}
		runtime.GC()
		start := time.Now()
		err := w.setUp(cfg)
		setups = append(setups, time.Since(start).Seconds())
		if err != nil {
			w.tearDown()
			return result{}, nil, fmt.Errorf("set-up: %w", err)
		}
	}
	defer w.tearDown()
	if err := w.warmUp(); err != nil {
		return result{}, nil, fmt.Errorf("warm-up: %w", err)
	}
	timed := func(d time.Duration, traced bool) (phase, error) {
		p, err := measure(func(start time.Time) ([]op, error) {
			return w.run(start, start.Add(d), traced)
		})
		p.window = w.windowSize()
		return p, err
	}
	full := time.Duration(cfg.seconds) * time.Second
	lines := []string{fmt.Sprintf("perfbench workload=%s seed=%d seconds=%d trace=%v", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)}
	res := result{Metrics: make(map[string]metric)}
	if !cfg.trace {
		p, err := timed(full, false)
		if err != nil {
			return result{}, nil, err
		}
		att, failed, notes := w.check(cfg)
		e2e, extra, pct := endToEndMetrics(p, median(setups))
		lines = append(lines, stanza(cfg, p, pct))
		lines = append(lines, metricLines(e2e, endToEnd)...)
		extra.set("fail_ratio", "1", float64(failed)/float64(max(att, 1)))
		lines = append(lines, metricLines(extra.vals, extra.names)...)
		lines = append(lines, noteLines(notes)...)
		res.Metrics = e2e
		res.Correct, res.Attempted, res.Failed = failed == 0 && att > 0, att, failed
		return res, lines, nil
	}
	untraced, err := timed(full/2, false)
	if err != nil {
		return result{}, nil, err
	}
	traced, err := timed(full-full/2, true)
	if err != nil {
		return result{}, nil, err
	}
	att, failed, notes := w.check(cfg)
	l, attr, err := w.layers(cfg, untraced, traced)
	if err != nil {
		return result{}, nil, err
	}
	l.set("runtime.gc_cpu_share", "1", untraced.rt.gcCPU/max(untraced.rt.totalCPU, 1e-9))
	l.set("runtime.gc_cycles_per_op", "count", untraced.rt.gcCycles/float64(max(len(untraced.ops), 1)))
	l.set("bench.unattributed_share", "1", attr.share(attr.total-attr.covered()))
	l.set("bench.trace_overhead", "1", meanLatency(traced.ops)/meanLatency(untraced.ops)-1)
	_, _, pct := endToEndMetrics(traced, 0)
	lines = append(lines, stanza(cfg, traced, pct))
	lines = append(lines, metricLines(l.vals, l.names)...)
	lines = append(lines, attr.lines()...)
	lines = append(lines, noteLines(notes)...)
	for _, name := range perLayer {
		m, ok := l.vals[name]
		if !ok {
			return result{}, nil, fmt.Errorf("traced run did not measure %s", name)
		}
		res.Metrics[name] = m
	}
	res.Correct, res.Attempted, res.Failed = failed == 0 && att > 0, att, failed
	return res, lines, nil
}

// endToEndMetrics computes the end-to-end metrics of a timed phase,
// the report-only extras, and the tail percentile.
func endToEndMetrics(p phase, setup float64) (map[string]metric, layers, float64) {
	ws := windows(p.ops, p.window, allOps)
	var configs int64
	for _, o := range p.ops {
		configs += o.configs
	}
	n := float64(max(len(p.ops), 1))
	m := map[string]metric{
		"configs_per_s":   {Value: float64(configs) / n * median(ws.rates), Unit: "1/s"},
		"search_ms_p50":   {Value: median(latencies(p.ops, allOps)), Unit: "ms"},
		"search_ms_tail":  {Value: median(ws.tails), Unit: "ms"},
		"alloc_kb_per_op": {Value: p.rt.allocBytes / n / 1000, Unit: "kB"},
		"setup_s":         {Value: setup, Unit: "s"},
	}
	var extra layers
	hits := 0
	for _, o := range p.ops {
		if o.hit {
			hits++
		}
	}
	if hits > 0 {
		hit := func(o op) bool { return o.hit }
		miss := func(o op) bool { return !o.hit }
		extra.set("req_per_s", "1/s", median(ws.rates))
		extra.set("hit_ms_p50", "ms", median(latencies(p.ops, hit)))
		extra.set("hit_ms_tail", "ms", median(windows(p.ops, p.window, hit).tails))
		extra.set("miss_ms_p50", "ms", median(latencies(p.ops, miss)))
		extra.set("miss_ms_tail", "ms", median(windows(p.ops, p.window, miss).tails))
	}
	return m, extra, ws.pct
}

func meanLatency(ops []op) float64 {
	var sum time.Duration
	for _, o := range ops {
		sum += o.latency
	}
	return float64(sum) / float64(max(len(ops), 1))
}

func metricLines(vals map[string]metric, names []string) []string {
	var out []string
	for _, name := range names {
		m := vals[name]
		out = append(out, fmt.Sprintf("%-28s %14.6g %s", name, m.Value, m.Unit))
	}
	return out
}

func noteLines(notes []string) []string {
	var out []string
	for _, n := range notes {
		out = append(out, "wrong output: "+n)
	}
	return out
}

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"rendezvous/internal/adversary"
	"rendezvous/internal/graph"
	"rendezvous/internal/meetoracle"
	"rendezvous/internal/model"
	"rendezvous/internal/orbits"
	"rendezvous/internal/sim"
)

// span is one recorded interval of the traced run: a layer call made
// by the benchmark, with the span that caused it. Spans of one op share
// its index as their trace identifier. Times are nanoseconds from the
// start of the traced phase.
type span struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	Dur    int64  `json:"durNs"`
	Tier   string `json:"tier,omitempty"`
	Runs   int64  `json:"runs,omitempty"`
}

// interval is a [start, end) pair of offsets.
type interval struct{ start, end time.Duration }

// searchTrace is one traced search: the search as a whole, its
// adversary.NewModelPlan call, one Plan.RunShard call per shard (run
// concurrently) and its adversary.MergeShards call.
type searchTrace struct {
	doc, op int
	tier    string
	search  interval
	plan    interval
	shards  []interval
	merge   interval
	runs    int64
	// alloc is the bytes the process allocated during the shard calls.
	alloc float64
}

// sweep is the wall time the shard calls cover.
func (t searchTrace) sweep() time.Duration { return union(t.shards) }

// union is the total length the intervals cover.
func union(ivs []interval) time.Duration {
	s := slices.Clone(ivs)
	slices.SortFunc(s, func(a, b interval) int { return int(a.start - b.start) })
	var total, end time.Duration
	for i, iv := range s {
		if i == 0 || iv.start > end {
			total += iv.end - iv.start
			end = iv.end
		} else if iv.end > end {
			total += iv.end - end
			end = iv.end
		}
	}
	return total
}

// tracedSearch runs one search as the engine's SearchModel does —
// plan, GOMAXPROCS shards on as many goroutines, merge in shard order —
// calling each step itself so it can time it. base is the search's
// start offset in the traced phase.
func tracedSearch(m model.Model, base time.Duration) (sim.WorstCase, searchTrace, error) {
	var tr searchTrace
	origin := time.Now()
	at := func() time.Duration { return base + time.Since(origin) }
	tr.search.start = base
	tr.plan.start = at()
	plan, err := adversary.NewModelPlan(m, runtime.GOMAXPROCS(0))
	tr.plan.end = at()
	if err != nil {
		return sim.WorstCase{}, tr, err
	}
	tr.tier = plan.Info().Tier.String()
	n := plan.Shards()
	results := make([]sim.WorstCase, n)
	errs := make([]error, n)
	tr.shards = make([]interval, n)
	alloc0 := readRuntime()[0]
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr.shards[i].start = at()
			results[i], errs[i] = plan.RunShard(context.Background(), i)
			tr.shards[i].end = at()
		}()
	}
	wg.Wait()
	tr.alloc = readRuntime()[0] - alloc0
	for _, err := range errs {
		if err != nil {
			return sim.WorstCase{}, tr, err
		}
	}
	tr.merge.start = at()
	merged := adversary.MergeShards(results)
	tr.merge.end = at()
	tr.search.end = at()
	tr.runs = int64(merged.Runs)
	return merged, tr, nil
}

// spans flattens the trace into span records.
func (t searchTrace) spans(next *int) []span {
	id := func() int { *next++; return *next }
	root := id()
	out := []span{{Trace: t.op, ID: root, Name: "search", Start: int64(t.search.start), Dur: int64(t.search.end - t.search.start), Tier: t.tier, Runs: t.runs}}
	out = append(out, span{Trace: t.op, ID: id(), Parent: root, Name: "adversary.plan", Start: int64(t.plan.start), Dur: int64(t.plan.end - t.plan.start)})
	for _, s := range t.shards {
		out = append(out, span{Trace: t.op, ID: id(), Parent: root, Name: tierLayer(t.tier) + ".run_shard", Start: int64(s.start), Dur: int64(s.end - s.start), Tier: t.tier})
	}
	if t.merge.end > 0 {
		out = append(out, span{Trace: t.op, ID: id(), Parent: root, Name: "adversary.merge", Start: int64(t.merge.start), Dur: int64(t.merge.end - t.merge.start)})
	}
	return out
}

// tierLayer names the module that executes a tier's runs.
func tierLayer(tier string) string {
	switch tier {
	case "ring":
		return "ringsim"
	case "table", "batch":
		return "meetoracle"
	default:
		return "sim"
	}
}

// writeSpans writes the kept spans as JSON lines under the build
// directory, once the traced run is over.
func writeSpans(cfg config, traces []searchTrace) (string, error) {
	dir := filepath.Join(cfg.root, buildDir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	next := 0
	for _, t := range traces {
		for _, s := range t.spans(&next) {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return "", err
			}
		}
	}
	return path, f.Close()
}

// replay is one document's plan sub-steps, replayed serially through
// the modules' public calls, outside the traced spans.
type replay struct {
	expand      time.Duration
	schedules   time.Duration
	labels      int
	orbits      time.Duration
	hasOrbits   bool
	startPairs  int
	kept        int
	build       time.Duration
	precompile  time.Duration
	hasTables   bool
	tableBytes  int64
	fingerprint time.Duration
}

// replayDoc replays the sub-steps NewModelPlan runs for a document
// compiled to the given tier: SearchSpace.Expand, ScheduleFor per
// label, the symmetry reduction (graph.Automorphisms + orbits.Compute),
// the meeting-table build (meetoracle.New + Prepare or PrepareBatch)
// and the schedule precompile (Oracle.Compile over every (label,
// start) pair the sweep touches), then Model.Fingerprint. With engine
// false it replays only what a cache hit runs: Expand, the schedules
// and the fingerprint.
func replayDoc(m model.Model, tier string, engine bool) (replay, error) {
	var r replay
	space, n, err := spaceOf(m)
	if err != nil {
		return r, err
	}
	t := time.Now()
	lp, sp, delays, err := space.Expand(n)
	r.expand = time.Since(t)
	if err != nil {
		return r, err
	}
	scheduleFor := func(int) sim.Schedule { return nil }
	switch m := m.(type) {
	case adversary.PaperModel:
		scheduleFor = m.Spec.ScheduleFor
	case model.Dynamic:
		scheduleFor = m.ScheduleFor
	}
	seen := make(map[int]bool)
	t = time.Now()
	for _, p := range lp {
		for _, l := range p {
			if !seen[l] {
				seen[l] = true
				scheduleFor(l)
			}
		}
	}
	r.schedules, r.labels = time.Since(t), len(seen)
	r.startPairs, r.kept = len(sp), len(sp)

	if pm, ok := m.(adversary.PaperModel); ok && engine {
		reps := sp
		if pm.Symmetry != adversary.SymmetryOff {
			t = time.Now()
			auts := graph.Automorphisms(pm.Spec.Graph)
			if len(auts) > 1 || pm.Symmetry == adversary.SymmetryForced {
				orbs, err := orbits.Compute(auts, sp)
				if err != nil {
					return r, err
				}
				reps = orbs.Representatives()
			}
			r.orbits, r.hasOrbits, r.kept = time.Since(t), true, len(reps)
		}
		if tier == "table" || tier == "batch" {
			r.hasTables = true
			t = time.Now()
			oracle, err := meetoracle.New(pm.Spec.Graph, pm.Spec.Explorer)
			if err != nil {
				return r, err
			}
			if tier == "batch" {
				oracle.PrepareBatch(delays)
			} else {
				oracle.Prepare(delays)
			}
			r.build = time.Since(t)
			phases := len(oracle.Phases(delays))
			if tier == "batch" {
				r.tableBytes = meetoracle.EstimateBatchBytes(n, oracle.E(), phases, len(delays))
			} else {
				r.tableBytes = meetoracle.EstimateBytes(n, oracle.E(), phases)
			}
			done := make(map[[2]int]bool)
			t = time.Now()
			for side := 0; side < 2; side++ {
				for _, p := range lp {
					for _, s := range reps {
						k := [2]int{p[side], s[side]}
						if done[k] {
							continue
						}
						done[k] = true
						if _, err := oracle.Compile(s[side], pm.Spec.ScheduleFor(p[side])); err != nil {
							return r, err
						}
					}
				}
			}
			r.precompile = time.Since(t)
		}
	}
	t = time.Now()
	_, err = m.Fingerprint()
	r.fingerprint = time.Since(t)
	return r, err
}

// layers accumulates per-layer metrics by name, in insertion order.
type layers struct {
	names []string
	vals  map[string]metric
}

func (l *layers) set(name, unit string, v float64) {
	if l.vals == nil {
		l.vals = make(map[string]metric)
	}
	if _, ok := l.vals[name]; !ok {
		l.names = append(l.names, name)
	}
	l.vals[name] = metric{Value: v, Unit: unit}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// engineLayers adds the per-layer metrics of a set of traced searches
// and the replays of their documents: plan, shard and merge timings
// per tier, runs against declared configurations, and the plan's
// replayed sub-steps.
func engineLayers(l *layers, traces []searchTrace, configs func(doc int) int64, replays []replay) {
	var plan, merge, shardSum time.Duration
	var runs, declared int64
	var imbalanceMax, imbalanceMean float64
	type tierAgg struct {
		dur   time.Duration
		runs  int64
		alloc float64
	}
	tiers := make(map[string]*tierAgg)
	for _, t := range traces {
		plan += t.plan.end - t.plan.start
		merge += t.merge.end - t.merge.start
		runs += t.runs
		declared += configs(t.doc)
		var sum, slowest time.Duration
		for _, s := range t.shards {
			d := s.end - s.start
			sum += d
			slowest = max(slowest, d)
		}
		shardSum += sum
		if len(t.shards) > 0 {
			imbalanceMax += float64(slowest)
			imbalanceMean += float64(sum) / float64(len(t.shards))
		}
		a := tiers[t.tier]
		if a == nil {
			a = &tierAgg{}
			tiers[t.tier] = a
		}
		a.dur += sum
		a.runs += t.runs
		a.alloc += t.alloc
	}
	n := float64(max(len(traces), 1))
	var rp replay
	var orbitDocs, tableDocs int
	for _, r := range replays {
		rp.expand += r.expand
		rp.schedules += r.schedules
		rp.labels += r.labels
		rp.fingerprint += r.fingerprint
		if r.hasOrbits {
			orbitDocs++
			rp.orbits += r.orbits
			rp.startPairs += r.startPairs
			rp.kept += r.kept
		}
		if r.hasTables {
			tableDocs++
			rp.build += r.build
			rp.precompile += r.precompile
			rp.tableBytes += r.tableBytes
		}
	}
	docs := float64(max(len(replays), 1))
	l.set("core.schedule_us", "us", us(rp.schedules)/float64(max(rp.labels, 1)))
	l.set("sim.expand_us", "us", us(rp.expand)/docs)
	l.set("adversary.plan_us", "us", us(plan)/n)
	if orbitDocs > 0 {
		l.set("orbits.reduce_us", "us", us(rp.orbits)/float64(orbitDocs))
		l.set("orbits.kept_ratio", "1", float64(rp.kept)/float64(max(rp.startPairs, 1)))
	}
	if tableDocs > 0 {
		l.set("meetoracle.build_us", "us", us(rp.build)/float64(tableDocs))
		l.set("meetoracle.table_kb", "kB", float64(rp.tableBytes)/1000/float64(tableDocs))
		l.set("meetoracle.precompile_us", "us", us(rp.precompile)/float64(tableDocs))
	}
	perRun := func(name, tier string) {
		if a := tiers[tier]; a != nil && a.runs > 0 {
			l.set(name, "ns", float64(a.dur)/float64(a.runs))
		}
	}
	perRun("ringsim.ns_per_run", "ring")
	if a := tiers["ring"]; a != nil && a.runs > 0 {
		l.set("ringsim.alloc_b_per_run", "B", a.alloc/float64(a.runs))
	}
	perRun("meetoracle.batch_ns_per_run", "batch")
	perRun("meetoracle.table_ns_per_run", "table")
	perRun("sim.generic_ns_per_run", "generic")
	l.set("adversary.sweep_ns_per_run", "ns", float64(shardSum)/float64(max(runs, 1)))
	l.set("adversary.runs_ratio", "1", float64(runs)/float64(max(declared, 1)))
	l.set("adversary.shard_imbalance", "1", imbalanceMax/max(imbalanceMean, 1))
	l.set("adversary.merge_us", "us", us(merge)/n)
	l.set("resultstore.fingerprint_us", "us", us(rp.fingerprint)/docs)
}

// attribution splits the traced searches' end-to-end time into the
// wall time each layer's spans cover — plan, the shard calls per tier
// module, merge — and the remainder no span covers. A layer sum above
// the end-to-end time would mean spans were double counted.
func searchAttribution(traces []searchTrace) attribution {
	a := attribution{self: make(map[string]time.Duration)}
	for _, t := range traces {
		a.total += t.search.end - t.search.start
		a.add("adversary.plan", t.plan.end-t.plan.start)
		a.add(tierLayer(t.tier)+".run_shard", t.sweep())
		a.add("adversary.merge", t.merge.end-t.merge.start)
	}
	return a
}

// attribution is the per-layer self time of a traced phase against its
// end-to-end time.
type attribution struct {
	total time.Duration
	order []string
	self  map[string]time.Duration
}

func (a *attribution) add(layer string, d time.Duration) {
	if _, ok := a.self[layer]; !ok {
		a.order = append(a.order, layer)
	}
	a.self[layer] += d
}

// covered is the summed self time of every layer.
func (a attribution) covered() time.Duration {
	var c time.Duration
	for _, d := range a.self {
		c += d
	}
	return c
}

// lines renders the attribution table.
func (a attribution) lines() []string {
	out := []string{fmt.Sprintf("attribution: end-to-end %.3f s over the traced ops", a.total.Seconds())}
	for _, name := range a.order {
		out = append(out, fmt.Sprintf("  %-28s self %10.3f ms  share %6.2f%%", name, ms(a.self[name]), 100*a.share(a.self[name])))
	}
	rem := a.total - a.covered()
	out = append(out, fmt.Sprintf("  %-28s      %10.3f ms  share %6.2f%%", "unattributed", ms(rem), 100*a.share(rem)))
	if a.covered() > a.total {
		out = append(out, "  DOUBLE COUNTING: the layer sum exceeds the end-to-end time")
	}
	return out
}

func (a attribution) share(d time.Duration) float64 {
	if a.total <= 0 {
		return 0
	}
	return float64(d) / float64(a.total)
}

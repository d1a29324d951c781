package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"time"
)

// op is one completed operation of a timed phase: a search (paper,
// dynamic) or a request (serve).
type op struct {
	// end is the completion time, measured from the start of the phase.
	end time.Duration
	// latency is the op's own wall time (client-observed for serve).
	latency time.Duration
	// configs is the declared configuration count of the op's document.
	configs int64
	// hit marks a serve request answered from the cache.
	hit bool
}

// phase is what one timed phase measured: its ops in completion order
// and the process-wide deltas taken around it.
type phase struct {
	ops []op
	// window is the op count of one window; windows are consecutive
	// runs of ops in completion order (one pass of an offline workload).
	window int
	rt     runtimeDelta
	steal  float64
}

// runtimeDelta is the change of the runtime counters the benchmark
// reads, over one timed phase.
type runtimeDelta struct {
	allocBytes float64
	gcCycles   float64
	gcCPU      float64
	totalCPU   float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() [4]float64 {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	var out [4]float64
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// measure runs body as one timed phase, after a forced collection so
// every phase starts from the same heap, and records the runtime and
// CPU-steal deltas around it. body returns the completed ops.
func measure(body func(start time.Time) ([]op, error)) (phase, error) {
	runtime.GC()
	stat0 := readCPUStat()
	rt0 := readRuntime()
	start := time.Now()
	ops, err := body(start)
	rt1 := readRuntime()
	stat1 := readCPUStat()
	if err != nil {
		return phase{}, err
	}
	return phase{
		ops: ops,
		rt: runtimeDelta{
			allocBytes: rt1[0] - rt0[0],
			gcCycles:   rt1[1] - rt0[1],
			gcCPU:      rt1[2] - rt0[2],
			totalCPU:   rt1[3] - rt0[3],
		},
		steal: stat1.stealShare(stat0),
	}, nil
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tailBeyond is how many samples the tail percentile must leave above
// it: the reported tail is the highest percentile with at least this
// many samples beyond it.
const tailBeyond = 10

// tail returns the highest percentile of xs with tailBeyond samples
// beyond it — the (n-tailBeyond)-th smallest value — and that
// percentile. ok is false when xs has too few samples.
func tail(xs []float64) (value, pct float64, ok bool) {
	n := len(xs)
	if n <= tailBeyond {
		return 0, 0, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[n-tailBeyond-1], 100 * float64(n-tailBeyond) / float64(n), true
}

// windowStats holds the per-window figures of a phase's ops: the op
// rate and the latency tail of each window of w consecutive ops. A
// trailing partial window is dropped.
type windowStats struct {
	rates []float64
	tails []float64
	pct   float64 // the tail percentile inside one window
}

func windows(ops []op, w int, keep func(op) bool) windowStats {
	var st windowStats
	var prevEnd time.Duration
	for lo := 0; lo+w <= len(ops); lo += w {
		win := ops[lo : lo+w]
		var lat []float64
		for _, o := range win {
			if keep(o) {
				lat = append(lat, ms(o.latency))
			}
		}
		end := win[len(win)-1].end
		if end > prevEnd {
			st.rates = append(st.rates, float64(w)/(end-prevEnd).Seconds())
		}
		prevEnd = end
		if v, p, ok := tail(lat); ok {
			st.tails = append(st.tails, v)
			st.pct = p
		}
	}
	return st
}

// latencies returns the latencies (ms) of the ops keep selects.
func latencies(ops []op, keep func(op) bool) []float64 {
	var out []float64
	for _, o := range ops {
		if keep(o) {
			out = append(out, ms(o.latency))
		}
	}
	return out
}

func allOps(op) bool { return true }

// cpuStat is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuStat struct {
	total, steal uint64
	ok           bool
}

// readCPUStat reads the aggregate CPU counters. On systems without
// /proc/stat it returns a zero value and the steal share reads 0.
func readCPUStat() cpuStat {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || fields[0] != "cpu" {
			continue
		}
		var st cpuStat
		for i, fv := range fields[1:] {
			v, err := strconv.ParseUint(fv, 10, 64)
			if err != nil {
				return cpuStat{}
			}
			// guest and guest_nice (fields 9 and 10) are already
			// counted in user and nice.
			if i < 8 {
				st.total += v
			}
			if i == 7 {
				st.steal = v
			}
		}
		st.ok = true
		return st
	}
	return cpuStat{}
}

// stealShare is the share of CPU time the hypervisor stole between two
// readings.
func (s cpuStat) stealShare(before cpuStat) float64 {
	if !s.ok || !before.ok || s.total <= before.total {
		return 0
	}
	return float64(s.steal-before.steal) / float64(s.total-before.total)
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// stanza describes the run next to its numbers, so a disturbed run is
// visible: toolchain, parallelism, hardware, seed, op counts, the tail
// percentile with its sample count, and the CPU steal share.
func stanza(cfg config, p phase, tailPct float64) string {
	return fmt.Sprintf("run: go=%s gomaxprocs=%d nproc=%d cpu=%q seed=%d ops=%d windows=%d tail=p%.2f (n=%d per window) steal=%.4f",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), cfg.seed,
		len(p.ops), len(p.ops)/max(p.window, 1), tailPct, p.window, p.steal)
}

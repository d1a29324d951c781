package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rendezvous/internal/adversary"
	"rendezvous/internal/resultstore"
	"rendezvous/internal/scenario"
)

// TestList: -list prints every experiment ID, one per line, and exits 0.
func TestList(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, id := range []string{"E1", "E8", "E15"} {
		if !strings.Contains(out, id+"\n") {
			t.Errorf("missing %s in listing:\n%s", id, out)
		}
	}
}

// TestRunSingleExperiment runs E8 (explorer-contract verification, the
// cheapest experiment) end to end in both output formats.
func TestRunSingleExperiment(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-run", "E8", "-workers", "2"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "== E8") || !strings.Contains(stdout.String(), "[PASS]") {
		t.Errorf("unexpected plain output:\n%s", stdout.String())
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-run", "E8", "-markdown", "-tablemem", "16"}, &stdout, &stderr); code != 0 {
		t.Fatalf("markdown exit = %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "### E8") {
		t.Errorf("unexpected markdown output:\n%s", stdout.String())
	}
}

// TestBadFlags covers the error exits, including the value validation
// run() performs after parsing: worker counts below the GOMAXPROCS
// sentinel, table budgets below the disable sentinel, unknown symmetry
// modes and contradictory output formats are usage errors (exit 2)
// with an explanation on stderr, instead of being silently accepted.
func TestBadFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring expected on stderr
	}{
		{"unknown experiment", []string{"-run", "E99"}, "unknown experiment"},
		{"unknown flag", []string{"-no-such-flag"}, "flag provided but not defined"},
		{"workers below -1", []string{"-workers", "-2"}, "-workers -2"},
		{"tablemem below -1", []string{"-tablemem", "-5"}, "-tablemem -5"},
		{"symmetry junk", []string{"-symmetry", "junk"}, "-symmetry \"junk\""},
		{"symmetry empty", []string{"-symmetry", ""}, "-symmetry"},
		{"markdown+json conflict", []string{"-markdown", "-json"}, "mutually exclusive"},
		{"tier junk", []string{"-run", "E8", "-tier", "turbo"}, "-tier \"turbo\""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Fatalf("exit = %d, want 2 (stderr: %s)", code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("stderr missing %q:\n%s", tc.want, stderr.String())
			}
		})
	}
}

// TestSentinelFlagValuesStillWork: -workers -1 (GOMAXPROCS) and
// -tablemem -1 (disable the meeting-table tier) are documented
// sentinels, not junk; validation must keep accepting them, as well as
// every -symmetry mode.
func TestSentinelFlagValuesStillWork(t *testing.T) {
	for _, args := range [][]string{
		{"-run", "E8", "-workers", "-1", "-tablemem", "-1"},
		{"-run", "E8", "-symmetry", "off"},
		{"-run", "E8", "-symmetry", "forced"},
		{"-run", "E8", "-symmetry", "auto"},
		{"-run", "E8", "-tier", "batch"},
		{"-run", "E8", "-tier", "table"},
		{"-run", "E8", "-tier", "generic"},
	} {
		var stdout, stderr strings.Builder
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Errorf("%v: exit = %d, stderr: %s", args, code, stderr.String())
		}
	}
}

// TestJSONReport: -json emits a parseable report carrying the options,
// every table and the failure count.
func TestJSONReport(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-run", "E8", "-json", "-symmetry", "auto", "-tier", "batch"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr.String())
	}
	var report struct {
		Options struct {
			Workers  int    `json:"workers"`
			Symmetry string `json:"symmetry"`
			Tier     string `json:"tier"`
		} `json:"options"`
		Experiments []struct {
			ID     string `json:"ID"`
			Checks []struct {
				Name string `json:"Name"`
				Pass bool   `json:"Pass"`
			} `json:"Checks"`
		} `json:"experiments"`
		Failures int `json:"failures"`
	}
	if err := json.Unmarshal([]byte(stdout.String()), &report); err != nil {
		t.Fatalf("unparseable -json output: %v\n%s", err, stdout.String())
	}
	if report.Options.Symmetry != "auto" || report.Options.Tier != "batch" || report.Failures != 0 {
		t.Errorf("report header wrong: %+v", report)
	}
	if len(report.Experiments) != 1 || report.Experiments[0].ID != "E8" {
		t.Fatalf("experiments = %+v, want exactly E8", report.Experiments)
	}
	if len(report.Experiments[0].Checks) == 0 {
		t.Error("E8 report carries no checks")
	}
	for _, c := range report.Experiments[0].Checks {
		if !c.Pass {
			t.Errorf("check %q failed in JSON report", c.Name)
		}
	}
}

// TestCacheAndResume: a -cache run populates the result store and a
// rerun serves from it with identical output; -resume leaves no shard
// records behind. Both must not change any table.
func TestCacheAndResume(t *testing.T) {
	cache := filepath.Join(t.TempDir(), "store")
	ckpt := filepath.Join(t.TempDir(), "ckpt")

	var cold, warm, plain, stderr strings.Builder
	if code := run([]string{"-run", "E1"}, &plain, &stderr); code != 0 {
		t.Fatalf("plain run: exit %d, stderr: %s", code, stderr.String())
	}
	stderr.Reset()
	if code := run([]string{"-run", "E1", "-cache", cache, "-resume", ckpt}, &cold, &stderr); code != 0 {
		t.Fatalf("cold cached run: exit %d, stderr: %s", code, stderr.String())
	}
	records, err := filepath.Glob(filepath.Join(cache, "objects", "*", "*.json"))
	if err != nil || len(records) == 0 {
		t.Fatalf("cache store is empty after a cold run (err %v)", err)
	}
	// Checkpoints are crash recovery, not a cache: a sweep that ran to
	// completion must delete its shard records (the store carries reruns).
	ckpts, err := filepath.Glob(filepath.Join(ckpt, "objects", "*", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ckpts) != 0 {
		t.Fatalf("completed sweeps left %d stale checkpoint(s) behind", len(ckpts))
	}
	stderr.Reset()
	if code := run([]string{"-run", "E1", "-cache", cache}, &warm, &stderr); code != 0 {
		t.Fatalf("warm cached run: exit %d, stderr: %s", code, stderr.String())
	}
	if cold.String() != plain.String() || warm.String() != plain.String() {
		t.Error("cached/resumed output differs from the plain run")
	}
}

// TestResumeFromPlantedShards resumes through rdvbench itself: the
// first k shard records of a committed E-file search — what a run
// killed after k shards leaves behind, computed here with the engine's
// own plan — are planted in a -resume directory, and the resumed
// -scenario run must print exactly what a plain run prints and delete
// every record once done. A poisoned record then proves the run reads
// the planted records instead of recomputing them.
func TestResumeFromPlantedShards(t *testing.T) {
	const file = "../../examples/scenarios/E1.json"
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	f, err := scenario.ParseFile(data)
	if err != nil {
		t.Fatal(err)
	}
	models, err := f.CompileAll(scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := models[0]
	fp, err := m.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := adversary.NewModelPlan(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	num := plan.Shards()
	if num < 2 {
		t.Fatalf("search 0 of %s has %d shard(s); want several to resume part of", file, num)
	}
	plant := func(dir string, k int, poison bool) {
		t.Helper()
		store, err := resultstore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k; i++ {
			wc, err := plan.RunShard(context.Background(), i)
			if err != nil {
				t.Fatal(err)
			}
			if poison {
				wc.Time.Value = 1 << 30
			}
			if err := store.Put(adversary.ShardFingerprint(fp, i, num), wc); err != nil {
				t.Fatal(err)
			}
		}
	}
	records := func(dir string) int {
		t.Helper()
		paths, err := filepath.Glob(filepath.Join(dir, "objects", "*", "*.json"))
		if err != nil {
			t.Fatal(err)
		}
		return len(paths)
	}

	var plain, resumed, poisoned, stderr strings.Builder
	if code := run([]string{"-scenario", file}, &plain, &stderr); code != 0 {
		t.Fatalf("plain run: exit %d, stderr: %s", code, stderr.String())
	}
	dir := filepath.Join(t.TempDir(), "resume")
	plant(dir, num/2, false)
	if got := records(dir); got != num/2 {
		t.Fatalf("planted %d records, want %d", got, num/2)
	}
	if code := run([]string{"-scenario", file, "-resume", dir}, &resumed, &stderr); code != 0 {
		t.Fatalf("resumed run: exit %d, stderr: %s", code, stderr.String())
	}
	if resumed.String() != plain.String() {
		t.Errorf("resumed output differs from the plain run:\nplain:\n%s\nresumed:\n%s", plain.String(), resumed.String())
	}
	if got := records(dir); got != 0 {
		t.Errorf("resume directory holds %d record(s) after the run, want 0", got)
	}

	poisonDir := filepath.Join(t.TempDir(), "poison")
	plant(poisonDir, 1, true)
	if code := run([]string{"-scenario", file, "-resume", poisonDir}, &poisoned, &stderr); code != 0 {
		t.Fatalf("poisoned run: exit %d, stderr: %s", code, stderr.String())
	}
	if want := fmt.Sprintf("search 0: time=%d ", 1<<30); !strings.HasPrefix(poisoned.String(), want) {
		t.Errorf("a poisoned shard record was not restored: output starts %q, want %q",
			strings.SplitN(poisoned.String(), "\n", 2)[0], want)
	}
}

// TestBadPersistenceFlags: an unusable -cache or -resume location is a
// usage error, caught before any experiment runs.
func TestBadPersistenceFlags(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, flag := range []string{"-cache", "-resume"} {
		var stdout, stderr strings.Builder
		if code := run([]string{"-run", "E8", flag, file}, &stdout, &stderr); code != 2 {
			t.Errorf("%s over a file: exit %d, want 2 (stderr: %s)", flag, code, stderr.String())
		}
	}
}

// TestHelpExitsZero: -h prints usage and exits 0, matching the
// behaviour of the global flag set it replaced.
func TestHelpExitsZero(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Errorf("-h: exit = %d, want 0", code)
	}
	if !strings.Contains(stderr.String(), "-workers") {
		t.Errorf("usage missing from -h output:\n%s", stderr.String())
	}
}

package bench

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"strings"
	"testing"

	"rendezvous/examples/scenarios"
	"rendezvous/internal/scenario"
)

// TestAllExperimentsPass is the repository's headline integration test:
// every experiment table regenerates, every paper-bound check passes,
// and the tables, rendered as markdown in registry order, are
// EXPERIMENTS.md's body (everything after "## Tables") byte for byte —
// so the committed record cannot drift from what the code measures.
func TestAllExperimentsPass(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweeps are not short")
	}
	reg := Registry()
	tables := make([]*Table, len(reg))
	// Cleanup runs once every parallel subtest has finished.
	t.Cleanup(func() {
		if err := matchExperimentsDoc(tables); err != nil {
			t.Error(err)
		}
	})
	for i, exp := range reg {
		t.Run(exp.ID, func(t *testing.T) {
			t.Parallel()
			table, err := exp.Run(Options{Workers: 2})
			if err != nil {
				t.Fatalf("%s: %v", exp.ID, err)
			}
			if len(table.Rows) == 0 {
				t.Fatalf("%s: empty table", exp.ID)
			}
			if len(table.Checks) == 0 {
				t.Fatalf("%s: no bound checks", exp.ID)
			}
			for _, c := range table.Failed() {
				t.Errorf("%s: check %q failed: %s", exp.ID, c.Name, c.Detail)
			}
			for _, row := range table.Rows {
				if len(row) != len(table.Columns) {
					t.Errorf("%s: row %v has %d cells, want %d", exp.ID, row, len(row), len(table.Columns))
				}
			}
			tables[i] = table
		})
	}
}

// matchExperimentsDoc compares the tables' markdown, in order, with
// the body of EXPERIMENTS.md after "## Tables", reporting the first
// differing line. A nil table (an experiment that failed or was not
// selected) skips the comparison.
func matchExperimentsDoc(tables []*Table) error {
	var body bytes.Buffer
	for _, table := range tables {
		if table == nil {
			return nil
		}
		if err := table.Markdown(&body); err != nil {
			return err
		}
	}
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		return err
	}
	_, want, ok := strings.Cut(string(doc), "\n## Tables\n\n")
	if !ok {
		return fmt.Errorf("EXPERIMENTS.md has no \"## Tables\" section")
	}
	got := strings.Split(body.String(), "\n")
	committed := strings.Split(want, "\n")
	for i := 0; i < max(len(got), len(committed)); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(committed) {
			w = committed[i]
		}
		if g != w {
			return fmt.Errorf("EXPERIMENTS.md is stale at body line %d (regenerate it with the command the file documents)\nregenerated: %q\ncommitted:   %q", i+1, g, w)
		}
	}
	return nil
}

// TestCommittedScenarioFilesParse pins that every committed scenario
// file parses, names a real experiment, and compiles end to end: one
// file per experiment, the engine-backed experiments' only spelling of
// their searches.
func TestCommittedScenarioFilesParse(t *testing.T) {
	matches, err := fs.Glob(scenarios.FS, "E*.json")
	if err != nil || len(matches) == 0 {
		t.Fatalf("no embedded scenario files (err %v)", err)
	}
	if len(matches) != len(Registry()) {
		t.Fatalf("found %d scenario files, want one per experiment (%d)", len(matches), len(Registry()))
	}
	for _, name := range matches {
		data, err := scenarios.FS.ReadFile(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		f, err := scenario.ParseFile(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if f.Experiment+".json" != name {
			t.Fatalf("%s: bound to experiment %q", name, f.Experiment)
		}
		if _, err := ByID(f.Experiment); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := f.CompileAll(scenario.Options{}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestRegistryAndByID(t *testing.T) {
	reg := Registry()
	if len(reg) != 15 {
		t.Fatalf("Registry has %d experiments, want 15", len(reg))
	}
	seen := make(map[string]bool)
	for _, e := range reg {
		if seen[e.ID] {
			t.Errorf("duplicate experiment ID %s", e.ID)
		}
		seen[e.ID] = true
		got, err := ByID(e.ID)
		if err != nil {
			t.Errorf("ByID(%s): %v", e.ID, err)
		}
		if got.ID != e.ID {
			t.Errorf("ByID(%s) returned %s", e.ID, got.ID)
		}
	}
	if _, err := ByID("E99"); err == nil {
		t.Error("ByID(E99): want error")
	}
}

func TestTableRender(t *testing.T) {
	table := &Table{
		ID:      "T",
		Title:   "demo",
		Claim:   "x <= y",
		Columns: []string{"a", "bb"},
		Notes:   []string{"a note"},
	}
	table.AddRow(1, 2.5)
	table.AddRow("long-cell", 3)
	table.AddCheck("bound", true, "ok %d", 7)
	table.AddCheck("other", false, "bad")

	var buf bytes.Buffer
	if err := table.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== T: demo ==", "Claim: x <= y", "long-cell", "2.50", "[PASS] bound — ok 7", "[FAIL] other — bad", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render output missing %q:\n%s", want, out)
		}
	}
	if got := len(table.Failed()); got != 1 {
		t.Errorf("Failed() = %d checks, want 1", got)
	}
}

func TestTableMarkdown(t *testing.T) {
	table := &Table{ID: "T", Title: "demo", Columns: []string{"a"}}
	table.AddRow(42)
	table.AddCheck("c", true, "fine")
	var buf bytes.Buffer
	if err := table.Markdown(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"### T — demo", "| a |", "| 42 |", "✅ **c** — fine"} {
		if !strings.Contains(out, want) {
			t.Errorf("Markdown output missing %q:\n%s", want, out)
		}
	}
}

func TestFitExponent(t *testing.T) {
	// y = x^2 exactly.
	xs := []float64{2, 4, 8, 16}
	ys := []float64{4, 16, 64, 256}
	if got := fitExponent(xs, ys); got < 1.99 || got > 2.01 {
		t.Errorf("fitExponent = %v, want 2", got)
	}
	// Degenerate input.
	if got := fitExponent([]float64{1}, []float64{1}); got == got { // NaN check
		t.Errorf("fitExponent of one point = %v, want NaN", got)
	}
}

package main

import (
	"strings"
	"testing"

	"rendezvous/internal/graph"
)

// TestFlagValidation: model-level mistakes — a negative delay, an
// undersized label space, labels or starts out of range or equal —
// are usage errors (exit 2 with an explanation and the usage text),
// matching the flag-validation pattern of rdvbench, instead of
// surfacing as deep-engine errors.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring expected on stderr
	}{
		{"negative-delay", []string{"-delay", "-1"}, "-delay -1"},
		{"L-too-small", []string{"-L", "1", "-a", "1", "-b", "1"}, "-L 1"},
		{"label-a-out-of-range", []string{"-L", "4", "-a", "5", "-b", "2"}, "-a 5"},
		{"label-a-below-one", []string{"-L", "4", "-a", "0", "-b", "2"}, "-a 0"},
		{"label-b-out-of-range", []string{"-L", "4", "-a", "1", "-b", "9"}, "-b 9"},
		{"equal-labels", []string{"-L", "4", "-a", "3", "-b", "3"}, "distinct labels"},
		{"start-a-out-of-range", []string{"-n", "8", "-sa", "8"}, "-sa 8"},
		{"start-a-negative", []string{"-n", "8", "-sa", "-2"}, "-sa -2"},
		{"start-b-out-of-range", []string{"-n", "8", "-sb", "99"}, "-sb 99"},
		{"start-b-negative-non-sentinel", []string{"-n", "8", "-sb", "-3"}, "-sb -3"},
		{"equal-starts", []string{"-n", "8", "-sa", "4", "-sb", "4"}, "distinct start nodes"},
		{"ring-too-small", []string{"-graph", "ring", "-n", "2"}, "need -n >= 3"},
		{"torus-bad-n", []string{"-graph", "torus", "-n", "0"}, "need -n >= 2"},
		{"unknown-graph", []string{"-graph", "nope"}, "unknown graph"},
		{"unknown-algo", []string{"-algo", "nope"}, "unknown algorithm"},
		{"unknown-explorer", []string{"-explorer", "nope"}, "unknown explorer"},
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

// TestRunHappyPath: a valid invocation executes end to end and prints
// the result block; -sb keeps its -1 = n/2 default.
func TestRunHappyPath(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{"-graph", "ring", "-n", "12", "-algo", "fast", "-L", "8",
		"-a", "3", "-b", "7", "-delay", "2"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"graph       ring (n=12", "B: label 7 at node 6", "result      met at node"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRunTrace: -trace prints the timeline before the summary.
func TestRunTrace(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{"-graph", "ring", "-n", "8", "-algo", "cheap", "-L", "4",
		"-a", "1", "-b", "2", "-trace"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "round") {
		t.Errorf("trace output missing timeline:\n%s", stdout.String())
	}
}

func TestBuildGraph(t *testing.T) {
	tests := []struct {
		kind    string
		n       int
		wantN   int
		wantErr bool
	}{
		{"ring", 10, 10, false},
		{"path", 5, 5, false},
		{"star", 6, 6, false},
		{"tree", 9, 9, false},
		{"grid", 10, 16, false}, // rounded up to 4x4
		{"torus", 10, 16, false},
		{"hypercube", 3, 8, false},
		{"complete", 5, 5, false},
		{"nope", 5, 0, true},
	}
	for _, tt := range tests {
		t.Run(tt.kind, func(t *testing.T) {
			g, err := graph.ByName(tt.kind, tt.n, 1)
			if tt.wantErr {
				if err == nil {
					t.Fatal("want error")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if g.N() != tt.wantN {
				t.Errorf("N = %d, want %d", g.N(), tt.wantN)
			}
			if err := g.Validate(); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestPickExplorer(t *testing.T) {
	g, err := graph.ByName("ring", 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"auto", "dfs", "ring-sweep", "eulerian", "unmarked-dfs"} {
		ex, err := pickExplorer(name, g)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if ex == nil {
			t.Errorf("%s: nil explorer", name)
		}
	}
	if _, err := pickExplorer("bogus", g); err == nil {
		t.Error("bogus explorer: want error")
	}
}

func TestPickAlgorithm(t *testing.T) {
	for _, name := range []string{"cheap", "cheap-sim", "fast", "fwr1", "fwr2", "fwr3", "oracle"} {
		algo, err := pickAlgorithm(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if algo.Name() == "" {
			t.Errorf("%s: empty name", name)
		}
	}
	if _, err := pickAlgorithm("bogus"); err == nil {
		t.Error("bogus algorithm: want error")
	}
}

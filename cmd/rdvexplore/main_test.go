package main

import (
	"bytes"
	"strings"
	"testing"

	"rendezvous/internal/graph"
)

func runCmd(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestRenderWalk(t *testing.T) {
	if got := renderWalk([]int{1, 2, 3}, 10); got != "1→2→3" {
		t.Errorf("renderWalk = %q", got)
	}
	long := renderWalk([]int{0, 1, 2, 3, 4, 5}, 3)
	if !strings.Contains(long, "(3 more)") {
		t.Errorf("renderWalk truncation = %q", long)
	}
}

func TestBuildGraphKinds(t *testing.T) {
	for _, kind := range []string{"ring", "path", "star", "tree", "grid", "torus", "hypercube", "complete"} {
		n := 8
		if kind == "hypercube" {
			n = 3
		}
		g, err := graph.ByName(kind, n, 7)
		if err != nil {
			t.Errorf("%s: %v", kind, err)
			continue
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", kind, err)
		}
	}
	if _, err := graph.ByName("zzz", 5, 1); err == nil {
		t.Error("unknown kind: want error")
	}
}

// TestUsageErrors pins the flag-validation parity with rdvsim and
// rdvbench: out-of-range sizes and unknown names are usage errors
// (exit 2 with the offending flag named), never panics.
func TestUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"ring-too-small", []string{"-graph", "ring", "-n", "0"}, "-n >= 3"},
		{"ring-negative", []string{"-graph", "ring", "-n", "-5"}, "-n >= 3"},
		{"path-too-small", []string{"-graph", "path", "-n", "1"}, "-n >= 2"},
		{"star-too-small", []string{"-graph", "star", "-n", "1"}, "-n >= 2"},
		{"tree-too-small", []string{"-graph", "tree", "-n", "1"}, "-n >= 2"},
		{"grid-too-small", []string{"-graph", "grid", "-n", "0"}, "-n >= 2"},
		{"torus-too-small", []string{"-graph", "torus", "-n", "1"}, "-n >= 2"},
		{"hypercube-zero", []string{"-graph", "hypercube", "-n", "0"}, "1 <= -n <= 20"},
		{"hypercube-huge", []string{"-graph", "hypercube", "-n", "31"}, "1 <= -n <= 20"},
		{"complete-too-small", []string{"-graph", "complete", "-n", "1"}, "-n >= 2"},
		{"unknown-graph", []string{"-graph", "moebius"}, "unknown graph"},
		{"unknown-explorer", []string{"-explorer", "teleport"}, "unknown explorer"},
		{"start-negative", []string{"-start", "-1"}, "-start"},
		{"start-out-of-range", []string{"-n", "6", "-start", "6"}, "-start"},
		{"unknown-flag", []string{"-bogus"}, "flag provided but not defined"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runCmd(t, tc.args...)
			if code != 2 {
				t.Errorf("exit %d, want 2; stderr: %s", code, stderr)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Errorf("stderr %q does not mention %q", stderr, tc.want)
			}
		})
	}
}

// TestHappyPath runs the command end to end with -verify on a small
// ring and checks the report reaches stdout.
func TestHappyPath(t *testing.T) {
	code, stdout, stderr := runCmd(t, "-graph", "ring", "-n", "6", "-explorer", "ring-sweep", "-start", "2", "-verify")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	for _, want := range []string{"E = 5", "walk", "contract holds"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("missing %q in output:\n%s", want, stdout)
		}
	}
}

// TestHelpExitsZero: -h prints usage and exits 0.
func TestHelpExitsZero(t *testing.T) {
	code, _, stderr := runCmd(t, "-h")
	if code != 0 {
		t.Errorf("-h: exit %d, want 0", code)
	}
	if !strings.Contains(stderr, "-graph") {
		t.Errorf("usage missing from -h output:\n%s", stderr)
	}
}

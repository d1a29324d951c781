// Command rdvexplore inspects exploration procedures: it prints E, the
// walk from a chosen start, and verifies the explorer contract (exact
// duration, full coverage, from every start) on the chosen graph.
//
// Usage:
//
//	rdvexplore -graph torus -n 12 -explorer eulerian -start 3
//	rdvexplore -graph tree -n 9 -explorer dfs -verify
//
// Flag values are validated up front, matching rdvsim and rdvbench: a
// graph size outside its family's range, a start node out of range,
// or an unknown graph/explorer name is a usage error (exit 2), never
// a panic or a deep-engine error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"rendezvous/internal/explore"
	"rendezvous/internal/graph"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args with a private flag
// set and writes to the given streams.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rdvexplore", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		graphKind = fs.String("graph", "ring", "ring | path | star | tree | grid | torus | hypercube | complete")
		n         = fs.Int("n", 12, "graph size parameter")
		expName   = fs.String("explorer", "auto", "auto | dfs | unmarked-dfs | ring-sweep | eulerian | hamiltonian")
		start     = fs.Int("start", 0, "starting node for the printed walk")
		verify    = fs.Bool("verify", false, "verify the contract from every start")
		seed      = fs.Int64("seed", 1, "seed for randomized generators")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usageErr := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "rdvexplore: "+format+"\n", args...)
		fs.Usage()
		return 2
	}

	g, err := graph.ByName(*graphKind, *n, *seed)
	if err != nil {
		return usageErr("%v", err)
	}
	// The shared registry (also used by rdvsim and the rdvd service),
	// so the supported set cannot drift between surfaces.
	ex, err := explore.ByName(*expName, g, 16)
	if err != nil {
		return usageErr("%v", err)
	}
	// Start validation needs the built graph for its range.
	if *start < 0 || *start >= g.N() {
		return usageErr("-start %d: want a node in 0..%d", *start, g.N()-1)
	}

	fmt.Fprintf(stdout, "graph    %s: %v (diameter %d, eulerian %v)\n", *graphKind, g, g.Diameter(), g.IsEulerian())
	fmt.Fprintf(stdout, "explorer %s, E = %d\n", ex.Name(), ex.Duration(g))

	plan, err := ex.Plan(g, *start)
	if err != nil {
		fmt.Fprintf(stderr, "rdvexplore: plan: %v\n", err)
		return 1
	}
	nodes, err := plan.Apply(g, *start)
	if err != nil {
		fmt.Fprintf(stderr, "rdvexplore: apply: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "plan     %d steps (%d moves, %d waits)\n", len(plan), plan.Moves(), len(plan)-plan.Moves())
	fmt.Fprintf(stdout, "walk     %s\n", renderWalk(nodes, 30))

	if *verify {
		if err := explore.Verify(ex, g); err != nil {
			fmt.Fprintf(stderr, "rdvexplore: VERIFY FAILED: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, "verify   contract holds from every start")
	}
	return 0
}

func renderWalk(nodes []int, limit int) string {
	var parts []string
	for i, v := range nodes {
		if i == limit {
			parts = append(parts, fmt.Sprintf("... (%d more)", len(nodes)-limit))
			break
		}
		parts = append(parts, fmt.Sprint(v))
	}
	return strings.Join(parts, "→")
}

// Command rdvsim runs a single rendezvous execution and prints its
// time, cost and meeting point — the smallest way to poke at the model.
//
// Usage:
//
//	rdvsim -graph ring -n 24 -algo fast -L 16 -a 3 -b 7 -sa 0 -sb 12 -delay 5
//
// Flags:
//
//	-graph   ring | path | star | tree | grid | torus | hypercube | complete
//	-n       graph size parameter (nodes; dimension for hypercube)
//	-algo    cheap | cheap-sim | fast | fwr1 | fwr2 | fwr3 | oracle
//	-L       label space size (>= 2)
//	-a,-b    the two agents' labels (distinct, in 1..L)
//	-sa,-sb  starting nodes (distinct, in range; -sb -1 defaults to n/2)
//	-delay   wake-up delay of agent B in rounds (>= 0; agent A wakes in round 1)
//	-explorer auto | dfs | ring-sweep | eulerian | hamiltonian
//	-parachuted  agent B absent before its wake-up round (Conclusion's model)
//	-seed    seed for randomized generators (tree)
//
// Flag values are validated up front: a negative -delay, -L below 2,
// labels outside 1..L or equal, and start nodes out of range or equal
// are usage errors (exit 2) rather than deep-engine errors.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"rendezvous/internal/core"
	"rendezvous/internal/explore"
	"rendezvous/internal/graph"
	"rendezvous/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args with a private flag
// set and writes to the given streams.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rdvsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		graphKind  = fs.String("graph", "ring", "graph family")
		n          = fs.Int("n", 24, "graph size parameter")
		algoName   = fs.String("algo", "fast", "algorithm")
		labelSpace = fs.Int("L", 16, "label space size")
		labelA     = fs.Int("a", 3, "label of agent A")
		labelB     = fs.Int("b", 7, "label of agent B")
		startA     = fs.Int("sa", 0, "start node of agent A")
		startB     = fs.Int("sb", -1, "start node of agent B (-1 = n/2)")
		delay      = fs.Int("delay", 0, "wake-up delay of agent B")
		expName    = fs.String("explorer", "auto", "exploration procedure")
		parachuted = fs.Bool("parachuted", false, "agent B absent before wake-up")
		seed       = fs.Int64("seed", 1, "seed for randomized generators")
		trace      = fs.Bool("trace", false, "print a round-by-round timeline")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usageErr := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "rdvsim: "+format+"\n", args...)
		fs.Usage()
		return 2
	}

	// Model-level flag validation, before anything touches the engine:
	// these are user mistakes, not execution outcomes.
	if *delay < 0 {
		return usageErr("-delay %d: want >= 0 (agent B cannot wake before agent A)", *delay)
	}
	if *labelSpace < 2 {
		return usageErr("-L %d: want >= 2 (two agents need two distinct labels)", *labelSpace)
	}
	if *labelA < 1 || *labelA > *labelSpace {
		return usageErr("-a %d: want a label in 1..%d", *labelA, *labelSpace)
	}
	if *labelB < 1 || *labelB > *labelSpace {
		return usageErr("-b %d: want a label in 1..%d", *labelB, *labelSpace)
	}
	if *labelA == *labelB {
		return usageErr("-a and -b are both %d: the model requires distinct labels", *labelA)
	}

	g, err := graph.ByName(*graphKind, *n, *seed)
	if err != nil {
		fmt.Fprintf(stderr, "rdvsim: %v\n", err)
		return 2
	}
	ex, err := pickExplorer(*expName, g)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	algo, err := pickAlgorithm(*algoName)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *startB == -1 {
		*startB = g.N() / 2
	}
	// Start validation needs the built graph for its range.
	if *startA < 0 || *startA >= g.N() {
		return usageErr("-sa %d: want a node in 0..%d", *startA, g.N()-1)
	}
	if *startB < 0 || *startB >= g.N() {
		return usageErr("-sb %d: want -1 (default n/2) or a node in 0..%d", *startB, g.N()-1)
	}
	if *startA == *startB {
		return usageErr("-sa and -sb are both %d: the model requires distinct start nodes", *startA)
	}

	params := core.Params{L: *labelSpace}
	sc := sim.Scenario{
		Graph:      g,
		Explorer:   ex,
		A:          sim.AgentSpec{Label: *labelA, Start: *startA, Wake: 1, Schedule: algo.Schedule(*labelA, params)},
		B:          sim.AgentSpec{Label: *labelB, Start: *startB, Wake: 1 + *delay, Schedule: algo.Schedule(*labelB, params)},
		Parachuted: *parachuted,
	}
	res, err := sim.Run(sc)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *trace {
		if err := sim.Trace(stdout, sc, 48); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		fmt.Fprintln(stdout)
	}

	e := ex.Duration(g)
	fmt.Fprintf(stdout, "graph       %s (n=%d, m=%d)\n", *graphKind, g.N(), g.M())
	fmt.Fprintf(stdout, "explorer    %s (E=%d)\n", ex.Name(), e)
	fmt.Fprintf(stdout, "algorithm   %s (L=%d)\n", algo.Name(), *labelSpace)
	fmt.Fprintf(stdout, "agents      A: label %d at node %d (wake 1)   B: label %d at node %d (wake %d)\n",
		*labelA, *startA, *labelB, *startB, 1+*delay)
	if !res.Met {
		fmt.Fprintln(stdout, "result      NO MEETING (schedules exhausted)")
		return 1
	}
	fmt.Fprintf(stdout, "result      met at node %d in round %d\n", res.Node, res.Round)
	fmt.Fprintf(stdout, "time        %d rounds (%.2f·E)\n", res.Time(), float64(res.Time())/float64(e))
	fmt.Fprintf(stdout, "cost        %d traversals (%.2f·E); A moved %d, B moved %d\n",
		res.Cost(), float64(res.Cost())/float64(e), res.CostA, res.CostB)
	return 0
}

// pickExplorer and pickAlgorithm resolve names through the shared
// registries (internal/explore, internal/core), so the CLI and the
// rdvd service always support the same set.
func pickExplorer(name string, g *graph.Graph) (explore.Explorer, error) {
	ex, err := explore.ByName(name, g, 16)
	if err != nil {
		return nil, fmt.Errorf("rdvsim: %w", err)
	}
	return ex, nil
}

func pickAlgorithm(name string) (core.Algorithm, error) {
	algo, err := core.AlgorithmByName(name)
	if err != nil {
		return nil, fmt.Errorf("rdvsim: %w", err)
	}
	return algo, nil
}

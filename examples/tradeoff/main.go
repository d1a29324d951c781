// Tradeoff: regenerate the paper's headline picture — the time-versus-
// cost frontier of rendezvous algorithms on one graph.
//
// For a fixed oriented ring and label space, the example measures the
// adversarial worst case (over label pairs, relative starting offsets
// and wake-up delays) of each algorithm and prints the frontier in
// units of E, annotated with the paper's bounds:
//
//   - Cheap:               cost Θ(E),       time Θ(EL)
//   - FastWithRelabeling:  cost Θ(wE),      time Θ(L^{1/w}E)
//   - Fast:                cost Θ(E log L), time Θ(E log L)
//
// Theorems 3.1 and 3.2 say the two ends cannot be improved: this is the
// tradeoff curve, traced by measurement.
//
//	go run ./examples/tradeoff
package main

import (
	"fmt"
	"log"

	"rendezvous/internal/adversary"
	"rendezvous/internal/core"
	"rendezvous/internal/explore"
	"rendezvous/internal/graph"
	"rendezvous/internal/sim"
)

const (
	ringSize   = 24
	labelSpace = 64
)

func main() {
	g := graph.OrientedRing(ringSize)
	ex := explore.OrientedRingSweep{}
	e := ex.Duration(g)
	params := core.Params{L: labelSpace}

	algos := []struct {
		name string
		algo core.Algorithm
	}{
		{"cheap-simultaneous", core.CheapSimultaneous{}},
		{"cheap", core.Cheap{}},
		{"fwr(w=1)", core.NewFastWithRelabeling(1)},
		{"fwr(w=2)", core.NewFastWithRelabeling(2)},
		{"fwr(w=3)", core.NewFastWithRelabeling(3)},
		{"fast", core.Fast{}},
	}

	// Label pairs: the adversarial ones for both ends of the curve.
	var pairs [][2]int
	for a := 1; a <= 16; a++ {
		for b := 1; b <= 16; b++ {
			if a != b {
				pairs = append(pairs, [2]int{a, b})
			}
		}
	}
	pairs = append(pairs, [2]int{labelSpace - 1, labelSpace}, [2]int{labelSpace, labelSpace - 1})

	var offsets [][2]int
	for d := 1; d < ringSize; d++ {
		offsets = append(offsets, [2]int{0, d})
	}

	fmt.Printf("oriented ring n=%d (E=%d), L=%d — worst case over %d label pairs × %d offsets\n\n",
		ringSize, e, labelSpace, len(pairs), len(offsets))
	fmt.Printf("%-20s %10s %10s %12s %12s\n", "algorithm", "cost/E", "time/E", "cost bound", "time bound")

	for _, a := range algos {
		delays := []int{0}
		if a.name != "cheap-simultaneous" { // correct only for simultaneous start
			delays = []int{0, 1, e}
		}
		// The engine shards the sweep across GOMAXPROCS goroutines and,
		// on the oriented ring with the sweep explorer, dispatches every
		// execution to the O(|schedule|) segment-level executor.
		wc, err := adversary.SearchModel(adversary.PaperModel{
			Spec: adversary.Spec{
				Graph:       g,
				Explorer:    ex,
				ScheduleFor: func(l int) sim.Schedule { return a.algo.Schedule(l, params) },
			},
			Space: sim.SearchSpace{LabelPairs: pairs, StartPairs: offsets, Delays: delays},
		}, adversary.Options{Workers: -1})
		if err != nil {
			log.Fatal(err)
		}
		if !wc.AllMet {
			log.Fatalf("%s: some executions never met", a.name)
		}
		costBound, timeBound := bounds(a.name, e, labelSpace)
		fmt.Printf("%-20s %10.2f %10.2f %12s %12s\n",
			a.name, float64(wc.Cost.Value)/float64(e), float64(wc.Time.Value)/float64(e), costBound, timeBound)
	}

	fmt.Println("\nreading the frontier: each row trades time against cost;")
	fmt.Println("Thm 3.1: no cost-(E+o(E)) algorithm beats time Ω(EL);")
	fmt.Println("Thm 3.2: no O(E log L)-time algorithm beats cost Ω(E log L).")
}

func bounds(name string, e, L int) (string, string) {
	switch name {
	case "cheap-simultaneous":
		return "E", fmt.Sprintf("(L-1)E=%d", (L-1)*e)
	case "cheap":
		return fmt.Sprintf("3E=%d", 3*e), fmt.Sprintf("(2L+1)E=%d", (2*L+1)*e)
	case "fast":
		return fmt.Sprintf("%d", core.FastCostBound(e, L)), fmt.Sprintf("%d", core.FastTimeBound(e, L))
	case "fwr(w=1)":
		return fmt.Sprintf("%d", core.RelabelingCostSafe(e, 1)), fmt.Sprintf("%d", core.RelabelingTimeBound(e, L, 1))
	case "fwr(w=2)":
		return fmt.Sprintf("%d", core.RelabelingCostSafe(e, 2)), fmt.Sprintf("%d", core.RelabelingTimeBound(e, L, 2))
	case "fwr(w=3)":
		return fmt.Sprintf("%d", core.RelabelingCostSafe(e, 3)), fmt.Sprintf("%d", core.RelabelingTimeBound(e, L, 3))
	}
	return "", ""
}

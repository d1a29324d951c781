package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"

	"rendezvous/internal/explore"
	"rendezvous/internal/model"
	"rendezvous/internal/scenario"
)

// dynamicShape is one cost stratum of the dynamic workload: the
// parameters that set a document's cost (base graph, algorithm, label
// space, delay pattern). Every seed generates one document per
// stratum, so the work of a pass is nearly the same for every seed;
// the seed draws only what varies within a stratum — the phase
// schedule and the edges it disables — and the order of the pass.
type dynamicShape struct {
	graph  scenario.GraphSpec
	algo   string
	l      int
	delays string
}

// dynamicShapes returns the strata: ring, grid and torus base graphs,
// the cheap, fast and fwr algorithms, L from 4 to 10 and the basic or
// spread delay patterns, fully crossed.
func dynamicShapes() []dynamicShape {
	graphs := []scenario.GraphSpec{
		{Family: "ring", N: 12},
		{Family: "grid", Rows: 3, Cols: 4},
		{Family: "torus", Rows: 3, Cols: 4},
	}
	algos := []string{"cheap", "fast", "fwr(1)", "fwr(2)"}
	var shapes []dynamicShape
	for _, g := range graphs {
		for _, a := range algos {
			for _, l := range []int{4, 6, 8, 10} {
				for _, delays := range []string{scenario.DelayBasic, scenario.DelaySpread} {
					shapes = append(shapes, dynamicShape{graph: g, algo: a, l: l, delays: delays})
				}
			}
		}
	}
	return shapes
}

// dynamicDocs generates the dynamic workload's documents for a seed:
// one standalone scenario document per stratum, as JSON. The same seed
// yields byte-identical documents. Each document has 2–4 periodic
// phases, each disabling 1–3 distinct edges of the base graph for
// 1..E rounds, where E is the explorer's exploration time.
func dynamicDocs(seed int64) ([][]byte, error) {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x64796e616d6963))
	shapes := dynamicShapes()
	docs := make([][]byte, 0, len(shapes))
	for _, sh := range shapes {
		g, err := sh.graph.Build()
		if err != nil {
			return nil, err
		}
		ex, err := explore.ByName("", g, 16)
		if err != nil {
			return nil, err
		}
		e := ex.Duration(g)
		var edges [][2]int
		for v := 0; v < g.N(); v++ {
			for p := 0; p < g.Degree(v); p++ {
				if to, _ := g.Neighbor(v, p); v < to {
					edges = append(edges, [2]int{v, to})
				}
			}
		}
		phases := make([]model.Phase, 2+rng.IntN(3))
		for i := range phases {
			phases[i].Rounds = 1 + rng.IntN(e)
			perm := rng.Perm(len(edges))
			for _, k := range perm[:1+rng.IntN(3)] {
				phases[i].Disable = append(phases[i].Disable, edges[k])
			}
		}
		data, err := json.Marshal(scenario.Search{
			Version:      scenario.Version,
			Model:        "dynamic",
			Graph:        sh.graph,
			Algorithm:    sh.algo,
			L:            sh.l,
			DelayPattern: sh.delays,
			Phases:       phases,
		})
		if err != nil {
			return nil, fmt.Errorf("dynamic document: %w", err)
		}
		docs = append(docs, data)
	}
	return docs, nil
}

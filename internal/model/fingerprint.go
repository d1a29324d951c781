package model

import (
	"fmt"
	"sort"

	"rendezvous/internal/resultstore"
)

// fingerprintVersion salts every fingerprint this package computes.
// It deliberately differs from the result store's paper-model salt
// ("rendezvous/resultstore/v1"), so the fingerprint domains of the
// paper model and the models defined here are disjoint by
// construction: no spelling of a dynamic search can collide with any
// paper search in a shared store. Bump it whenever the encoding or the
// semantics of any hashed component changes.
const fingerprintVersion = "rendezvous/model/v1"

// Fingerprint implements Model: the canonical content address of the
// dynamic search, in this package's fingerprint domain. It shares the
// paper model's canonical encoder (resultstore.Encoder), so it hashes
// semantics, not syntax — the space is expanded first, the graph is
// hashed as its full port-labeled structure, the explorer by
// behaviour, the algorithm by the schedules of exactly the reachable
// labels — and it additionally hashes the model name and the phase
// schedule (durations and normalized disabled edge lists).
// Output-invariant execution knobs (workers) contribute nothing.
func (m Dynamic) Fingerprint() (string, error) {
	if err := m.validate(); err != nil {
		return "", err
	}
	e := resultstore.NewEncoder(fingerprintVersion)
	e.Str(m.Name())
	if err := e.Search(m.Graph, m.Explorer, m.ScheduleFor, m.Space); err != nil {
		return "", fmt.Errorf("model: dynamic: Fingerprint: %w", err)
	}

	// Phases: duration plus the normalized, sorted disabled edge list
	// of each phase — two spellings of the same edge set hash
	// identically.
	e.Str("phases")
	e.Ints(len(m.Phases))
	for _, ph := range m.Phases {
		e.Ints(ph.Rounds)
		edges := make([][2]int, 0, len(ph.Disable))
		dedup := make(map[[2]int]bool, len(ph.Disable))
		for _, de := range ph.Disable {
			ne := normEdge(de[0], de[1])
			if !dedup[ne] {
				dedup[ne] = true
				edges = append(edges, ne)
			}
		}
		sort.Slice(edges, func(i, j int) bool {
			if edges[i][0] != edges[j][0] {
				return edges[i][0] < edges[j][0]
			}
			return edges[i][1] < edges[j][1]
		})
		e.Ints(len(edges))
		for _, ne := range edges {
			e.Ints(ne[0], ne[1])
		}
	}
	return e.Sum(), nil
}

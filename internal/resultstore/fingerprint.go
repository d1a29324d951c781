// Package resultstore is the persistence layer of the adversary-search
// stack: a content-addressed, on-disk cache of WorstCase results.
//
// A worst-case value over a (graph, explorer, algorithm, search space)
// configuration is immutable once computed — the engine is
// deterministic and every execution tier is bit-for-bit equivalent —
// so results are keyed by a canonical fingerprint of the configuration
// and cached forever. The store is deliberately dumb: it maps
// fingerprints to versioned JSON records with a checksum, written
// atomically (temp file + rename), and treats every form of damage —
// a missing file, a truncated record, a garbled checksum, a foreign
// version — as a cache miss, never an error. Callers recompute on a
// miss and rewrite, so a corrupted store heals itself.
//
// # Fingerprint canonicalization
//
// Two requests that denote the same computation must hash identically,
// however they were spelled. The fingerprint therefore hashes the
// *semantics* of the request, not its syntax:
//
//   - The search space is expanded first (sim.SearchSpace.Expand), so
//     {L: 4} and an explicit list of all ordered distinct label pairs
//     in {1..4} produce the same bytes, and defaulted start pairs and
//     delays hash the same as their explicit spellings.
//   - The graph is hashed as its full port-labeled adjacency structure
//     (per node, per port: neighbor and entry port), so any two Graph
//     values with identical structure hash the same regardless of how
//     they were built.
//   - The explorer is hashed by behaviour — its duration and the plan
//     it produces from every start node — not by name, so two
//     implementations of the same walk are interchangeable.
//   - The algorithm is hashed by the schedules of exactly the labels
//     the expanded space can reach, so algorithms that agree on those
//     labels share cache entries.
//
// Options that are proven output-invariant (Workers, Tier,
// TableBudget) are excluded from the key: the engine guarantees
// bit-for-bit identical results for every value of them. The symmetry
// mode is included, because it changes WorstCase.Runs (values and
// witnesses are unchanged, but the record stores the full struct).
//
// Encoder exports this encoding, so every model's fingerprint applies
// the same rules under its own domain salt.
package resultstore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"sort"

	"rendezvous/internal/explore"
	"rendezvous/internal/graph"
	"rendezvous/internal/sim"
)

// fingerprintVersion salts the hash; bump it whenever the encoding or
// the semantics of any hashed component changes, so stale records can
// never be confused with current ones.
const fingerprintVersion = "rendezvous/resultstore/v1"

// Key identifies one adversary-search computation for caching: the
// model under attack, the configuration space, and the one
// engine-relevant option (the symmetry mode, which changes Runs).
type Key struct {
	// Graph is the port-labeled graph; its full structure is hashed.
	Graph *graph.Graph
	// Explorer is the EXPLORE procedure; its behaviour (duration and
	// per-start plans) is hashed, not its name.
	Explorer explore.Explorer
	// ScheduleFor maps labels to schedules; the schedules of exactly
	// the labels reachable from the expanded space are hashed.
	ScheduleFor func(label int) sim.Schedule
	// Space is the configuration space as the caller spelled it; it is
	// expanded before hashing so equivalent spellings hash identically.
	Space sim.SearchSpace
	// Symmetry is the engine's symmetry mode in textual form ("auto",
	// "off", "forced"). It is part of the key because the reduction
	// changes WorstCase.Runs.
	Symmetry string
}

// Encoder writes a fingerprint's canonical byte sequence into a
// SHA-256 hash: fixed-width little-endian integers and length-prefixed
// strings, so every component contributes an unambiguous byte
// sequence. It is the one encoder behind every model's fingerprint:
// a domain salt, the search sections every model shares (Search), then
// the model's own tail.
type Encoder struct {
	h hash.Hash
}

// NewEncoder starts a fingerprint in the domain named by salt. Models
// with different salts can never share a fingerprint.
func NewEncoder(salt string) Encoder {
	e := Encoder{h: sha256.New()}
	e.Str(salt)
	return e
}

// Ints encodes each value as a fixed-width little-endian integer.
func (e Encoder) Ints(vals ...int) {
	for _, v := range vals {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		e.h.Write(buf[:])
	}
}

// Str encodes a length-prefixed string.
func (e Encoder) Str(s string) {
	e.Ints(len(s))
	io.WriteString(e.h, s)
}

// Sum returns the fingerprint as a 64-character hex string.
func (e Encoder) Sum() string {
	return hex.EncodeToString(e.h.Sum(nil))
}

// Search encodes the sections every model's fingerprint shares, by the
// canonicalization rules in the package documentation: the graph's
// port-labeled structure, the explorer's behaviour, the schedules of
// exactly the labels the space reaches, and the expanded space. It
// fails when the space does not expand on the graph or the explorer
// rejects it, leaving the encoder unusable; callers prefix the error
// with their own name.
func (e Encoder) Search(g *graph.Graph, ex explore.Explorer, scheduleFor func(label int) sim.Schedule, space sim.SearchSpace) error {
	n := g.N()
	labelPairs, startPairs, delays, err := space.Expand(n)
	if err != nil {
		return err
	}

	// Graph: full port-labeled adjacency structure.
	e.Str("graph")
	e.Ints(n)
	for v := 0; v < n; v++ {
		deg := g.Degree(v)
		e.Ints(deg)
		for p := 0; p < deg; p++ {
			to, entry := g.Neighbor(v, p)
			e.Ints(to, entry)
		}
	}

	// Explorer: behaviour, not name — duration plus the plan from every
	// start node.
	e.Str("explorer")
	e.Ints(ex.Duration(g))
	for start := 0; start < n; start++ {
		plan, err := ex.Plan(g, start)
		if err != nil {
			return fmt.Errorf("explorer %s rejects start %d: %w", ex.Name(), start, err)
		}
		e.Ints(len(plan))
		for _, step := range plan {
			e.Ints(step)
		}
	}

	// Algorithm: the schedules of exactly the labels the space reaches,
	// in sorted label order.
	e.Str("schedules")
	seen := make(map[int]bool)
	var labels []int
	for _, lp := range labelPairs {
		for _, l := range lp[:] {
			if !seen[l] {
				seen[l] = true
				labels = append(labels, l)
			}
		}
	}
	sort.Ints(labels)
	e.Ints(len(labels))
	for _, l := range labels {
		sched := scheduleFor(l)
		e.Ints(l, len(sched))
		for _, seg := range sched {
			e.Ints(int(seg))
		}
	}

	// Space: the expanded (canonical) enumeration.
	e.Str("space")
	e.Ints(len(labelPairs))
	for _, lp := range labelPairs {
		e.Ints(lp[0], lp[1])
	}
	e.Ints(len(startPairs))
	for _, sp := range startPairs {
		e.Ints(sp[0], sp[1])
	}
	e.Ints(len(delays))
	e.Ints(delays...)
	return nil
}

// Fingerprint returns the canonical content address of the key as a
// 64-character hex string. It fails only when the key cannot denote a
// cacheable computation at all: an invalid search space (Expand
// rejects it) or an explorer that rejects the graph — exactly the
// cases in which the search itself errors and there is no result to
// store.
func Fingerprint(k Key) (string, error) {
	if k.Graph == nil || k.Explorer == nil || k.ScheduleFor == nil {
		return "", fmt.Errorf("resultstore: Fingerprint: Graph, Explorer and ScheduleFor are all required")
	}
	e := NewEncoder(fingerprintVersion)
	if err := e.Search(k.Graph, k.Explorer, k.ScheduleFor, k.Space); err != nil {
		return "", fmt.Errorf("resultstore: Fingerprint: %w", err)
	}
	// Engine options that change the stored record.
	e.Str("symmetry")
	e.Str(k.Symmetry)
	return e.Sum(), nil
}

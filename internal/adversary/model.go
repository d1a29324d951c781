package adversary

import (
	"fmt"

	"rendezvous/internal/model"
	"rendezvous/internal/resultstore"
	"rendezvous/internal/sim"
)

// This file is the engine's model seam: the adversary engine executes
// any implementation of the internal/model contract, and the paper's
// own model — two agents on a fixed graph, synchronous rounds, a delay
// adversary — is re-expressed here as PaperModel, the contract's first
// implementation. Every search, the paper's included, enters through
// the same model-generic entry points (SearchModel,
// SearchModelCheckpointed, SearchModelCached, NewModelPlan).

// PaperModel is the paper's rendezvous model as a pluggable
// model.Model: the spec (graph, explorer, algorithm), the
// configuration space, and the engine knobs that shape compilation —
// the forced tier, the table memory budget, and the symmetry mode
// (the one knob that also contributes to the fingerprint, because it
// changes Runs). Workers and contexts are execution options, not model
// state; they are supplied at search time through Options.
//
// PaperModel is the only model with fast-tier accelerations: its
// compiler runs the engine's tier dispatch (ring, batch, table,
// generic with degenerate-space fallbacks).
type PaperModel struct {
	Spec  Spec
	Space sim.SearchSpace
	// Tier forces an execution tier; TierAuto (the zero value) picks
	// the fastest eligible one. See Tier for the forcing semantics.
	Tier Tier
	// TableBudget caps, in bytes, the memory TierAuto may spend on
	// meeting tables before falling back to the generic executor.
	// 0 means DefaultTableBudget; negative disables the table tiers
	// under TierAuto. A forced TierTable or TierBatch ignores it.
	TableBudget int64
	// Symmetry selects the start-pair orbit reduction applied before
	// tier dispatch. The zero value (SymmetryAuto) reduces whenever the
	// graph's automorphism group permits; see Symmetry.
	Symmetry Symmetry
}

func (m PaperModel) tableBudget() int64 {
	if m.TableBudget == 0 {
		return DefaultTableBudget
	}
	return m.TableBudget
}

// Name implements model.Model.
func (m PaperModel) Name() string { return "paper" }

// Units implements model.Model: the expanded label-pair count — the
// shard axis — derived without building executor state. Symmetry
// reduction never touches label pairs, so the count is the same for
// every symmetry mode, but the reduction still runs so Units fails
// exactly when Compile would fail on the enumeration.
func (m PaperModel) Units() (int, error) {
	reduced, err := reduceSpace(m.Spec, m.Space, m.Symmetry)
	if err != nil {
		return 0, err
	}
	labelPairs, _, _, err := reduced.Expand(m.Spec.Graph.N())
	if err != nil {
		return 0, err
	}
	return len(labelPairs), nil
}

// Compile implements model.Model: the engine's one tier-dispatch
// implementation (newSearchPlan), lowered to the contract's shard
// form.
func (m PaperModel) Compile() (*model.Compiled, error) {
	plan, err := newSearchPlan(m)
	if err != nil {
		return nil, err
	}
	return &model.Compiled{
		Tier:       plan.tier.String(),
		LabelPairs: plan.labelPairs,
		StartPairs: plan.startPairs,
		Delays:     plan.delays,
		Sweep:      plan.sweep,
	}, nil
}

// Fingerprint implements model.Model: the canonical content address of
// the search in the resultstore domain — the key under which its
// WorstCase is cached. Requests that denote the same computation
// fingerprint identically however they are spelled (see resultstore's
// canonicalization rules), and output-invariant knobs (Tier,
// TableBudget) do not contribute: only the symmetry mode does, because
// it changes Runs.
//
// A forced tier the spec cannot run is an error here, although the
// tier never enters the address: every store front (SearchModelCached,
// the daemon, the bench harness) fingerprints before it consults its
// store, so this is what keeps a hit on the same search from masking
// the forcing error a cold run returns.
func (m PaperModel) Fingerprint() (string, error) {
	if err := m.checkTier(); err != nil {
		return "", err
	}
	return resultstore.Fingerprint(resultstore.Key{
		Graph:       m.Spec.Graph,
		Explorer:    m.Spec.Explorer,
		ScheduleFor: m.Spec.ScheduleFor,
		Space:       m.Space,
		Symmetry:    m.Symmetry.String(),
	})
}

// checkTier reports the dispatch errors that do not depend on the
// search space: an unknown forced tier, and TierRing forced on a spec
// that is not ring-eligible. Compile and Fingerprint share it. Every
// other cold-search error either fails Fingerprint too (invalid space,
// explorer rejecting the graph) or recurs on recompute (per-execution
// errors are never stored), so no store hit can mask one.
func (m PaperModel) checkTier() error {
	switch m.Tier {
	case TierAuto, TierGeneric, TierTable, TierBatch:
		return nil
	case TierRing:
		if !m.Spec.FastPathEligible() {
			return fmt.Errorf("adversary: TierRing forced but the spec is not ring-eligible (graph %v, explorer %s)", m.Spec.Graph, m.Spec.Explorer.Name())
		}
		return nil
	default:
		return fmt.Errorf("adversary: unknown tier %v", m.Tier)
	}
}

// planFromModel lowers a compiled model onto the engine's internal
// plan form. The tier name round-trips through ParseTier so plan
// observers and the shard protocol keep their typed tier; a model
// claiming an unknown tier is a compile error here, at the engine
// boundary.
func planFromModel(m model.Model) (*searchPlan, error) {
	c, err := m.Compile()
	if err != nil {
		return nil, err
	}
	tier, err := ParseTier(c.Tier)
	if err != nil {
		return nil, fmt.Errorf("adversary: model %q compiled to an unknown tier: %w", m.Name(), err)
	}
	return &searchPlan{
		labelPairs: c.LabelPairs,
		startPairs: c.StartPairs,
		delays:     c.Delays,
		tier:       tier,
		sweep:      c.Sweep,
	}, nil
}

// SearchModel runs the adversary over any model and returns the worst
// time and cost found. It is the engine's one fan-out driver with no
// checkpoint file and one shard per resolved worker — contiguous
// slices of the label-pair axis, folded in shard order with the
// strictly-greater merge — so output is bit-for-bit identical for
// every worker count: witnesses are the first configurations in
// canonical enumeration order (labelPairs × startPairs × delays)
// achieving the maxima, and an error is the serial scan's first. Only
// the execution options (Workers, Context) come from opts: tiering,
// symmetry and budgets are the model's own business (PaperModel
// carries them as fields).
func SearchModel(m model.Model, opts Options) (sim.WorstCase, error) {
	p, err := planFromModel(m)
	if err != nil {
		return sim.WorstCase{}, err
	}
	return runPlan(m, &Plan{plan: p, shards: opts.resolveWorkers(len(p.labelPairs))}, opts, CheckpointConfig{})
}

// NewModelPlan compiles any model and fixes its shard decomposition.
// shards <= 0 selects DefaultCheckpointShards; the count is clamped to
// [1, label pairs] exactly as ModelPlanShards reports. The
// decomposition is a pure function of (model, shards): every process
// compiling the same search with the same requested count derives the
// same boundaries — the determinism contract checkpoint/resume and the
// cluster dispatcher rely on.
func NewModelPlan(m model.Model, shards int) (*Plan, error) {
	p, err := planFromModel(m)
	if err != nil {
		return nil, err
	}
	return &Plan{plan: p, shards: resolveShardCount(len(p.labelPairs), shards)}, nil
}

// ModelPlanShards returns the shard count NewModelPlan would fix,
// without building executor state (no trajectory caches, no meeting
// tables): the requested count clamped to the model's label-pair
// units. Coordinators use it to agree on a decomposition with workers
// before dispatching anything.
func ModelPlanShards(m model.Model, requested int) (int, error) {
	units, err := m.Units()
	if err != nil {
		return 0, err
	}
	return resolveShardCount(units, requested), nil
}

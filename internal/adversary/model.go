package adversary

import (
	"fmt"

	"rendezvous/internal/model"
	"rendezvous/internal/sim"
)

// This file is the engine's model seam: the adversary engine executes
// any implementation of the internal/model contract, and the paper's
// own model — two agents on a fixed graph, synchronous rounds, a delay
// adversary — is re-expressed here as PaperModel, the contract's first
// implementation. Search and SearchCheckpointed are thin wrappers that
// lower their (Spec, SearchSpace, Options) spelling onto PaperModel and
// dispatch through the same model-generic path as any foreign model,
// so the two spellings cannot diverge: bit-for-bit identity is by
// construction, and pinned by the scenario equivalence matrix in the
// tests.

// PaperModel is the paper's rendezvous model as a pluggable
// model.Model: the spec (graph, explorer, algorithm), the
// configuration space, and the engine knobs that shape compilation —
// the forced tier, the table memory budget, and the symmetry mode
// (the one knob that also contributes to the fingerprint, because it
// changes Runs). Workers and contexts are execution options, not model
// state; they are supplied at search time.
//
// PaperModel is the only model with fast-tier accelerations: its
// compiler runs the engine's tier dispatch (ring, batch, table,
// generic with degenerate-space fallbacks), exactly as Search always
// has.
type PaperModel struct {
	Spec  Spec
	Space sim.SearchSpace
	// Tier, TableBudget and Symmetry have Options' semantics.
	Tier        Tier
	TableBudget int64
	Symmetry    Symmetry
}

// paperModel lowers the classic (spec, space, opts) spelling onto the
// model contract.
func paperModel(spec Spec, space sim.SearchSpace, opts Options) PaperModel {
	return PaperModel{Spec: spec, Space: space, Tier: opts.Tier, TableBudget: opts.TableBudget, Symmetry: opts.Symmetry}
}

// options reconstructs the compilation-relevant Options.
func (m PaperModel) options() Options {
	return Options{Tier: m.Tier, TableBudget: m.TableBudget, Symmetry: m.Symmetry}
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
	plan, err := newSearchPlan(m.Spec, m.Space, m.options())
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

// Fingerprint implements model.Model by delegating to the engine's
// classic fingerprint (the resultstore domain), so a scenario-driven
// paper search and its (Spec, Options) spelling share one cache
// address.
func (m PaperModel) Fingerprint() (string, error) {
	return Fingerprint(m.Spec, m.Space, m.options())
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

// SearchModel runs the adversary over any model: the model's compiled
// sweep driven through the engine's shared fan-out scaffolding —
// worker-count shards of the label-pair axis, folded in shard order
// with the strictly-greater merge, so output is bit-for-bit identical
// for every worker count. Only the execution options (Workers,
// Context) are read from opts: tiering, symmetry and budgets are the
// model's own business (PaperModel carries them as fields).
func SearchModel(m model.Model, opts Options) (sim.WorstCase, error) {
	plan, err := planFromModel(m)
	if err != nil {
		return sim.WorstCase{}, err
	}
	return sim.Sharded(opts.simOptions(), plan.labelPairs, plan.sweep, (*sim.WorstCase).Merge)
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

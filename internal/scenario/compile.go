package scenario

import (
	"fmt"
	"math/rand"

	"rendezvous/internal/adversary"
	"rendezvous/internal/core"
	"rendezvous/internal/explore"
	"rendezvous/internal/graph"
	"rendezvous/internal/model"
	"rendezvous/internal/sim"
)

// The canonical configuration-space generators, exported so scenario
// documents and the code that reads them share one definition of each
// space.

// SampledLabelPairs returns a seeded sample of distinct-label pairs,
// always including the structurally adversarial ones: consecutive
// labels, the top pair, the bottom pair, and pairs straddling powers of
// two (which share long transformed-label prefixes and so delay Fast's
// first difference).
func SampledLabelPairs(L, count int, seed int64) [][2]int {
	if total := L * (L - 1); count > total {
		count = total // fewer distinct ordered pairs exist than requested
	}
	seen := make(map[[2]int]bool)
	var pairs [][2]int
	add := func(a, b int) {
		if a < 1 || b < 1 || a > L || b > L || a == b || seen[[2]int{a, b}] {
			return
		}
		seen[[2]int{a, b}] = true
		pairs = append(pairs, [2]int{a, b})
	}
	add(1, 2)
	add(L-1, L)
	add(L, L-1)
	for p := 2; p < L; p *= 2 {
		add(p-1, p)
		add(p, p+1)
		add(p, 2*p-1)
	}
	rng := rand.New(rand.NewSource(seed))
	for len(pairs) < count {
		a, b := rng.Intn(L)+1, rng.Intn(L)+1
		if a == b {
			continue
		}
		add(a, b)
	}
	return pairs
}

// RingOffsets returns the start pairs (0, d) for all d in 1..n-1. On an
// oriented ring only the relative offset matters, so this is an
// exhaustive start-pair space at 1/n of the price.
func RingOffsets(n int) [][2]int {
	pairs := make([][2]int, 0, n-1)
	for d := 1; d < n; d++ {
		pairs = append(pairs, [2]int{0, d})
	}
	return pairs
}

// DelaysFor returns the canonical adversarial delay set for a given E
// (the "spread" pattern): simultaneous, one round, half an exploration,
// exactly E (the pivot of the proofs' case analyses), just past it, and
// far beyond.
func DelaysFor(e int) []int {
	return []int{0, 1, e / 2, e, e + 1, 2 * e}
}

// nodes returns the node count the spec denotes, for the size cap.
// Each dimension is bounds-checked before any multiplication so a
// crafted huge pair cannot overflow past the cap.
func (gs GraphSpec) nodes() int {
	switch gs.Family {
	case "grid", "torus":
		if gs.Rows < 0 || gs.Rows > MaxNodes || gs.Cols < 0 || gs.Cols > MaxNodes {
			return MaxNodes + 1
		}
		return gs.Rows * gs.Cols
	case "hypercube":
		if gs.N < 1 || gs.N > 20 {
			return -1
		}
		return 1 << gs.N
	case "tree":
		if gs.Take < 0 || gs.Take >= len(gs.Draws) {
			return -1
		}
		return gs.Draws[gs.Take]
	default:
		return gs.N
	}
}

// Build validates the spec and constructs the graph. It never panics:
// every parameter the generators would reject is caught here first.
func (gs GraphSpec) Build() (*graph.Graph, error) {
	if n := gs.nodes(); n > MaxNodes {
		return nil, fmt.Errorf("scenario: graph %s: size exceeds the maximum of %d nodes", gs.Family, MaxNodes)
	}
	switch gs.Family {
	case "ring":
		if gs.N < 3 {
			return nil, fmt.Errorf("scenario: graph ring: need n >= 3 (got %d)", gs.N)
		}
		return graph.OrientedRing(gs.N), nil
	case "path":
		if gs.N < 2 {
			return nil, fmt.Errorf("scenario: graph path: need n >= 2 (got %d)", gs.N)
		}
		return graph.Path(gs.N), nil
	case "star":
		if gs.N < 2 {
			return nil, fmt.Errorf("scenario: graph star: need n >= 2 (got %d)", gs.N)
		}
		return graph.Star(gs.N), nil
	case "complete":
		if gs.N < 2 {
			return nil, fmt.Errorf("scenario: graph complete: need n >= 2 (got %d)", gs.N)
		}
		return graph.Complete(gs.N), nil
	case "circulant":
		if gs.N < 2 {
			return nil, fmt.Errorf("scenario: graph circulant: need n >= 2 (got %d)", gs.N)
		}
		return graph.CirculantComplete(gs.N), nil
	case "grid":
		if gs.Rows < 1 || gs.Cols < 1 || gs.Rows*gs.Cols < 2 {
			return nil, fmt.Errorf("scenario: graph grid: need rows,cols >= 1 and >= 2 nodes (got %dx%d)", gs.Rows, gs.Cols)
		}
		return graph.Grid(gs.Rows, gs.Cols), nil
	case "torus":
		if gs.Rows < 3 || gs.Cols < 3 {
			return nil, fmt.Errorf("scenario: graph torus: need rows,cols >= 3 (got %dx%d)", gs.Rows, gs.Cols)
		}
		return graph.Torus(gs.Rows, gs.Cols), nil
	case "hypercube":
		if gs.N < 1 || gs.N > 20 {
			return nil, fmt.Errorf("scenario: graph hypercube: need 1 <= n <= 20 (got %d)", gs.N)
		}
		return graph.Hypercube(gs.N), nil
	case "tree":
		if len(gs.Draws) == 0 {
			return nil, fmt.Errorf("scenario: graph tree: draws is required (the sizes drawn from the seeded generator, in order)")
		}
		if len(gs.Draws) > MaxListLen {
			return nil, fmt.Errorf("scenario: graph tree: draws is capped at %d entries", MaxListLen)
		}
		if gs.Take < 0 || gs.Take >= len(gs.Draws) {
			return nil, fmt.Errorf("scenario: graph tree: take %d out of range [0,%d)", gs.Take, len(gs.Draws))
		}
		for i, n := range gs.Draws {
			if n < 2 || n > MaxNodes {
				return nil, fmt.Errorf("scenario: graph tree: draws[%d] = %d: want 2..%d", i, n, MaxNodes)
			}
		}
		rng := rand.New(rand.NewSource(gs.Seed))
		var g *graph.Graph
		for i := 0; i <= gs.Take; i++ {
			g = graph.RandomTree(gs.Draws[i], rng)
		}
		return g, nil
	case "":
		return nil, fmt.Errorf("scenario: graph family is required")
	default:
		return nil, fmt.Errorf("scenario: unknown graph family %q", gs.Family)
	}
}

// Options are the runner-side knobs a scenario inherits when it does
// not pin them itself: the forced tier, the symmetry mode, and the
// table memory budget. The zero value is the engine default
// (automatic everything).
type Options struct {
	Tier        adversary.Tier
	Symmetry    adversary.Symmetry
	TableBudget int64
}

// validate checks everything about the search that does not require
// building the graph: version, model registration, cap compliance, and
// the mutual exclusions between explicit axes and their generators.
func (s *Search) validate(standalone bool) error {
	if standalone {
		if s.Version != Version {
			return fmt.Errorf("scenario: unsupported version %d (this build parses version %d)", s.Version, Version)
		}
	} else if s.Version != 0 {
		return fmt.Errorf("scenario: a search inside a file must not carry its own version (got %d)", s.Version)
	}
	switch s.Model {
	case "", "paper", "dynamic":
	default:
		return &UnknownModelError{Model: s.Model, Known: Models()}
	}
	if len(s.LabelPairs) > MaxListLen || len(s.StartPairs) > MaxListLen || len(s.Delays) > MaxListLen || len(s.Phases) > MaxListLen {
		return fmt.Errorf("scenario: enumeration lists are capped at %d entries", MaxListLen)
	}
	if len(s.LabelPairs) > 0 && s.LabelSample != nil {
		return fmt.Errorf("scenario: labelPairs and labelSample are mutually exclusive")
	}
	if s.LabelSample != nil {
		if s.LabelSample.Count < 1 || s.LabelSample.Count > MaxListLen {
			return fmt.Errorf("scenario: labelSample.count %d: want 1..%d", s.LabelSample.Count, MaxListLen)
		}
		if s.L < 2 {
			return fmt.Errorf("scenario: labelSample requires l >= 2")
		}
	}
	if len(s.StartPairs) > 0 && s.RingOffsets {
		return fmt.Errorf("scenario: startPairs and ringOffsets are mutually exclusive")
	}
	if len(s.Delays) > 0 && s.DelayPattern != "" {
		return fmt.Errorf("scenario: delays and delayPattern are mutually exclusive")
	}
	switch s.DelayPattern {
	case "", DelayBasic, DelaySpread, DelayRange, DelayDoubled:
	default:
		return fmt.Errorf("scenario: unknown delayPattern %q (want %s, %s, %s or %s)",
			s.DelayPattern, DelayBasic, DelaySpread, DelayRange, DelayDoubled)
	}
	if s.Model == "dynamic" {
		if len(s.Phases) == 0 {
			return fmt.Errorf("scenario: the dynamic model requires at least one phase")
		}
		switch s.Tier {
		case "", "auto", "generic":
		default:
			return fmt.Errorf("scenario: the dynamic model runs on the generic tier only (got tier %q)", s.Tier)
		}
		switch s.Symmetry {
		case "", "auto", "off":
		default:
			return fmt.Errorf("scenario: the dynamic model applies no symmetry reduction (got symmetry %q)", s.Symmetry)
		}
	} else if len(s.Phases) > 0 {
		return fmt.Errorf("scenario: phases apply only to the dynamic model")
	}
	return nil
}

// Compile validates the search and lowers it onto a model.Model:
// adversary.PaperModel for the paper model, model.Dynamic for the
// dynamic model. opts supplies the runner-side defaults the document
// does not pin.
func (s *Search) Compile(opts Options) (model.Model, error) {
	return s.compile(opts, true)
}

// EffectiveL is the label-space size Compile will resolve: l when
// set, otherwise the smallest label space containing every listed
// label pair. Front ends with a stricter L cap than the format's
// (the daemon's serve.MaxL) check this before compiling.
func (s *Search) EffectiveL() int {
	L := s.L
	if L == 0 {
		for _, lp := range s.LabelPairs {
			L = max(L, lp[0], lp[1])
		}
	}
	return L
}

func (s *Search) compile(opts Options, standalone bool) (model.Model, error) {
	if err := s.validate(standalone); err != nil {
		return nil, err
	}
	g, err := s.Graph.Build()
	if err != nil {
		return nil, err
	}
	ex, err := explore.ByName(s.Explorer, g, 16)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	algo, err := core.AlgorithmByName(s.Algorithm)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	L := s.EffectiveL()
	if L < 2 {
		return nil, fmt.Errorf("scenario: need l >= 2 (got %d)", L)
	}
	if L > MaxL {
		return nil, fmt.Errorf("scenario: l %d exceeds the maximum %d", L, MaxL)
	}
	labelPairs := s.LabelPairs
	if s.LabelSample != nil {
		labelPairs = SampledLabelPairs(L, s.LabelSample.Count, s.LabelSample.Seed)
	}
	for i, lp := range labelPairs {
		if lp[0] < 1 || lp[1] < 1 || lp[0] > L || lp[1] > L {
			return nil, fmt.Errorf("scenario: labelPairs[%d] = %v: labels must be in 1..%d", i, lp, L)
		}
	}
	startPairs := s.StartPairs
	if s.RingOffsets {
		startPairs = RingOffsets(g.N())
	}
	for i, sp := range startPairs {
		if sp[0] < 0 || sp[0] >= g.N() || sp[1] < 0 || sp[1] >= g.N() {
			return nil, fmt.Errorf("scenario: startPairs[%d] = %v: nodes must be in 0..%d", i, sp, g.N()-1)
		}
		if sp[0] == sp[1] {
			return nil, fmt.Errorf("scenario: startPairs[%d] = %v: the model requires distinct start nodes", i, sp)
		}
	}
	delays := s.Delays
	if s.DelayPattern != "" {
		e := ex.Duration(g)
		switch s.DelayPattern {
		case DelayBasic:
			delays = []int{0, 1, e}
		case DelaySpread:
			delays = DelaysFor(e)
		case DelayRange:
			if e+1 > MaxListLen {
				return nil, fmt.Errorf("scenario: delayPattern %q expands to %d delays, over the %d cap", DelayRange, e+1, MaxListLen)
			}
			delays = make([]int, 0, e+1)
			for d := 0; d <= e; d++ {
				delays = append(delays, d)
			}
		case DelayDoubled:
			delays = []int{0, 2 * e, 4 * e}
		}
	}
	for i, d := range delays {
		if d < 0 || d > MaxDelay {
			return nil, fmt.Errorf("scenario: delays[%d] = %d: want 0..%d", i, d, MaxDelay)
		}
	}
	// Normalize explicitly-empty axes to the engine's nil defaults.
	if len(labelPairs) == 0 {
		labelPairs = nil
	}
	if len(startPairs) == 0 {
		startPairs = nil
	}
	if len(delays) == 0 {
		delays = nil
	}

	params := core.Params{L: L}
	scheduleFor := func(l int) sim.Schedule { return algo.Schedule(l, params) }
	space := sim.SearchSpace{L: L, LabelPairs: labelPairs, StartPairs: startPairs, Delays: delays}

	if s.Model == "dynamic" {
		return model.Dynamic{
			Graph:       g,
			Explorer:    ex,
			ScheduleFor: scheduleFor,
			Space:       space,
			Phases:      s.Phases,
		}, nil
	}

	tier := opts.Tier
	if s.Tier != "" {
		if tier, err = adversary.ParseTier(s.Tier); err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
	}
	sym := opts.Symmetry
	if s.Symmetry != "" {
		if sym, err = adversary.ParseSymmetry(s.Symmetry); err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
	}
	return adversary.PaperModel{
		Spec:        adversary.Spec{Graph: g, Explorer: ex, ScheduleFor: scheduleFor},
		Space:       space,
		Tier:        tier,
		TableBudget: opts.TableBudget,
		Symmetry:    sym,
	}, nil
}

// CompileAll compiles every search of a file, in order.
func (f *File) CompileAll(opts Options) ([]model.Model, error) {
	models := make([]model.Model, 0, len(f.Searches))
	for i := range f.Searches {
		m, err := f.Searches[i].compile(opts, false)
		if err != nil {
			return nil, fmt.Errorf("scenario: searches[%d]: %w", i, err)
		}
		models = append(models, m)
	}
	return models, nil
}

package rendezvous_test

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"rendezvous"
	"rendezvous/internal/serve"
)

// TestFacadeEndToEnd exercises the public API exactly as the README's
// quickstart does, across algorithms and graph families.
func TestFacadeEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	graphs := map[string]*rendezvous.Graph{
		"ring":  rendezvous.OrientedRing(16),
		"tree":  rendezvous.RandomTree(10, rng),
		"torus": rendezvous.Torus(3, 4),
		"cube":  rendezvous.Hypercube(3),
	}
	params := rendezvous.Params{L: 16}
	algos := []rendezvous.Algorithm{
		rendezvous.Cheap{},
		rendezvous.Fast{},
		rendezvous.NewFastWithRelabeling(2),
	}
	for name, g := range graphs {
		ex := rendezvous.BestExplorer(g, 12)
		if err := rendezvous.VerifyExplorer(ex, g); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, algo := range algos {
			res, err := rendezvous.Run(rendezvous.Scenario{
				Graph:    g,
				Explorer: ex,
				A:        rendezvous.AgentSpec{Label: 4, Start: 0, Wake: 1, Schedule: algo.Schedule(4, params)},
				B:        rendezvous.AgentSpec{Label: 11, Start: g.N() - 1, Wake: 3, Schedule: algo.Schedule(11, params)},
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, algo.Name(), err)
			}
			if !res.Met {
				t.Errorf("%s/%s: agents never met", name, algo.Name())
			}
			if res.Cost() != res.CostA+res.CostB {
				t.Errorf("%s/%s: cost accounting inconsistent", name, algo.Name())
			}
		}
	}
}

func TestFacadeBounds(t *testing.T) {
	if got, want := rendezvous.CheapCostBound(10), 30; got != want {
		t.Errorf("CheapCostBound(10) = %d, want %d", got, want)
	}
	if got, want := rendezvous.CheapWorstTimeBound(10, 8), 170; got != want {
		t.Errorf("CheapWorstTimeBound = %d, want %d", got, want)
	}
	if got, want := rendezvous.FastTimeBound(10, 16), (4*3+9)*10; got != want {
		t.Errorf("FastTimeBound = %d, want %d", got, want)
	}
	if got := rendezvous.FastCostBound(10, 16); got != 2*rendezvous.FastTimeBound(10, 16) {
		t.Errorf("FastCostBound = %d, want twice the time bound", got)
	}
	if got, want := rendezvous.RelabelingCostSafe(10, 2), 100; got != want {
		t.Errorf("RelabelingCostSafe = %d, want %d", got, want)
	}
}

func TestFacadeTheoremPipelines(t *testing.T) {
	rep1, err := rendezvous.RunTheorem1(12, 8, rendezvous.CheapSimultaneous{})
	if err != nil {
		t.Fatal(err)
	}
	if rep1.CertifiedTime <= 0 {
		t.Error("Theorem 1 pipeline certified nothing for CheapSimultaneous")
	}
	rep2, err := rendezvous.RunTheorem2(12, 8, rendezvous.Fast{})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.CertifiedCost <= 0 {
		t.Error("Theorem 2 pipeline certified nothing for Fast")
	}
}

func TestFacadeDoubling(t *testing.T) {
	res, err := rendezvous.RunDoubling(rendezvous.DoublingScenario{
		Graph:  rendezvous.OrientedRing(9),
		Family: rendezvous.ExplorationFamily{},
		Algo:   rendezvous.Fast{},
		Params: rendezvous.Params{L: 4},
		A:      rendezvous.AgentSpec{Label: 1, Start: 0, Wake: 1},
		B:      rendezvous.AgentSpec{Label: 3, Start: 4, Wake: 1},
		Levels: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met {
		t.Error("doubling wrapper failed to meet via the facade")
	}
}

// ExampleRun is the godoc quickstart: deterministic rendezvous of labels
// 5 and 12 on an oriented ring.
func ExampleRun() {
	g := rendezvous.OrientedRing(24)
	ex := rendezvous.RingSweepExplorer()
	algo := rendezvous.Fast{}
	params := rendezvous.Params{L: 64}

	res, err := rendezvous.Run(rendezvous.Scenario{
		Graph:    g,
		Explorer: ex,
		A:        rendezvous.AgentSpec{Label: 5, Start: 0, Wake: 1, Schedule: algo.Schedule(5, params)},
		B:        rendezvous.AgentSpec{Label: 12, Start: 13, Wake: 11, Schedule: algo.Schedule(12, params)},
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Met, res.Node, res.Time(), res.Cost())
	// Output: true 19 136 241
}

// ExampleCheapSimultaneous shows the cost-optimal simultaneous-start
// variant: only the smaller label ever moves, so the cost is at most E.
func ExampleCheapSimultaneous() {
	g := rendezvous.OrientedRing(12)
	ex := rendezvous.RingSweepExplorer()
	algo := rendezvous.CheapSimultaneous{}
	params := rendezvous.Params{L: 8}

	res, err := rendezvous.Run(rendezvous.Scenario{
		Graph:    g,
		Explorer: ex,
		A:        rendezvous.AgentSpec{Label: 2, Start: 0, Wake: 1, Schedule: algo.Schedule(2, params)},
		B:        rendezvous.AgentSpec{Label: 7, Start: 5, Wake: 1, Schedule: algo.Schedule(7, params)},
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("met=%v cost=%d (<= E=%d) movers: A=%d B=%d\n", res.Met, res.Cost(), ex.Duration(g), res.CostA, res.CostB)
	// Output: met=true cost=5 (<= E=11) movers: A=5 B=0
}

// ExampleNewFastWithRelabeling shows the separation algorithm: constant
// cost in units of E with sublinear time in L.
func ExampleNewFastWithRelabeling() {
	algo := rendezvous.NewFastWithRelabeling(2)
	params := rendezvous.Params{L: 100}
	sched := algo.Schedule(42, params)
	fmt.Println("segments:", len(sched), "explorations:", sched.Explorations())
	// Output: segments: 31 explorations: 5
}

// ExampleRunTheorem1 runs the Ω(EL) lower-bound construction against
// the cost-optimal algorithm.
func ExampleRunTheorem1() {
	rep, err := rendezvous.RunTheorem1(12, 8, rendezvous.CheapSimultaneous{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("phi=%d chain=%v certified=%d violations=%d\n",
		rep.Phi, rep.Path, rep.CertifiedTime, len(rep.Violations))
	// Output: phi=0 chain=[1 2 3 4] certified=9 violations=0
}

// TestFacadeSearch exercises the adversary-search surface: Search,
// SearchParallel and SearchWith agree bit-for-bit on rings (fast path),
// grids and random trees (generic path).
func TestFacadeSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cases := []struct {
		name string
		g    *rendezvous.Graph
	}{
		{"ring", rendezvous.OrientedRing(10)},
		{"grid", rendezvous.Grid(3, 3)},
		{"tree", rendezvous.RandomTree(8, rng)},
	}
	params := rendezvous.Params{L: 5}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ex := rendezvous.BestExplorer(tc.g, 0)
			scheduleFor := func(l int) rendezvous.Schedule {
				return rendezvous.Cheap{}.Schedule(l, params)
			}
			space := rendezvous.SearchSpace{L: 5, Delays: []int{0, 2}}
			serial, err := rendezvous.Search(tc.g, ex, scheduleFor, space)
			if err != nil {
				t.Fatal(err)
			}
			if !serial.AllMet || serial.Runs == 0 {
				t.Fatalf("implausible serial result: %+v", serial)
			}
			if serial.Time.Value <= 0 || serial.Cost.Value <= 0 {
				t.Fatalf("missing witnesses: %+v", serial)
			}
			parallel, err := rendezvous.SearchParallel(context.Background(), tc.g, ex, scheduleFor, space, 4)
			if err != nil {
				t.Fatal(err)
			}
			if parallel != serial {
				t.Errorf("SearchParallel diverged:\nserial:   %+v\nparallel: %+v", serial, parallel)
			}
			generic, err := rendezvous.SearchWith(tc.g, ex, scheduleFor, space,
				rendezvous.SearchOptions{Workers: 2, Tier: rendezvous.TierGeneric})
			if err != nil {
				t.Fatal(err)
			}
			if generic != serial {
				t.Errorf("SearchWith(TierGeneric) diverged:\nserial:  %+v\ngeneric: %+v", serial, generic)
			}
		})
	}
}

// TestFacadeSymmetry exercises the symmetry-reduction surface: on a
// vertex-transitive torus the default (automatic) reduction returns
// the identical worst case as the explicitly unreduced search while
// executing n times fewer configurations, and Automorphisms exposes
// the translation group the quotient is taken by.
func TestFacadeSymmetry(t *testing.T) {
	g := rendezvous.Torus(3, 3)
	ex := rendezvous.DFSExplorer()
	params := rendezvous.Params{L: 4}
	scheduleFor := func(l int) rendezvous.Schedule { return rendezvous.Fast{}.Schedule(l, params) }
	space := rendezvous.SearchSpace{L: 4, Delays: []int{0, 1}}

	auts := rendezvous.Automorphisms(g)
	if len(auts) != g.N() {
		t.Fatalf("torus automorphisms = %d, want n = %d translations", len(auts), g.N())
	}
	off, err := rendezvous.SearchWith(g, ex, scheduleFor, space,
		rendezvous.SearchOptions{Symmetry: rendezvous.SymmetryOff})
	if err != nil {
		t.Fatal(err)
	}
	auto, err := rendezvous.SearchWith(g, ex, scheduleFor, space, rendezvous.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if auto.Runs*g.N() != off.Runs {
		t.Errorf("Runs = %d, want %d/%d", auto.Runs, off.Runs, g.N())
	}
	auto.Runs = off.Runs
	if auto != off {
		t.Errorf("reduced search changed results:\noff:  %+v\nauto: %+v", off, auto)
	}
	if _, err := rendezvous.SearchWith(g, ex, scheduleFor,
		rendezvous.SearchSpace{L: 4, StartPairs: [][2]int{{2, 2}}},
		rendezvous.SearchOptions{}); err == nil {
		t.Error("equal start pair must be rejected")
	}
}

// TestFacadeMeetOracle exercises the meeting-table surface: the oracle
// replays a scenario bit-for-bit, and SearchWith is invariant under
// every forced tier.
func TestFacadeMeetOracle(t *testing.T) {
	g := rendezvous.Grid(3, 4)
	ex := rendezvous.DFSExplorer()
	oracle, err := rendezvous.NewMeetOracle(g, ex)
	if err != nil {
		t.Fatal(err)
	}
	params := rendezvous.Params{L: 6}
	algo := rendezvous.Fast{}
	sc := rendezvous.Scenario{
		Graph:    g,
		Explorer: ex,
		A:        rendezvous.AgentSpec{Label: 2, Start: 0, Wake: 1, Schedule: algo.Schedule(2, params)},
		B:        rendezvous.AgentSpec{Label: 5, Start: 11, Wake: 9, Schedule: algo.Schedule(5, params)},
	}
	want, err := rendezvous.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := oracle.Run(sc.A, sc.B, sc.Parachuted)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("oracle diverged from Run:\nsim:    %+v\noracle: %+v", want, got)
	}

	scheduleFor := func(l int) rendezvous.Schedule { return algo.Schedule(l, params) }
	space := rendezvous.SearchSpace{L: 4, Delays: []int{0, 1, ex.Duration(g)}}
	ref, err := rendezvous.SearchWith(g, ex, scheduleFor, space,
		rendezvous.SearchOptions{Tier: rendezvous.TierGeneric})
	if err != nil {
		t.Fatal(err)
	}
	for _, tier := range []rendezvous.SearchTier{rendezvous.TierTable, rendezvous.TierBatch, rendezvous.TierAuto} {
		got, err := rendezvous.SearchWith(g, ex, scheduleFor, space,
			rendezvous.SearchOptions{Tier: tier, Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		if got != ref {
			t.Errorf("tier %v diverged:\ngeneric: %+v\ngot:     %+v", tier, ref, got)
		}
	}
}

// TestFacadeRunOnRingMatchesRun: RunOnRing answers exactly what Run
// answers with the ring sweep, and refuses what Run refuses — a start
// outside [0, n) is out of range, never reduced mod n.
func TestFacadeRunOnRingMatchesRun(t *testing.T) {
	const n = 24
	params := rendezvous.Params{L: 8}
	sa, sb := rendezvous.Fast{}.Schedule(3, params), rendezvous.Fast{}.Schedule(6, params)
	for _, starts := range [][2]int{{0, 7}, {0, 31}, {-17, 0}, {0, n}, {5, 5}} {
		want, werr := rendezvous.Run(rendezvous.Scenario{
			Graph:    rendezvous.OrientedRing(n),
			Explorer: rendezvous.RingSweepExplorer(),
			A:        rendezvous.AgentSpec{Label: 3, Start: starts[0], Wake: 1, Schedule: sa},
			B:        rendezvous.AgentSpec{Label: 6, Start: starts[1], Wake: 1, Schedule: sb},
		})
		got, gerr := rendezvous.RunOnRing(n,
			rendezvous.RingAgent{Schedule: sa, Start: starts[0], Wake: 1},
			rendezvous.RingAgent{Schedule: sb, Start: starts[1], Wake: 1})
		if (gerr != nil) != (werr != nil) {
			t.Fatalf("starts %v: RunOnRing %+v err %v, Run %+v err %v", starts, got, gerr, want, werr)
		}
		if gerr == nil && (got.Met != want.Met || got.Round != want.Round || got.CostA != want.CostA || got.CostB != want.CostB) {
			t.Errorf("starts %v: RunOnRing %+v, Run %+v", starts, got, want)
		}
	}
}

// TestFacadePersistence exercises the store + checkpoint surface:
// SearchCached round-trips through a store (hit on the second call,
// canonically-equivalent spellings included), and SearchCheckpointed
// resumes to bit-for-bit the Search output.
func TestFacadePersistence(t *testing.T) {
	g := rendezvous.OrientedRing(8)
	ex := rendezvous.RingSweepExplorer()
	params := rendezvous.Params{L: 4}
	algo := rendezvous.Cheap{}
	scheduleFor := func(l int) rendezvous.Schedule { return algo.Schedule(l, params) }
	space := rendezvous.SearchSpace{L: 4, Delays: []int{0, 1}}

	want, err := rendezvous.Search(g, ex, scheduleFor, space)
	if err != nil {
		t.Fatal(err)
	}

	store, err := rendezvous.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	got, cached, err := rendezvous.SearchCached(store, g, ex, scheduleFor, space, rendezvous.SearchOptions{})
	if err != nil || cached {
		t.Fatalf("cold SearchCached: cached=%v err=%v", cached, err)
	}
	if got != want {
		t.Errorf("cold result diverged: %+v != %+v", got, want)
	}
	got, cached, err = rendezvous.SearchCached(store, g, ex, scheduleFor, space, rendezvous.SearchOptions{})
	if err != nil || !cached {
		t.Fatalf("warm SearchCached: cached=%v err=%v", cached, err)
	}
	if got != want {
		t.Errorf("warm result diverged: %+v != %+v", got, want)
	}

	// Canonicalization: an equivalent explicit spelling of the same
	// space produces the same fingerprint, hence a hit.
	explicit := rendezvous.SearchSpace{Delays: []int{0, 1}}
	explicit.LabelPairs = [][2]int{}
	for a := 1; a <= 4; a++ {
		for b := 1; b <= 4; b++ {
			if a != b {
				explicit.LabelPairs = append(explicit.LabelPairs, [2]int{a, b})
			}
		}
	}
	fp1, err := rendezvous.SearchFingerprint(g, ex, scheduleFor, space, rendezvous.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := rendezvous.SearchFingerprint(g, ex, scheduleFor, explicit, rendezvous.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fp1 != fp2 {
		t.Errorf("equivalent spellings fingerprinted differently:\n%s\n%s", fp1, fp2)
	}

	// Checkpointed search with progress, no file: same output.
	events := 0
	got, err = rendezvous.SearchCheckpointed(g, ex, scheduleFor, space, rendezvous.SearchOptions{Workers: 2},
		rendezvous.CheckpointConfig{Progress: func(completed, total int) { events++ }})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("SearchCheckpointed diverged: %+v != %+v", got, want)
	}
	if events == 0 {
		t.Error("no progress events reported")
	}
}

// TestFacadeDistributed runs SearchDistributed against two in-process
// worker daemons and checks the merged result is bit-for-bit equal to
// the local Search of the same space — with a mid-search worker kill
// requeueing shards onto the survivor.
func TestFacadeDistributed(t *testing.T) {
	newWorkerDaemon := func() *httptest.Server {
		srv, err := serve.New(serve.Config{MaxConcurrent: 2, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		return ts
	}

	// The local reference: the same search through the Spec-based API.
	g := rendezvous.OrientedRing(8)
	params := rendezvous.Params{L: 4}
	scheduleFor := func(l int) rendezvous.Schedule { return rendezvous.Cheap{}.Schedule(l, params) }
	space := rendezvous.SearchSpace{L: 4, Delays: []int{0, 1}}
	want, err := rendezvous.Search(g, rendezvous.RingSweepExplorer(), scheduleFor, space)
	if err != nil {
		t.Fatal(err)
	}

	req := rendezvous.SearchRequest{
		Graph:     rendezvous.SearchGraphSpec{Family: "ring", N: 8},
		Explorer:  "ring-sweep",
		Algorithm: "cheap",
		L:         4,
		Delays:    []int{0, 1},
	}
	w1, w2 := newWorkerDaemon(), newWorkerDaemon()
	var lastCompleted, total int
	got, err := rendezvous.SearchDistributed(context.Background(), req, rendezvous.DistributedConfig{
		Peers:  []string{w1.URL, w2.URL},
		Shards: 8,
		Progress: func(c, tot int) {
			lastCompleted, total = c, tot
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("SearchDistributed %+v != Search %+v", got, want)
	}
	if lastCompleted != 8 || total != 8 {
		t.Errorf("final progress %d/%d, want 8/8", lastCompleted, total)
	}

	// Kill one worker mid-search: the shards it held requeue onto the
	// survivor and the merge is unchanged.
	w3 := newWorkerDaemon()
	var served atomic.Int32
	var dead atomic.Bool
	inner := newWorkerDaemon()
	dying := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if (r.URL.Path == "/shard" && served.Add(1) > 1) || dead.Load() {
			dead.Store(true)
			if hj, ok := w.(http.Hijacker); ok {
				if conn, _, err := hj.Hijack(); err == nil {
					conn.Close()
					return
				}
			}
			panic("hijack failed")
		}
		resp, err := http.Post(inner.URL+r.URL.Path, "application/json", r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
	}))
	t.Cleanup(dying.Close)
	got, err = rendezvous.SearchDistributed(context.Background(), req, rendezvous.DistributedConfig{
		Peers:         []string{w3.URL, dying.URL},
		Shards:        8,
		ShardTimeout:  30 * time.Second,
		ShardAttempts: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("SearchDistributed with worker kill %+v != Search %+v", got, want)
	}

	// No usable peers: a loud error, never a partial result.
	if _, err := rendezvous.SearchDistributed(context.Background(), req, rendezvous.DistributedConfig{}); err == nil {
		t.Error("no peers: want error")
	}
}

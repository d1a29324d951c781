package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rendezvous/internal/adversary"
	"rendezvous/internal/core"
	"rendezvous/internal/explore"
	"rendezvous/internal/graph"
	"rendezvous/internal/model"
	"rendezvous/internal/resultstore"
	"rendezvous/internal/sim"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Store: store, MaxConcurrent: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postSearch(t *testing.T, url, body string) (int, Response) {
	t.Helper()
	resp, err := http.Post(url+"/search", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, out
}

// compileRequest lowers a request onto its model exactly as /search
// does.
func compileRequest(t testing.TB, req Request) model.Model {
	t.Helper()
	sc, err := req.search()
	if err != nil {
		t.Fatal(err)
	}
	m, err := compileSearch(sc)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

const ringRequest = `{"graph":{"family":"ring","n":6},"explorer":"ring-sweep","algorithm":"cheap","L":3,"delays":[0,1]}`

// ringWant computes the expected engine answer for ringRequest.
func ringWant(t *testing.T) sim.WorstCase {
	t.Helper()
	params := core.Params{L: 3}
	wc, err := adversary.SearchModel(adversary.PaperModel{
		Spec: adversary.Spec{
			Graph:       graph.OrientedRing(6),
			Explorer:    explore.OrientedRingSweep{},
			ScheduleFor: func(l int) sim.Schedule { return core.Cheap{}.Schedule(l, params) },
		},
		Space: sim.SearchSpace{L: 3, Delays: []int{0, 1}},
	}, adversary.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return wc
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: %d, want 200", resp.StatusCode)
	}
}

func TestSearchColdThenCached(t *testing.T) {
	_, ts := newTestServer(t)
	want := ringWant(t)

	status, cold := postSearch(t, ts.URL, ringRequest)
	if status != http.StatusOK || cold.Error != "" {
		t.Fatalf("cold search: %d %q", status, cold.Error)
	}
	if cold.Cached {
		t.Error("cold search reported cached")
	}
	if cold.Result == nil || *cold.Result != want {
		t.Errorf("cold result diverged: %+v, want %+v", cold.Result, want)
	}

	status, warm := postSearch(t, ts.URL, ringRequest)
	if status != http.StatusOK || !warm.Cached {
		t.Fatalf("repeat search: status %d cached %v, want a cache hit", status, warm.Cached)
	}
	if warm.Result == nil || *warm.Result != want {
		t.Errorf("warm result diverged: %+v", warm.Result)
	}
	if warm.Fingerprint != cold.Fingerprint {
		t.Errorf("fingerprint changed between identical requests: %s != %s", warm.Fingerprint, cold.Fingerprint)
	}

	// An equivalent spelling — explicit label pairs instead of L —
	// must hit the same cache entry (fingerprint canonicalization
	// through the HTTP layer).
	respelled := `{"graph":{"family":"ring","n":6},"explorer":"ring-sweep","algorithm":"cheap",
		"labelPairs":[[1,2],[1,3],[2,1],[2,3],[3,1],[3,2]],"delays":[0,1]}`
	status, again := postSearch(t, ts.URL, respelled)
	if status != http.StatusOK || !again.Cached {
		t.Fatalf("respelled search: status %d cached %v, want a cache hit", status, again.Cached)
	}
	if again.Fingerprint != cold.Fingerprint {
		t.Errorf("equivalent spelling fingerprinted differently: %s != %s", again.Fingerprint, cold.Fingerprint)
	}

	// The index lists exactly the one stored record.
	resp, err := http.Get(ts.URL + "/index")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var entries []resultstore.Entry
	if err := json.NewDecoder(resp.Body).Decode(&entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || !entries[0].Valid || entries[0].Fingerprint != cold.Fingerprint {
		t.Errorf("index: %+v, want one valid entry for %s", entries, cold.Fingerprint)
	}
}

// TestSearchErrorPaths covers the malformed and semantically invalid
// requests the daemon must reject with a 400 (and never a panic).
func TestSearchErrorPaths(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name string
		body string
	}{
		{"malformed-json", `{"graph":{"family":"ring"`},
		{"not-json", `this is not json`},
		{"unknown-field", `{"grahp":{"family":"ring","n":6},"algorithm":"cheap","L":3}`},
		{"missing-graph", `{"algorithm":"cheap","L":3}`},
		{"unknown-family", `{"graph":{"family":"dodecahedron","n":6},"algorithm":"cheap","L":3}`},
		{"ring-too-small", `{"graph":{"family":"ring","n":2},"algorithm":"cheap","L":3}`},
		{"torus-too-small", `{"graph":{"family":"torus","rows":2,"cols":2},"algorithm":"cheap","L":3}`},
		{"hypercube-too-big", `{"graph":{"family":"hypercube","n":21},"algorithm":"cheap","L":3}`},
		{"missing-algorithm", `{"graph":{"family":"ring","n":6},"L":3}`},
		{"unknown-algorithm", `{"graph":{"family":"ring","n":6},"algorithm":"magic","L":3}`},
		{"unknown-explorer", `{"graph":{"family":"ring","n":6},"algorithm":"cheap","explorer":"teleport","L":3}`},
		{"L-too-small", `{"graph":{"family":"ring","n":6},"algorithm":"cheap","L":1}`},
		{"label-out-of-range", `{"graph":{"family":"ring","n":6},"algorithm":"cheap","L":3,"labelPairs":[[1,9]]}`},
		{"equal-labels", `{"graph":{"family":"ring","n":6},"algorithm":"cheap","L":3,"labelPairs":[[2,2]]}`},
		{"equal-starts", `{"graph":{"family":"ring","n":6},"algorithm":"cheap","L":3,"startPairs":[[4,4]]}`},
		{"unknown-symmetry", `{"graph":{"family":"ring","n":6},"algorithm":"cheap","L":3,"symmetry":"sideways"}`},
		{"explorer-rejects-graph", `{"graph":{"family":"path","n":4},"algorithm":"cheap","explorer":"eulerian","L":3}`},
		{"start-out-of-range", `{"graph":{"family":"ring","n":6},"algorithm":"cheap","L":3,"startPairs":[[0,99]]}`},
		{"start-negative", `{"graph":{"family":"ring","n":6},"algorithm":"cheap","L":3,"startPairs":[[-1,2]]}`},
		{"negative-delay", `{"graph":{"family":"ring","n":6},"algorithm":"cheap","L":3,"delays":[-1]}`},
		{"graph-too-big", `{"graph":{"family":"complete","n":200000},"algorithm":"cheap","L":3}`},
		{"grid-too-big", `{"graph":{"family":"grid","rows":1000,"cols":1000},"algorithm":"cheap","L":3}`},
		{"grid-overflow", `{"graph":{"family":"grid","rows":4611686018427387905,"cols":4},"algorithm":"cheap","L":3}`},
		{"hypercube-too-big-for-serving", `{"graph":{"family":"hypercube","n":15},"algorithm":"cheap","L":3}`},
		{"L-too-big", `{"graph":{"family":"ring","n":6},"algorithm":"cheap","L":100000}`},
		{"delay-too-big", `{"graph":{"family":"ring","n":6},"algorithm":"cheap","L":3,"delays":[1000000000000000]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, out := postSearch(t, ts.URL, tc.body)
			if status != http.StatusBadRequest {
				t.Errorf("status %d, want 400 (error %q)", status, out.Error)
			}
			if out.Error == "" {
				t.Error("error body is empty")
			}
		})
	}

	t.Run("explicit-empty-lists-mean-default", func(t *testing.T) {
		// JSON [] must behave like an omitted field (exhaustive
		// default), not a zero-execution sweep cached forever.
		status, out := postSearch(t, ts.URL,
			`{"graph":{"family":"ring","n":6},"explorer":"ring-sweep","algorithm":"cheap","L":3,"labelPairs":[],"startPairs":[],"delays":[]}`)
		if status != http.StatusOK || out.Result == nil {
			t.Fatalf("status %d error %q", status, out.Error)
		}
		if out.Result.Runs == 0 {
			t.Error("explicit empty lists produced a zero-execution sweep")
		}
	})

	t.Run("list-too-long", func(t *testing.T) {
		var sb strings.Builder
		sb.WriteString(`{"graph":{"family":"ring","n":6},"algorithm":"cheap","L":3,"delays":[`)
		for i := 0; i <= MaxListLen; i++ {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteByte('1')
		}
		sb.WriteString(`]}`)
		status, out := postSearch(t, ts.URL, sb.String())
		if status != http.StatusBadRequest || !strings.Contains(out.Error, "capped") {
			t.Errorf("status %d error %q, want 400 mentioning the cap", status, out.Error)
		}
	})

	t.Run("body-too-big", func(t *testing.T) {
		// Pad a valid request past MaxBodyBytes with whitespace; the
		// decoder must die at the byte limit, not allocate the document.
		body := strings.Repeat(" ", MaxBodyBytes+1) + ringRequest
		status, out := postSearch(t, ts.URL, body)
		if status != http.StatusBadRequest || out.Error == "" {
			t.Errorf("status %d error %q, want 400", status, out.Error)
		}
	})

	t.Run("get-method", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/search")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET /search: %d, want 405", resp.StatusCode)
		}
	})
}

// TestSingleFlight pins the deduplication contract: N concurrent
// identical cold requests invoke the engine exactly once, and every
// request receives the result.
func TestSingleFlight(t *testing.T) {
	srv, ts := newTestServer(t)
	const clients = 5
	var (
		invocations atomic.Int32
		started     = make(chan struct{})
		release     = make(chan struct{})
	)
	want := ringWant(t)
	srv.search = func(ctx context.Context, m model.Model, opts adversary.Options, progress func(int, int)) (sim.WorstCase, error) {
		if invocations.Add(1) == 1 {
			close(started)
		}
		<-release
		return want, nil
	}
	releaseEngine := sync.OnceFunc(func() { close(release) })
	// A failed wait below must not leave ts.Close waiting on the engine.
	t.Cleanup(releaseEngine)

	var wg sync.WaitGroup
	responses := make([]Response, clients)
	statuses := make([]int, clients)
	errs := make([]error, clients)
	wg.Add(clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/search", "application/json", strings.NewReader(ringRequest))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			statuses[i] = resp.StatusCode
			errs[i] = json.NewDecoder(resp.Body).Decode(&responses[i])
		}(i)
	}

	// Release the engine only once every request has joined its
	// flight. A straggler arriving after the release would find the
	// store filled: the engine would still run once, but that response
	// would not be shared.
	<-started
	waitFor(t, func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		for _, f := range srv.inflight {
			if f.refs == clients {
				return true
			}
		}
		return false
	})
	releaseEngine()
	wg.Wait()

	if got := invocations.Load(); got != 1 {
		t.Errorf("engine invoked %d times for %d concurrent identical requests, want exactly 1", got, clients)
	}
	shared := 0
	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if statuses[i] != http.StatusOK {
			t.Errorf("client %d: status %d", i, statuses[i])
		}
		if responses[i].Result == nil || *responses[i].Result != want {
			t.Errorf("client %d: result %+v", i, responses[i].Result)
		}
		if responses[i].Shared {
			shared++
		}
	}
	if shared != clients-1 {
		t.Errorf("%d clients reported shared, want %d", shared, clients-1)
	}
}

// TestCancelMidSearch pins per-request cancellation: when the only
// client waiting on a search disconnects, the engine's context is
// cancelled, and a later identical request starts a fresh engine run.
func TestCancelMidSearch(t *testing.T) {
	srv, ts := newTestServer(t)
	var (
		invocations atomic.Int32
		started     = make(chan struct{}, 2)
		engineDone  = make(chan error, 2)
	)
	want := ringWant(t)
	srv.search = func(ctx context.Context, m model.Model, opts adversary.Options, progress func(int, int)) (sim.WorstCase, error) {
		n := invocations.Add(1)
		started <- struct{}{}
		if n == 1 {
			// First run: block until cancelled by the departing client.
			<-ctx.Done()
			engineDone <- ctx.Err()
			return sim.WorstCase{}, ctx.Err()
		}
		return want, nil
	}

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/search", strings.NewReader(ringRequest))
	if err != nil {
		t.Fatal(err)
	}
	clientErr := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		clientErr <- err
	}()

	<-started // the engine is running
	cancel()  // the client disconnects
	if err := <-clientErr; err == nil {
		t.Error("cancelled client request succeeded; want an error")
	}
	select {
	case err := <-engineDone:
		if err != context.Canceled {
			t.Errorf("engine context: %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("engine context was never cancelled after the client left")
	}

	// The abandoned flight must be unpublished: a new identical
	// request runs the engine afresh and succeeds.
	status, out := postSearch(t, ts.URL, ringRequest)
	if status != http.StatusOK || out.Error != "" {
		t.Fatalf("post-cancel search: %d %q", status, out.Error)
	}
	if out.Cached {
		t.Error("post-cancel search was served from the store; the cancelled run must not have been stored")
	}
	if out.Result == nil || *out.Result != want {
		t.Errorf("post-cancel result: %+v", out.Result)
	}
	if got := invocations.Load(); got != 2 {
		t.Errorf("engine invoked %d times, want 2 (one cancelled, one fresh)", got)
	}
}

// TestEnginePanicAnswers500: a panic in the engine fails its flight
// with a 500 naming the panic — the flight runs on its own goroutine,
// out of the recovery middleware's reach — and releases its engine
// slot, so the daemon serves the next request.
func TestEnginePanicAnswers500(t *testing.T) {
	srv, ts := newTestServer(t)
	want := ringWant(t)
	var calls atomic.Int32
	srv.search = func(ctx context.Context, m model.Model, opts adversary.Options, progress func(int, int)) (sim.WorstCase, error) {
		if calls.Add(1) == 1 {
			panic("engine exploded")
		}
		return want, nil
	}

	status, out := postSearch(t, ts.URL, ringRequest)
	if status != http.StatusInternalServerError || !strings.Contains(out.Error, "engine exploded") {
		t.Fatalf("panicking engine: status %d error %q, want a 500 naming the panic", status, out.Error)
	}
	if inUse := srv.Admission().Stats().InUse; inUse != 0 {
		t.Errorf("%d engine slots still held after the panic, want 0", inUse)
	}
	status, out = postSearch(t, ts.URL, ringRequest)
	if status != http.StatusOK || out.Result == nil || *out.Result != want {
		t.Errorf("request after the panic: status %d result %+v error %q, want %+v", status, out.Result, out.Error, want)
	}
}

// panicSweep is a model whose shard sweeps all panic.
type panicSweep struct{ model.Model }

func (m panicSweep) Compile() (*model.Compiled, error) {
	c, err := m.Model.Compile()
	if err != nil {
		return nil, err
	}
	c.Sweep = func(context.Context, [][2]int) (sim.WorstCase, error) { panic("sweep exploded") }
	return c, nil
}

// TestShardPanicAnswers500: a panic inside a shard sweep — which the
// engine runs on its own worker goroutines, beyond the flight's
// recover — fails the flight with a 500 naming the panic, releases the
// engine slot, and leaves the daemon serving the next request.
func TestShardPanicAnswers500(t *testing.T) {
	srv, ts := newTestServer(t)
	want := ringWant(t)
	var calls atomic.Int32
	srv.search = func(ctx context.Context, m model.Model, opts adversary.Options, progress func(int, int)) (sim.WorstCase, error) {
		if calls.Add(1) == 1 {
			m = panicSweep{m}
		}
		return engineSearch(ctx, m, opts, progress)
	}

	status, out := postSearch(t, ts.URL, ringRequest)
	if status != http.StatusInternalServerError || !strings.Contains(out.Error, "sweep exploded") {
		t.Fatalf("panicking sweep: status %d error %q, want a 500 naming the panic", status, out.Error)
	}
	if inUse := srv.Admission().Stats().InUse; inUse != 0 {
		t.Errorf("%d engine slots still held after the panic, want 0", inUse)
	}
	status, out = postSearch(t, ts.URL, ringRequest)
	if status != http.StatusOK || out.Result == nil || *out.Result != want {
		t.Errorf("request after the panic: status %d result %+v error %q, want %+v", status, out.Result, out.Error, want)
	}
}

// TestStreamProgress checks the NDJSON streaming mode: a cold search
// emits at least one progress event and ends with a result event; a
// repeat emits a single cached result event.
func TestStreamProgress(t *testing.T) {
	_, ts := newTestServer(t)
	want := ringWant(t)
	streamReq := `{"graph":{"family":"ring","n":6},"explorer":"ring-sweep","algorithm":"cheap","L":3,"delays":[0,1],"stream":true}`

	readEvents := func() []StreamEvent {
		resp, err := http.Post(ts.URL+"/search", "application/json", strings.NewReader(streamReq))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Errorf("Content-Type %q, want application/x-ndjson", ct)
		}
		var events []StreamEvent
		scanner := bufio.NewScanner(resp.Body)
		for scanner.Scan() {
			if len(strings.TrimSpace(scanner.Text())) == 0 {
				continue
			}
			var ev StreamEvent
			if err := json.Unmarshal(scanner.Bytes(), &ev); err != nil {
				t.Fatalf("bad stream line %q: %v", scanner.Text(), err)
			}
			events = append(events, ev)
		}
		return events
	}

	cold := readEvents()
	if len(cold) < 2 {
		t.Fatalf("cold stream: %d events, want >= 2 (progress + result)", len(cold))
	}
	for _, ev := range cold[:len(cold)-1] {
		if ev.Type != "progress" {
			t.Errorf("intermediate event type %q, want progress", ev.Type)
		}
	}
	last := cold[len(cold)-1]
	if last.Type != "result" || last.Cached || last.Result == nil || *last.Result != want {
		t.Errorf("final cold event: %+v", last)
	}

	warm := readEvents()
	if len(warm) != 1 {
		t.Fatalf("warm stream: %d events, want exactly 1", len(warm))
	}
	if warm[0].Type != "result" || !warm[0].Cached || warm[0].Result == nil || *warm[0].Result != want {
		t.Errorf("warm event: %+v", warm[0])
	}
}

// TestNoStoreServer: a server without a store still serves searches
// (every request runs the engine) and an empty index.
func TestNoStoreServer(t *testing.T) {
	srv, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	want := ringWant(t)
	for i := 0; i < 2; i++ {
		status, out := postSearch(t, ts.URL, ringRequest)
		if status != http.StatusOK || out.Cached {
			t.Fatalf("run %d: status %d cached %v", i, status, out.Cached)
		}
		if out.Result == nil || *out.Result != want {
			t.Errorf("run %d: result %+v", i, out.Result)
		}
	}
	resp, err := http.Get(ts.URL + "/index")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var entries []resultstore.Entry
	if err := json.NewDecoder(resp.Body).Decode(&entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("storeless index: %+v, want empty", entries)
	}
}

// TestGraphSpecFamilies sanity-checks that every inline family
// compiles to the advertised graph.
func TestGraphSpecFamilies(t *testing.T) {
	cases := []struct {
		spec  GraphSpec
		wantN int
	}{
		{GraphSpec{Family: "ring", N: 8}, 8},
		{GraphSpec{Family: "path", N: 5}, 5},
		{GraphSpec{Family: "star", N: 6}, 6},
		{GraphSpec{Family: "complete", N: 5}, 5},
		{GraphSpec{Family: "circulant", N: 5}, 5},
		{GraphSpec{Family: "grid", Rows: 3, Cols: 4}, 12},
		{GraphSpec{Family: "torus", Rows: 3, Cols: 3}, 9},
		{GraphSpec{Family: "hypercube", N: 3}, 8},
	}
	for _, tc := range cases {
		t.Run(tc.spec.Family, func(t *testing.T) {
			g := compileRequest(t, Request{Graph: tc.spec, Algorithm: "cheap", L: 2}).(adversary.PaperModel).Spec.Graph
			if g.N() != tc.wantN {
				t.Errorf("N = %d, want %d", g.N(), tc.wantN)
			}
			if err := g.Validate(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestEngineSearchMatchesSearch: the production searchFunc must agree
// with the plain engine (it routes through SearchModelCheckpointed).
func TestEngineSearchMatchesSearch(t *testing.T) {
	want := ringWant(t)
	params := core.Params{L: 3}
	spec := adversary.Spec{
		Graph:       graph.OrientedRing(6),
		Explorer:    explore.OrientedRingSweep{},
		ScheduleFor: func(l int) sim.Schedule { return core.Cheap{}.Schedule(l, params) },
	}
	var events int
	m := adversary.PaperModel{Spec: spec, Space: sim.SearchSpace{L: 3, Delays: []int{0, 1}}}
	got, err := engineSearch(context.Background(), m,
		adversary.Options{Workers: 1}, func(completed, total int) { events++ })
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("engineSearch diverged: %+v != %+v", got, want)
	}
	if events == 0 {
		t.Error("engineSearch reported no progress events")
	}
}

// TestMethodNotAllowed: read-only endpoints answer GET only and the
// mutating ones POST only, mirroring each other — a POST /index (which
// looks like a mutation) must be a 405, not a happily served read.
func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		method, path, want string
	}{
		{http.MethodPost, "/healthz", "GET only"},
		{http.MethodPut, "/healthz", "GET only"},
		{http.MethodDelete, "/healthz", "GET only"},
		{http.MethodPost, "/index", "GET only"},
		{http.MethodPut, "/index", "GET only"},
		{http.MethodGet, "/search", "POST only"},
		{http.MethodGet, "/shard", "POST only"},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var out Response
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("%s %s: decoding body: %v", tc.method, tc.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 405", tc.method, tc.path, resp.StatusCode)
		}
		if !strings.Contains(out.Error, tc.want) {
			t.Errorf("%s %s: error %q, want %q", tc.method, tc.path, out.Error, tc.want)
		}
	}
	// The documented methods still work.
	for _, path := range []string{"/healthz", "/index"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d, want 200", path, resp.StatusCode)
		}
	}
}

// respondTo answers a request the way handleSearch answers one that
// joined flight f: wait for the flight, then write its outcome. A
// streamed request's stream is started first, as handleSearch does.
func respondTo(w *httptest.ResponseRecorder, r *http.Request, f *flight, stream bool) {
	if stream {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
	}
	if f.wait(w, r, stream) {
		answer(w, r, &Request{Stream: stream}, Response{Fingerprint: f.key}, f.wc, f.err)
	}
}

// TestDisconnectAfterFinishStillWrites pins the non-stream /search
// disconnect fix: when the flight has already finished and the
// client's context is cancelled, both select arms are ready and the
// pick is random — the completed result must still be written every
// time, not only when the select happens to favour f.done.
func TestDisconnectAfterFinishStillWrites(t *testing.T) {
	want := sim.WorstCase{Runs: 5, AllMet: true}
	f := &flight{key: "test-fp", done: make(chan struct{}), subs: map[chan StreamEvent]struct{}{}}
	f.wc = want
	f.finished = true
	close(f.done)

	for i := 0; i < 200; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // the client is already gone
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/search", strings.NewReader("{}")).WithContext(ctx)
		respondTo(rec, req, f, false)
		if rec.Body.Len() == 0 {
			t.Fatalf("iteration %d: empty body for a finished flight", i)
		}
		var out Response
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if out.Result == nil || *out.Result != want {
			t.Fatalf("iteration %d: result %+v, want %+v", i, out.Result, want)
		}
	}
}

// TestStreamDisconnectAfterFinishStillWrites is the streaming twin of
// TestDisconnectAfterFinishStillWrites: a finished flight must emit
// its final NDJSON result line even when the client's context is
// already cancelled when the stream loop's select runs.
func TestStreamDisconnectAfterFinishStillWrites(t *testing.T) {
	want := sim.WorstCase{Runs: 9, AllMet: true}
	f := &flight{key: "test-fp", done: make(chan struct{}), subs: map[chan StreamEvent]struct{}{}}
	f.wc = want
	f.finished = true
	close(f.done)

	for i := 0; i < 200; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/search", strings.NewReader("{}")).WithContext(ctx)
		respondTo(rec, req, f, true)
		var final *StreamEvent
		dec := json.NewDecoder(rec.Body)
		for dec.More() {
			var ev StreamEvent
			if err := dec.Decode(&ev); err != nil {
				t.Fatalf("iteration %d: %v", i, err)
			}
			if ev.Type == "result" || ev.Type == "error" {
				e := ev
				final = &e
			}
		}
		if final == nil || final.Type != "result" || final.Result == nil || *final.Result != want {
			t.Fatalf("iteration %d: stream ended without the final result (got %+v)", i, final)
		}
	}
}

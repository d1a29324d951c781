package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rendezvous/internal/adversary"
	"rendezvous/internal/resultstore"
	"rendezvous/internal/sim"
)

const testFP = "f1e2e3d4c5b6a7980011223344556677f1e2e3d4c5b6a7980011223344556677"

// scriptedResult is the deterministic per-shard answer the fake
// workers serve; distinct values per shard make a wrong or misplaced
// merge visible.
func scriptedResult(shard int) sim.WorstCase {
	return sim.WorstCase{
		Time:   sim.Witness{LabelA: 1, LabelB: 2, StartA: 0, StartB: 1, DelayB: shard, Value: 100 + shard},
		Cost:   sim.Witness{LabelA: 2, LabelB: 1, StartA: 1, StartB: 0, DelayB: shard, Value: 50 + (shard % 3)},
		Runs:   10 + shard,
		AllMet: true,
	}
}

// wantMerged is the reference merge of a scripted dispatch.
func wantMerged(shards int) sim.WorstCase {
	results := make([]sim.WorstCase, shards)
	for i := range results {
		results[i] = scriptedResult(i)
	}
	return adversary.MergeShards(results)
}

// fakeWorker is an in-process worker daemon serving scripted shard
// results, with injectable failure behaviour for the first N shard
// requests.
type fakeWorker struct {
	shardCalls atomic.Int32
	healthDown atomic.Bool
	// breakFirst injects a failure into the first breakFirst.Load()
	// shard requests (each request decrements it); inject performs the
	// failure.
	breakFirst atomic.Int32
	inject     func(w http.ResponseWriter, r *http.Request)
	// hold, when non-nil, delays every shard request until it is closed
	// or the request is cancelled (the dispatcher's per-shard deadline
	// bounds the wait, so a release that never comes fails the caller's
	// assertions rather than hanging the test).
	hold <-chan struct{}
	ts   *httptest.Server
}

func newFakeWorker(t *testing.T) *fakeWorker {
	t.Helper()
	fw := &fakeWorker{}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if fw.healthDown.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, `{"ok":true}`)
	})
	mux.HandleFunc("/shard", func(w http.ResponseWriter, r *http.Request) {
		fw.shardCalls.Add(1)
		if fw.hold != nil {
			select {
			case <-fw.hold:
			case <-r.Context().Done():
			}
		}
		var req ShardRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if fw.breakFirst.Add(-1) >= 0 {
			fw.inject(w, r)
			return
		}
		wc := scriptedResult(req.Shard)
		json.NewEncoder(w).Encode(ShardResponse{Fingerprint: req.Fingerprint, Shard: req.Shard, Shards: req.Shards, Result: &wc})
	})
	fw.ts = httptest.NewServer(mux)
	t.Cleanup(fw.ts.Close)
	return fw
}

func dispatcher(t *testing.T, cfg Config, peers ...*fakeWorker) *Dispatcher {
	t.Helper()
	for _, p := range peers {
		cfg.Peers = append(cfg.Peers, p.ts.URL)
	}
	if cfg.ProbeBackoff == 0 {
		cfg.ProbeBackoff = 5 * time.Millisecond
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDispatchMerges: two healthy workers, every shard dispatched
// exactly once overall, merged in shard order.
func TestDispatchMerges(t *testing.T) {
	a, b := newFakeWorker(t), newFakeWorker(t)
	d := dispatcher(t, Config{}, a, b)
	const shards = 9
	var last atomic.Int32
	wc, err := d.Search(context.Background(), json.RawMessage(`{}`), testFP, shards, func(completed, total int) {
		if total != shards {
			t.Errorf("progress total %d, want %d", total, shards)
		}
		last.Store(int32(completed))
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := wantMerged(shards); wc != want {
		t.Errorf("merged %+v, want %+v", wc, want)
	}
	if got := a.shardCalls.Load() + b.shardCalls.Load(); got != shards {
		t.Errorf("%d shard requests, want %d", got, shards)
	}
	if last.Load() != shards {
		t.Errorf("final progress %d, want %d", last.Load(), shards)
	}
}

// The three mandated failure modes: a worker returning corrupt or
// truncated shard JSON, a worker vanishing mid-shard (connection
// reset), and a slow worker exceeding the per-shard deadline. Each
// must end in a requeue — the shard re-dispatched and the merge still
// exact — never a wrong merge.
func TestFailureModesRequeue(t *testing.T) {
	goodShardResponse := func(shard, shards int) []byte {
		wc := scriptedResult(shard)
		data, _ := json.Marshal(ShardResponse{Fingerprint: testFP, Shard: shard, Shards: shards, Result: &wc})
		return data
	}
	const shards = 6
	cases := []struct {
		name   string
		inject func(w http.ResponseWriter, r *http.Request)
	}{
		{"corrupt-json", func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte(`{"fingerprint": %%% not json`))
		}},
		{"truncated-json", func(w http.ResponseWriter, r *http.Request) {
			// A well-formed response cut off mid-record.
			data := goodShardResponse(0, shards)
			w.Write(data[:len(data)/2])
		}},
		{"misaddressed-shard", func(w http.ResponseWriter, r *http.Request) {
			// Parses fine but belongs to another shard: must not merge.
			w.Write(goodShardResponse(shards-1, shards+1))
		}},
		{"connection-reset", func(w http.ResponseWriter, r *http.Request) {
			hj, ok := w.(http.Hijacker)
			if !ok {
				panic("test server does not support hijacking")
			}
			conn, _, err := hj.Hijack()
			if err != nil {
				panic(err)
			}
			conn.Close() // mid-request reset, no response bytes at all
		}},
		{"slow-worker", func(w http.ResponseWriter, r *http.Request) {
			select { // exceed the per-shard deadline without leaking on exit
			case <-r.Context().Done():
			case <-time.After(10 * time.Second):
			}
		}},
		{"transient-404", func(w http.ResponseWriter, r *http.Request) {
			// A restarting ingress 404ing one request must not retire
			// the peer (retirement needs consecutive protocol failures).
			http.NotFound(w, r)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			flaky, good := newFakeWorker(t), newFakeWorker(t)
			// good holds its shards until the injection has fired;
			// otherwise it could drain every shard before flaky takes
			// one, and no attempt would fail.
			injected := make(chan struct{})
			var once sync.Once
			flaky.inject = func(w http.ResponseWriter, r *http.Request) {
				once.Do(func() { close(injected) })
				tc.inject(w, r)
			}
			good.hold = injected
			flaky.breakFirst.Store(1) // fail exactly one shard attempt, then behave
			d := dispatcher(t, Config{ShardTimeout: 250 * time.Millisecond}, flaky, good)
			wc, err := d.Search(context.Background(), json.RawMessage(`{}`), testFP, shards, nil)
			if err != nil {
				t.Fatalf("Search: %v", err)
			}
			if want := wantMerged(shards); wc != want {
				t.Errorf("merged %+v, want %+v", wc, want)
			}
			// The failed attempt requeued its shard: total shard requests
			// exceed the shard count by exactly the injected failure.
			if got := flaky.shardCalls.Load() + good.shardCalls.Load(); got != shards+1 {
				t.Errorf("%d shard requests, want %d (shards) + 1 (requeued attempt)", got, shards)
			}
		})
	}
}

// TestWorkerVanishesForGood: a worker that dies mid-shard and stays
// dead (health probes fail too) stops consuming the queue; the
// survivor drains everything and the merge is still exact.
func TestWorkerVanishesForGood(t *testing.T) {
	dying, good := newFakeWorker(t), newFakeWorker(t)
	dying.inject = func(w http.ResponseWriter, r *http.Request) {
		dying.healthDown.Store(true) // from now on, probes fail
		hj, _ := w.(http.Hijacker)
		conn, _, err := hj.Hijack()
		if err != nil {
			panic(err)
		}
		conn.Close()
	}
	dying.breakFirst.Store(1 << 30) // dead forever
	const shards = 8
	d := dispatcher(t, Config{ShardTimeout: 250 * time.Millisecond}, dying, good)
	wc, err := d.Search(context.Background(), json.RawMessage(`{}`), testFP, shards, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := wantMerged(shards); wc != want {
		t.Errorf("merged %+v, want %+v", wc, want)
	}
	if calls := dying.shardCalls.Load(); calls != 1 {
		t.Errorf("dead worker served %d shard requests, want exactly 1 (then probes keep it idle)", calls)
	}
}

// TestExhaustedAttemptsFailLoudly: when every peer keeps corrupting a
// shard, the search errors out after MaxAttempts instead of merging
// anything partial.
func TestExhaustedAttemptsFailLoudly(t *testing.T) {
	bad := newFakeWorker(t)
	bad.inject = func(w http.ResponseWriter, r *http.Request) { w.Write([]byte("garbage")) }
	bad.breakFirst.Store(1 << 30)
	d := dispatcher(t, Config{MaxAttempts: 2}, bad)
	_, err := d.Search(context.Background(), json.RawMessage(`{}`), testFP, 3, nil)
	if err == nil {
		t.Fatal("want error after exhausted attempts")
	}
	if !strings.Contains(err.Error(), "after 2 attempts") {
		t.Errorf("error %q does not mention the attempt budget", err)
	}
}

// TestSearchRejectedFailsFast: a 400/409 answer condemns the search
// (every same-version peer would agree), so the dispatch fails on the
// first answer instead of burning the attempt budget.
func TestSearchRejectedFailsFast(t *testing.T) {
	bad := newFakeWorker(t)
	bad.inject = func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusConflict)
		json.NewEncoder(w).Encode(ShardResponse{Error: "fingerprint mismatch (version skew?)"})
	}
	bad.breakFirst.Store(1 << 30)
	d := dispatcher(t, Config{}, bad)
	_, err := d.Search(context.Background(), json.RawMessage(`{}`), testFP, 4, nil)
	if err == nil || !strings.Contains(err.Error(), "version skew") {
		t.Fatalf("want fast rejection error, got %v", err)
	}
	if calls := bad.shardCalls.Load(); calls != 1 {
		t.Errorf("%d shard requests before failing, want 1", calls)
	}
}

// TestPeerWithoutShardEndpointIsRetired: an old-version daemon that
// 404s /shard is retired from the pool without failing the search or
// charging shards attempts; with no usable peer at all, the search
// reports that instead of hanging.
func TestPeerWithoutShardEndpointIsRetired(t *testing.T) {
	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			fmt.Fprintln(w, `{"ok":true}`)
			return
		}
		http.NotFound(w, r)
	}))
	defer old.Close()
	good := newFakeWorker(t)
	d := dispatcher(t, Config{Peers: []string{old.URL}}, good)
	wc, err := d.Search(context.Background(), json.RawMessage(`{}`), testFP, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := wantMerged(5); wc != want {
		t.Errorf("merged %+v, want %+v", wc, want)
	}

	dOnlyOld, err := New(Config{Peers: []string{old.URL}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dOnlyOld.Search(context.Background(), json.RawMessage(`{}`), testFP, 5, nil); err == nil ||
		!strings.Contains(err.Error(), "no usable peers") {
		t.Errorf("old-only pool: want 'no usable peers' error, got %v", err)
	}
}

// TestShardStoreCache: cached shards are never dispatched; computed
// shards are written back so a rerun dispatches nothing.
func TestShardStoreCache(t *testing.T) {
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const shards = 6
	// Pre-seed half the shards.
	for i := 0; i < shards; i += 2 {
		if err := store.Put(adversary.ShardFingerprint(testFP, i, shards), scriptedResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	w := newFakeWorker(t)
	d := dispatcher(t, Config{Store: store}, w)
	wc, err := d.Search(context.Background(), json.RawMessage(`{}`), testFP, shards, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := wantMerged(shards); wc != want {
		t.Errorf("merged %+v, want %+v", wc, want)
	}
	if calls := w.shardCalls.Load(); calls != shards/2 {
		t.Errorf("worker served %d shards, want only the %d uncached ones", calls, shards/2)
	}

	// Rerun: everything restored, the worker untouched, progress
	// reported complete up front.
	var first atomic.Int32
	first.Store(-1)
	wc2, err := d.Search(context.Background(), json.RawMessage(`{}`), testFP, shards, func(completed, total int) {
		first.CompareAndSwap(-1, int32(completed))
	})
	if err != nil {
		t.Fatal(err)
	}
	if wc2 != wc {
		t.Errorf("rerun merged %+v, want %+v", wc2, wc)
	}
	if calls := w.shardCalls.Load(); calls != shards/2 {
		t.Errorf("rerun dispatched shards: %d calls total, want still %d", calls, shards/2)
	}
	if first.Load() != shards {
		t.Errorf("rerun first progress %d, want %d (all restored up front)", first.Load(), shards)
	}
}

// TestCancellation: a cancelled context aborts the dispatch with the
// context's error.
func TestCancellation(t *testing.T) {
	slow := newFakeWorker(t)
	slow.inject = func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-time.After(10 * time.Second):
		}
	}
	slow.breakFirst.Store(1 << 30)
	d := dispatcher(t, Config{ShardTimeout: time.Minute}, slow)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	if _, err := d.Search(ctx, json.RawMessage(`{}`), testFP, 3, nil); err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestConfigValidation: empty and malformed peer lists are rejected.
func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("no peers: want error")
	}
	for _, peer := range []string{"", "ftp://x", "host:8377", "http://"} {
		if _, err := New(Config{Peers: []string{peer}}); err == nil {
			t.Errorf("peer %q: want error", peer)
		}
	}
	if _, err := New(Config{Peers: []string{"http://a:1", "http://a:1/"}}); err == nil {
		t.Error("duplicate peer: want error")
	}
	d, err := New(Config{Peers: []string{" http://a:1/ "}})
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Peers(); len(got) != 1 || got[0] != "http://a:1" {
		t.Errorf("normalized peers = %v", got)
	}
}

// TestPerPeerInflight: with PerPeerInflight > 1, a single peer holds
// several shards concurrently (keeping a multi-core worker's engine
// pool busy), and the merge is unchanged.
func TestPerPeerInflight(t *testing.T) {
	var cur, peak atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, `{"ok":true}`)
	})
	mux.HandleFunc("/shard", func(w http.ResponseWriter, r *http.Request) {
		c := cur.Add(1)
		defer cur.Add(-1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		var req ShardRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		time.Sleep(20 * time.Millisecond) // hold the slot so pullers overlap
		wc := scriptedResult(req.Shard)
		json.NewEncoder(w).Encode(ShardResponse{Fingerprint: req.Fingerprint, Shard: req.Shard, Shards: req.Shards, Result: &wc})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	d, err := New(Config{Peers: []string{ts.URL}, PerPeerInflight: 4})
	if err != nil {
		t.Fatal(err)
	}
	const shards = 12
	wc, err := d.Search(context.Background(), json.RawMessage(`{}`), testFP, shards, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := wantMerged(shards); wc != want {
		t.Errorf("merged %+v, want %+v", wc, want)
	}
	if peak.Load() < 2 {
		t.Errorf("peak in-flight on the peer = %d, want >= 2 with PerPeerInflight 4", peak.Load())
	}
}

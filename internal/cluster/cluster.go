// Package cluster scales the adversary search out across rdvd worker
// daemons. A coordinator compiles a search into the engine's fixed
// shard decomposition (internal/adversary.Plan — the same
// worker-count-independent plan checkpoint/resume uses), fans the
// shards out to peers over POST /shard, and folds the per-shard
// results in shard order with the engine's strictly-greater merge, so
// the distributed output — values, witnesses, Runs, AllMet — is
// bit-for-bit identical to a single-node Search.
//
// The dispatcher never trusts a peer with correctness-critical state:
// the wire request carries the coordinator's fingerprint and shard
// count, and a worker that disagrees (version skew) answers with a
// conflict instead of silently merging a different search. Peer
// failures — connection errors, timeouts, corrupt response bodies —
// requeue the shard for another (or a recovered) peer; a failing peer
// must pass a fresh /healthz probe before it takes more work, so a
// dead daemon stops consuming the queue while the survivors drain it.
// Each shard is bounded to MaxAttempts total attempts, so a search can
// fail loudly but can never merge a wrong or partial result.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rendezvous/internal/adversary"
	"rendezvous/internal/resultstore"
	"rendezvous/internal/sim"
	"rendezvous/internal/trace"
)

// ShardRequest is the body of POST /shard: one shard of a search,
// addressed within the fixed decomposition both sides derive
// independently.
type ShardRequest struct {
	// Search is the search as a standalone scenario document
	// (internal/scenario's Search JSON, the form every /search body
	// lowers onto). The dispatcher treats it as opaque; the worker
	// parses and recompiles it with the same validation and caps as
	// /search.
	Search json.RawMessage `json:"search"`
	// Fingerprint is the coordinator's canonical content address of the
	// compiled search. The worker recomputes it and must agree; a
	// mismatch (coordinator/worker version skew) is a conflict, never a
	// silent merge of two different searches.
	Fingerprint string `json:"fingerprint"`
	// Shard and Shards address one shard of the fixed decomposition.
	// The worker re-derives the shard count from the search and must
	// agree with Shards for the same reason it must agree on the
	// fingerprint.
	Shard  int `json:"shard"`
	Shards int `json:"shards"`
}

// ShardResponse is the worker's answer to POST /shard. The echoed
// addressing fields let the dispatcher verify the answer belongs to
// the shard it asked for.
type ShardResponse struct {
	Fingerprint string `json:"fingerprint"`
	Shard       int    `json:"shard"`
	Shards      int    `json:"shards"`
	// Cached reports the shard was answered from the worker's store
	// without running the engine.
	Cached bool `json:"cached,omitempty"`
	// Result is the shard's partial WorstCase (absent on error).
	Result *sim.WorstCase `json:"result,omitempty"`
	// Error is the failure description (absent on success).
	Error string `json:"error,omitempty"`
	// Spans is the worker's span tree for this shard (present only when
	// the coordinator propagated a traceparent and the worker traces):
	// the worker's half of the distributed trace, which the dispatcher
	// adopts into the coordinator's trace for reassembly. Observability
	// payload only — never consulted for correctness.
	Spans []trace.SpanRecord `json:"spans,omitempty"`
}

// Defaults for Config's zero values.
const (
	// DefaultShardTimeout bounds one shard attempt on one peer. A peer
	// that cannot finish a shard within it is treated as failed and the
	// shard requeued.
	DefaultShardTimeout = 2 * time.Minute
	// DefaultMaxAttempts is how many total attempts (across peers) a
	// shard gets before the whole search fails.
	DefaultMaxAttempts = 3
	// DefaultProbeBackoff is how long a failing peer waits between
	// /healthz probes before it may take work again.
	DefaultProbeBackoff = 500 * time.Millisecond
	// maxResponseBytes caps how much of a shard response body the
	// dispatcher will read: a misbehaving peer must not be able to
	// allocate the coordinator to death.
	maxResponseBytes = 8 << 20
)

// Config tunes a Dispatcher.
type Config struct {
	// Peers lists worker daemon base URLs (e.g. http://hostA:8377).
	// At least one is required.
	Peers []string
	// Client issues the HTTP requests. Nil selects a default client
	// with no global timeout (per-attempt deadlines come from
	// ShardTimeout).
	Client *http.Client
	// ShardTimeout bounds each shard attempt on each peer
	// (0 = DefaultShardTimeout; negative disables the bound).
	ShardTimeout time.Duration
	// MaxAttempts bounds the total attempts per shard across all peers
	// (0 = DefaultMaxAttempts).
	MaxAttempts int
	// ProbeBackoff is the wait between /healthz probes of a failing
	// peer (0 = DefaultProbeBackoff).
	ProbeBackoff time.Duration
	// PerPeerInflight is how many shards are kept in flight on each
	// peer at once (0 = 1). Raise it toward a worker's -max-concurrent
	// so a multi-core worker daemon's engine pool is kept busy instead
	// of serving one shard at a time.
	PerPeerInflight int
	// Store, when non-nil, caches shard results under their
	// adversary.ShardFingerprint: restored shards are not dispatched at
	// all, and computed shards are written back best-effort.
	Store *resultstore.Store
	// AuthToken, when non-empty, is presented as a bearer token on
	// every shard request and health probe — required when the worker
	// daemons run with -auth-tokens. The coordinator's tenant identity
	// on the workers (and so its fair share of their engine pools) is
	// whatever this token is granted there.
	AuthToken string
}

// Dispatcher fans searches out across a fixed peer pool. It is safe
// for concurrent use; each Search call runs its own dispatch loop.
type Dispatcher struct {
	peers        []string
	client       *http.Client
	shardTimeout time.Duration
	maxAttempts  int
	probeBackoff time.Duration
	inflight     int
	store        *resultstore.Store
	authToken    string

	// retries counts shard attempts that failed and were requeued,
	// across every Search this dispatcher has run (metrics feed).
	retries atomic.Int64
}

// Retries reports how many shard attempts have failed and been
// requeued over the dispatcher's lifetime.
func (d *Dispatcher) Retries() int64 { return d.retries.Load() }

// New validates the peer list and returns a dispatcher over it.
func New(cfg Config) (*Dispatcher, error) {
	if len(cfg.Peers) == 0 {
		return nil, errors.New("cluster: no peers configured")
	}
	peers := make([]string, 0, len(cfg.Peers))
	seen := make(map[string]bool)
	for _, p := range cfg.Peers {
		p = strings.TrimRight(strings.TrimSpace(p), "/")
		u, err := url.Parse(p)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("cluster: peer %q: want an http(s) base URL", p)
		}
		if seen[p] {
			return nil, fmt.Errorf("cluster: peer %q listed twice", p)
		}
		seen[p] = true
		peers = append(peers, p)
	}
	d := &Dispatcher{
		peers:        peers,
		client:       cfg.Client,
		shardTimeout: cfg.ShardTimeout,
		maxAttempts:  cfg.MaxAttempts,
		probeBackoff: cfg.ProbeBackoff,
		inflight:     cfg.PerPeerInflight,
		store:        cfg.Store,
		authToken:    cfg.AuthToken,
	}
	if d.client == nil {
		d.client = &http.Client{}
	}
	if d.shardTimeout == 0 {
		d.shardTimeout = DefaultShardTimeout
	}
	if d.maxAttempts <= 0 {
		d.maxAttempts = DefaultMaxAttempts
	}
	if d.probeBackoff <= 0 {
		d.probeBackoff = DefaultProbeBackoff
	}
	if d.inflight < 1 {
		d.inflight = 1
	}
	return d, nil
}

// Peers returns the dispatcher's peer base URLs.
func (d *Dispatcher) Peers() []string {
	return append([]string(nil), d.peers...)
}

// Probe checks every peer's /healthz and returns the failures keyed by
// peer URL (an empty map means every peer is healthy).
func (d *Dispatcher) Probe(ctx context.Context) map[string]error {
	failures := make(map[string]error)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, p := range d.peers {
		wg.Add(1)
		go func(peer string) {
			defer wg.Done()
			if err := d.probeOne(ctx, peer); err != nil {
				mu.Lock()
				failures[peer] = err
				mu.Unlock()
			}
		}(p)
	}
	wg.Wait()
	return failures
}

// probeOne checks one peer's liveness endpoint.
func (d *Dispatcher) probeOne(ctx context.Context, peer string) error {
	pctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, peer+"/healthz", nil)
	if err != nil {
		return fmt.Errorf("cluster: probe %s: %w", peer, err)
	}
	d.authorize(req)
	resp, err := d.client.Do(req)
	if err != nil {
		return fmt.Errorf("cluster: probe %s: %w", peer, err)
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: probe %s: status %d", peer, resp.StatusCode)
	}
	return nil
}

// authorize attaches the coordinator's bearer token, when configured.
func (d *Dispatcher) authorize(req *http.Request) {
	if d.authToken != "" {
		req.Header.Set("Authorization", "Bearer "+d.authToken)
	}
}

// peerUnusable marks attempt errors that suggest the peer does not
// speak the shard protocol at all (an old-version daemon behind the
// same /healthz). One such answer could also be a restarting ingress
// momentarily 404ing, so the peer is retired from the dispatch loop
// only after two consecutive unusable answers bracketing a passed
// probe; either way the shard is requeued without being charged an
// attempt.
type peerUnusable struct{ error }

// retireAfterUnusable is how many consecutive protocol-level failures
// (404/405/501) retire a peer for the rest of the search.
const retireAfterUnusable = 2

// searchRejected marks attempt errors that condemn the search itself:
// every peer would answer the same way (the request failed compilation
// or the fingerprint/shard plan conflicts — version skew between the
// coordinator and the whole fleet). Retrying elsewhere is pointless,
// so the dispatch fails immediately.
type searchRejected struct{ error }

// searchState is the mutable heart of one Search dispatch, shared by
// every puller goroutine. It earns its own type so the shared fields
// can carry machine-checked guard annotations (rdvlint's guardedby);
// everything else a puller touches is immutable dispatcher
// configuration or the shard queue channel.
type searchState struct {
	shards   int
	progress func(completed, total int) // serialized: only called under mu

	mu        sync.Mutex
	results   []sim.WorstCase // guarded by mu
	attempts  map[int]int     // guarded by mu
	remaining int             // guarded by mu
	failErr   error           // guarded by mu
}

// fail condemns the whole search; the first error wins.
func (st *searchState) fail(err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.failErr == nil {
		st.failErr = err
	}
}

// charge counts one failed attempt against the shard and reports
// whether its attempt budget is exhausted.
func (st *searchState) charge(shard, maxAttempts int) (exhausted bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.attempts[shard]++
	return st.attempts[shard] >= maxAttempts
}

// complete records one shard's result and reports whether it was the
// last outstanding shard.
func (st *searchState) complete(shard int, wc sim.WorstCase) (last bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.results[shard] = wc
	st.remaining--
	if st.progress != nil {
		st.progress(st.shards-st.remaining, st.shards)
	}
	return st.remaining == 0
}

// finish returns the merged result, or whatever doomed the dispatch.
func (st *searchState) finish() (sim.WorstCase, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.failErr != nil {
		return sim.WorstCase{}, st.failErr
	}
	if st.remaining > 0 {
		return sim.WorstCase{}, fmt.Errorf("cluster: %d shard(s) undispatched: no usable peers", st.remaining)
	}
	return adversary.MergeShards(st.results), nil
}

// Search fans the fingerprinted search out across the peer pool as
// shards 0..shards-1 of the fixed decomposition and returns the merged
// result, bit-for-bit identical to a local Search over the same
// compiled search. search is the scenario document every shard
// request embeds; progress, when non-nil, is called after every
// completed shard (including shards restored from the store, reported
// once up front) with calls serialized.
//
// Failure policy: an attempt that errors requeues its shard (never
// merges a partial or corrupt answer) and sends its peer back through
// a /healthz probe before that peer takes more work. A shard that
// exhausts MaxAttempts, or a context cancellation, fails the whole
// search with that error. When every peer is down, the dispatch keeps
// probing so it rides out a rolling restart; bounding that wait is the
// caller's context deadline (the serving layer's per-search timeout
// provides one for coordinator daemons).
func (d *Dispatcher) Search(ctx context.Context, search json.RawMessage, fingerprint string, shards int, progress func(completed, total int)) (sim.WorstCase, error) {
	if shards < 1 {
		return sim.WorstCase{}, fmt.Errorf("cluster: shard count %d: want >= 1", shards)
	}
	parent := ctx
	if parent == nil {
		parent = context.Background()
	}

	st := &searchState{
		shards:   shards,
		progress: progress,
		results:  make([]sim.WorstCase, shards),
		attempts: make(map[int]int),
	}
	var todo []int
	for i := 0; i < shards; i++ {
		if d.store != nil {
			if wc, ok := d.store.Get(adversary.ShardFingerprint(fingerprint, i, shards)); ok {
				st.results[i] = wc
				continue
			}
		}
		todo = append(todo, i)
	}
	st.remaining = len(todo)
	completed := shards - len(todo)
	if progress != nil {
		progress(completed, shards)
	}
	if len(todo) == 0 {
		return adversary.MergeShards(st.results), nil
	}

	ctx, cancel := context.WithCancel(parent)
	defer cancel()

	// Every shard in flight holds the queue slot it was popped from, so
	// a buffer of len(todo) makes requeues non-blocking.
	queue := make(chan int, len(todo))
	for _, i := range todo {
		queue <- i
	}

	fail := func(err error) {
		st.fail(err)
		cancel()
	}

	var wg sync.WaitGroup
	for _, p := range d.peers {
		// PerPeerInflight independent pullers per peer keep that many
		// shards in flight on it at once (each worker daemon bounds its
		// own compute via its engine pool). Each puller tracks health
		// and retirement independently; a retired puller only removes
		// its own slot.
		for c := 0; c < d.inflight; c++ {
			wg.Add(1)
			go func(peer string) {
				defer wg.Done()
				healthy := true
				unusable := 0
				for {
					if !healthy {
						if err := d.probeOne(ctx, peer); err != nil {
							select {
							case <-ctx.Done():
								return
							case <-time.After(d.probeBackoff):
							}
							continue
						}
						healthy = true
					}
					var shard int
					select {
					case <-ctx.Done():
						return
					case shard = <-queue:
					}
					sctx, span := trace.Start(ctx, "shard.dispatch",
						trace.String("peer", peer), trace.Int("shard", shard))
					wc, err := d.runShard(sctx, peer, search, fingerprint, shard, shards)
					if err != nil {
						span.SetAttr(trace.String("error", err.Error()))
					}
					span.End()
					if err != nil {
						queue <- shard // never lost: another peer (or this one, recovered) retries it
						d.retries.Add(1)
						if ctx.Err() != nil {
							return
						}
						var rejected searchRejected
						if errors.As(err, &rejected) {
							fail(err)
							return
						}
						var protocol peerUnusable
						if errors.As(err, &protocol) {
							// Not charged to the shard: either the peer is an
							// old version (every answer will look like this —
							// retire it after a confirming retry) or a proxy
							// blipped (the probe-then-retry absorbs it).
							unusable++
							if unusable >= retireAfterUnusable {
								return
							}
							healthy = false
							continue
						}
						unusable = 0
						if st.charge(shard, d.maxAttempts) {
							fail(fmt.Errorf("cluster: shard %d/%d failed after %d attempts: %w", shard, shards, d.maxAttempts, err))
							return
						}
						healthy = false // re-probe before taking more work
						continue
					}
					unusable = 0
					if d.store != nil {
						_ = d.store.Put(adversary.ShardFingerprint(fingerprint, shard, shards), wc) // best-effort
					}
					if st.complete(shard, wc) {
						cancel() // wake peers blocked on the queue or in probe backoff
						return
					}
				}
			}(p)
		}
	}
	wg.Wait()

	if err := parent.Err(); err != nil {
		return sim.WorstCase{}, err
	}
	return st.finish()
}

// runShard executes one shard attempt against one peer. Every failure
// mode returns an error (the caller requeues); a nil error is returned
// only for a well-formed answer addressed to exactly this shard.
func (d *Dispatcher) runShard(ctx context.Context, peer string, search json.RawMessage, fingerprint string, shard, shards int) (sim.WorstCase, error) {
	body, err := json.Marshal(ShardRequest{Search: search, Fingerprint: fingerprint, Shard: shard, Shards: shards})
	if err != nil {
		return sim.WorstCase{}, searchRejected{fmt.Errorf("cluster: marshal shard request: %w", err)}
	}
	if d.shardTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d.shardTimeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, peer+"/shard", bytes.NewReader(body))
	if err != nil {
		return sim.WorstCase{}, fmt.Errorf("cluster: %s shard %d: %w", peer, shard, err)
	}
	req.Header.Set("Content-Type", "application/json")
	// Propagate the trace so the worker's spans join this search's
	// trace; the worker returns its span tree in the response.
	if tp := trace.FromContext(ctx).Traceparent(); tp != "" {
		req.Header.Set("traceparent", tp)
	}
	d.authorize(req)
	resp, err := d.client.Do(req)
	if err != nil {
		return sim.WorstCase{}, fmt.Errorf("cluster: %s shard %d: %w", peer, shard, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes+1))
	if err != nil {
		return sim.WorstCase{}, fmt.Errorf("cluster: %s shard %d: reading response: %w", peer, shard, err)
	}
	if len(data) > maxResponseBytes {
		return sim.WorstCase{}, fmt.Errorf("cluster: %s shard %d: response exceeds %d bytes", peer, shard, maxResponseBytes)
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound, http.StatusNotImplemented, http.StatusMethodNotAllowed:
		// The peer does not serve the shard protocol at all.
		return sim.WorstCase{}, peerUnusable{fmt.Errorf("cluster: peer %s does not serve /shard (status %d)", peer, resp.StatusCode)}
	case http.StatusBadRequest, http.StatusConflict:
		// The search itself (or the shard plan) was rejected; every
		// peer of the same version would answer identically.
		return sim.WorstCase{}, searchRejected{fmt.Errorf("cluster: %s rejected shard %d: %s", peer, shard, shardError(data))}
	case http.StatusUnauthorized:
		// The coordinator's token is not granted on this worker. Every
		// shard would be refused the same way, so fail the search
		// immediately instead of grinding through a retry storm.
		return sim.WorstCase{}, searchRejected{fmt.Errorf("cluster: %s refused the coordinator's credentials (configure -peer-token to a token the worker grants)", peer)}
	default:
		return sim.WorstCase{}, fmt.Errorf("cluster: %s shard %d: status %d: %s", peer, shard, resp.StatusCode, shardError(data))
	}
	var out ShardResponse
	if err := json.Unmarshal(data, &out); err != nil {
		return sim.WorstCase{}, fmt.Errorf("cluster: %s shard %d: corrupt response: %w", peer, shard, err)
	}
	if out.Error != "" {
		return sim.WorstCase{}, fmt.Errorf("cluster: %s shard %d: %s", peer, shard, out.Error)
	}
	if out.Fingerprint != fingerprint || out.Shard != shard || out.Shards != shards || out.Result == nil {
		return sim.WorstCase{}, fmt.Errorf("cluster: %s shard %d: response addressed to a different shard (fp %.12s…, shard %d/%d)", peer, shard, out.Fingerprint, out.Shard, out.Shards)
	}
	// Fold the worker's span tree into the coordinator's trace (no-op
	// when untraced; Adopt drops spans from any other trace).
	trace.FromContext(ctx).Adopt(out.Spans)
	return *out.Result, nil
}

// shardError extracts the error text of a failed shard response body,
// falling back to the raw (truncated) body for non-JSON answers.
func shardError(data []byte) string {
	var out ShardResponse
	if err := json.Unmarshal(data, &out); err == nil && out.Error != "" {
		return out.Error
	}
	s := strings.TrimSpace(string(data))
	if len(s) > 200 {
		s = s[:200] + "…"
	}
	if s == "" {
		return "(empty body)"
	}
	return s
}

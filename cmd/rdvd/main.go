// Command rdvd is the rendezvous search service daemon: a
// long-running HTTP JSON front end over the adversary-search engine
// and the content-addressed result store — standalone, or as one node
// of a cluster.
//
// Usage:
//
//	rdvd -addr 127.0.0.1:8377 -store rdvd-store   # serve standalone
//	rdvd -role worker -addr :8378 -store w1-store # serve as a cluster worker
//	rdvd -role coordinator -peers http://hostA:8378,http://hostB:8378 \
//	     -addr :8377 -store coord-store           # fan /search out to the workers
//	rdvd -store rdvd-store -index                 # print the store index (JSON) and exit
//	rdvd -store rdvd-store -gc -gc-max 1000       # drop corrupt + oldest records and exit
//
// Serving endpoints:
//
//	POST /search   run (or fetch) an adversary search; body example:
//	               {"graph":{"family":"ring","n":12},"algorithm":"fast","L":8,"delays":[0,1]}
//	               Repeating an identical request is answered from the
//	               store without invoking the engine ("cached": true);
//	               concurrent identical requests share one engine run
//	               ("shared": true). Add "stream": true for NDJSON
//	               shard-level progress events. Alternatively the body
//	               may carry a declarative scenario document (any
//	               registered model, including "dynamic"):
//	               {"scenario":{"version":1,"model":"dynamic","graph":{...},
//	               "algorithm":"cheap","l":3,"phases":[...]}}
//	               A scenario naming an unregistered model is refused
//	               with a structured error ("code":"unsupported_model")
//	               listing the models this daemon serves.
//	POST /shard    one shard of a search's fixed decomposition (what a
//	               coordinator sends its workers; same validation and
//	               caps as /search, then the same store lookup,
//	               single-flight and engine pool, keyed by the shard)
//	GET  /healthz  liveness probe (also the coordinator's peer probe)
//	GET  /index    the store's index (what -index prints)
//	GET  /metrics  Prometheus text metrics (queue depths, pool
//	               utilization, cache hits, latency histograms)
//
// Observability: tracing is on by default (-trace); every /search and
// /shard gets a span tree (auth, rate check, queue wait, cache, plan,
// per-shard execution, merge, store write — the engine opens its plan,
// shard.exec and merge spans itself from the request context),
// announced to the client in
// the X-Rdv-Trace response header and joined across daemons via the
// W3C traceparent header on shard dispatch. Recent traces live in an
// in-memory ring (-trace-ring) and optionally an fsync'd JSONL file
// (-trace-log). Add "timings": true to a /search body for the per-phase
// breakdown in the response. -debug-addr serves GET /debug/traces,
// GET /debug/runtime and /debug/pprof on a separate listener;
// -slow-request DURATION WARN-logs the phase breakdown of any slower
// request.
//
// Multi-tenancy: -auth-tokens FILE enables bearer-token auth; each
// line grants "token tenant weight [rate [burst]]". Tenants share the
// engine pool by weighted fair queueing (one heavy tenant's backlog
// cannot starve the others), are individually rate limited, and are
// refused with 429 + Retry-After when their queue is full. /healthz
// and /metrics stay unauthenticated. A coordinator authenticates to
// its workers with -peer-token.
//
// Roles: every daemon serves /shard, so any daemon can be a worker;
// -role worker merely names that deployment. -role coordinator (which
// requires -peers) makes /search compile the search into its fixed,
// worker-count-independent shard plan, dispatch the shards to the
// peers with per-shard retry/requeue and health probing, and merge
// the results bit-for-bit identically to a single-node search, with
// the same NDJSON progress streaming. Shard results are cached in the
// stores on both sides under a fingerprint + shard id key.
//
// Searches run on a bounded worker pool (-max-concurrent engine runs
// at once, each sharded across -search-workers goroutines) and are
// cancelled when every client waiting on them disconnects.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"rendezvous/internal/admission"
	"rendezvous/internal/auth"
	"rendezvous/internal/resultstore"
	"rendezvous/internal/serve"
	"rendezvous/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args with a private flag
// set and writes to the given streams.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rdvd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr          = fs.String("addr", "127.0.0.1:8377", "listen address")
		storeDir      = fs.String("store", "rdvd-store", "result store directory")
		maxConcurrent = fs.Int("max-concurrent", 0, "engine searches running at once (0 = GOMAXPROCS)")
		searchWorkers = fs.Int("search-workers", -1, "goroutines per search (-1 = GOMAXPROCS)")
		searchTimeout = fs.Duration("search-timeout", 0, "server-side deadline per engine search (0 = 10m default, negative disables)")
		role          = fs.String("role", "standalone", "standalone | worker | coordinator")
		peers         = fs.String("peers", "", "comma-separated worker base URLs (coordinator role), e.g. http://hostA:8377,http://hostB:8377")
		shards        = fs.Int("shards", 0, "fixed shard count for distributed searches (0 = engine default)")
		shardTimeout  = fs.Duration("shard-timeout", 0, "per-shard dispatch deadline on each peer (0 = 2m default)")
		shardAttempts = fs.Int("shard-attempts", 0, "attempts per shard across peers before a distributed search fails (0 = 3)")
		shardInflight = fs.Int("shard-inflight", 0, "shards kept in flight on each peer at once (0 = 1; raise toward the workers' -max-concurrent)")
		authTokens    = fs.String("auth-tokens", "", "token file (token tenant weight [rate [burst]] per line); empty disables auth")
		queueDepth    = fs.Int("queue-depth", 0, "admission queue depth per tenant before 429 (0 = 64)")
		logRequests   = fs.Bool("log-requests", false, "log one structured line per request to stderr")
		peerToken     = fs.String("peer-token", "", "bearer token presented to workers (coordinator role, when workers run with -auth-tokens)")
		traceOn       = fs.Bool("trace", true, "record per-request span traces (inspect via -debug-addr's /debug/traces)")
		traceRing     = fs.Int("trace-ring", 0, "recent traces kept in memory (0 = 256)")
		traceLog      = fs.String("trace-log", "", "append every completed trace to this JSONL file (fsync'd); empty disables")
		debugAddr     = fs.String("debug-addr", "", "separate listen address for /debug/traces, /debug/runtime and /debug/pprof; empty disables")
		slowRequest   = fs.Duration("slow-request", 0, "log the phase breakdown at WARN for requests slower than this (0 disables; needs -trace)")
		index         = fs.Bool("index", false, "print the store index as JSON and exit")
		gc            = fs.Bool("gc", false, "garbage-collect the store and exit")
		gcMax         = fs.Int("gc-max", 0, "with -gc: keep at most this many newest records (0 = only drop corrupt ones)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usageErr := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "rdvd: "+format+"\n", args...)
		fs.Usage()
		return 2
	}
	if *maxConcurrent < 0 {
		return usageErr("-max-concurrent %d: want 0 (GOMAXPROCS) or a positive count", *maxConcurrent)
	}
	if *searchWorkers < -1 {
		return usageErr("-search-workers %d: want -1 (GOMAXPROCS) or a count >= 0", *searchWorkers)
	}
	if *gcMax < 0 {
		return usageErr("-gc-max %d: want >= 0", *gcMax)
	}
	if *index && *gc {
		return usageErr("-index and -gc are mutually exclusive")
	}
	var peerList []string
	if *peers != "" {
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, p)
			}
		}
	}
	switch *role {
	case "standalone", "worker":
		// The cluster-dispatch flags configure the coordinator's
		// dispatcher only; accepting them here would silently do
		// nothing.
		if len(peerList) > 0 {
			return usageErr("-peers is only meaningful with -role coordinator (got role %q)", *role)
		}
		if *shards != 0 {
			return usageErr("-shards is only meaningful with -role coordinator (got role %q)", *role)
		}
		if *shardTimeout != 0 {
			return usageErr("-shard-timeout is only meaningful with -role coordinator (got role %q)", *role)
		}
		if *shardAttempts != 0 {
			return usageErr("-shard-attempts is only meaningful with -role coordinator (got role %q)", *role)
		}
		if *shardInflight != 0 {
			return usageErr("-shard-inflight is only meaningful with -role coordinator (got role %q)", *role)
		}
		if *peerToken != "" {
			return usageErr("-peer-token is only meaningful with -role coordinator (got role %q)", *role)
		}
	case "coordinator":
		if len(peerList) == 0 {
			return usageErr("-role coordinator requires -peers")
		}
	default:
		return usageErr("-role %q: want standalone, worker or coordinator", *role)
	}
	if *shards < 0 {
		return usageErr("-shards %d: want 0 (engine default) or a positive count", *shards)
	}
	if *shardTimeout < 0 {
		// The library's negative-disables escape hatch is not exposed as
		// a flag: a typo must not silently remove the per-shard failure
		// deadline the requeue policy depends on.
		return usageErr("-shard-timeout %v: want 0 (2m default) or a positive duration", *shardTimeout)
	}
	if *shardAttempts < 0 {
		return usageErr("-shard-attempts %d: want 0 (default) or a positive count", *shardAttempts)
	}
	if *shardInflight < 0 {
		return usageErr("-shard-inflight %d: want 0 (1 per peer) or a positive count", *shardInflight)
	}
	if *queueDepth < 0 {
		return usageErr("-queue-depth %d: want 0 (default %d) or a positive depth", *queueDepth, admission.DefaultQueueDepth)
	}
	if *traceRing < 0 {
		return usageErr("-trace-ring %d: want 0 (default %d) or a positive count", *traceRing, trace.DefaultRingSize)
	}
	if !*traceOn {
		// Flags that only shape the tracer would silently do nothing.
		if *traceRing != 0 {
			return usageErr("-trace-ring is only meaningful with -trace")
		}
		if *traceLog != "" {
			return usageErr("-trace-log is only meaningful with -trace")
		}
		if *slowRequest != 0 {
			return usageErr("-slow-request is only meaningful with -trace")
		}
	}
	if *slowRequest < 0 {
		return usageErr("-slow-request %v: want 0 (disabled) or a positive duration", *slowRequest)
	}
	var authenticator *auth.Authenticator
	if *authTokens != "" {
		a, err := auth.LoadTokens(*authTokens)
		if err != nil {
			fmt.Fprintf(stderr, "rdvd: %v\n", err)
			return 2
		}
		authenticator = a
	}
	var reqLog *slog.Logger
	if *logRequests || *slowRequest > 0 {
		// -slow-request implies request logging: a threshold nobody can
		// see firing is worse than a usage error.
		reqLog = slog.New(slog.NewTextHandler(stderr, nil))
	}
	var tracer *trace.Tracer
	var traceSink *trace.Log
	if *traceOn {
		if *traceLog != "" {
			l, err := trace.OpenLog(*traceLog)
			if err != nil {
				fmt.Fprintf(stderr, "rdvd: -trace-log: %v\n", err)
				return 1
			}
			traceSink = l
			defer traceSink.Close()
		}
		tracer = trace.New(trace.Config{RingSize: *traceRing, Log: traceSink})
	}

	store, err := resultstore.Open(*storeDir)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	switch {
	case *index:
		entries, err := store.Index()
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(entries); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	case *gc:
		removed, err := store.GC(resultstore.GCOptions{MaxEntries: *gcMax})
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "rdvd: gc removed %d record(s)\n", removed)
		return 0
	}

	srv, err := serve.New(serve.Config{
		Store:         store,
		MaxConcurrent: *maxConcurrent,
		Workers:       *searchWorkers,
		SearchTimeout: *searchTimeout,
		Peers:         peerList,
		Shards:        *shards,
		ShardTimeout:  *shardTimeout,
		ShardAttempts: *shardAttempts,
		ShardInflight: *shardInflight,
		Auth:          authenticator,
		QueueDepth:    *queueDepth,
		RequestLog:    reqLog,
		PeerToken:     *peerToken,
		Tracer:        tracer,
		Instance:      *addr,
		SlowRequest:   *slowRequest,
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "rdvd: listening on %s (store %s, role %s)\n", ln.Addr(), store.Dir(), *role)
	if authenticator.Enabled() {
		fmt.Fprintf(stdout, "rdvd: auth enabled, %d tenant(s): %s\n", len(authenticator.Tenants()), strings.Join(authenticator.Tenants(), ", "))
	}
	if d := srv.Cluster(); d != nil {
		if failures := d.Probe(context.Background()); len(failures) > 0 {
			// Sorted so restart logs diff cleanly run to run.
			peers := make([]string, 0, len(failures))
			for peer := range failures {
				peers = append(peers, peer)
			}
			sort.Strings(peers)
			for _, peer := range peers {
				fmt.Fprintf(stderr, "rdvd: peer %s unhealthy: %v\n", peer, failures[peer])
			}
			fmt.Fprintf(stdout, "rdvd: coordinating %d peer(s), %d currently unhealthy (shards will requeue around them)\n", len(d.Peers()), len(failures))
		} else {
			fmt.Fprintf(stdout, "rdvd: coordinating %d healthy peer(s)\n", len(d.Peers()))
		}
	}

	// The debug listener is separate from the tenant-facing one so
	// profiling and trace inspection can be firewalled independently
	// (and a pprof CPU profile cannot be triggered by a search client).
	var debugServer *http.Server
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		debugServer = &http.Server{Handler: srv.DebugHandler(), ReadHeaderTimeout: 10 * time.Second}
		go debugServer.Serve(dln)
		defer debugServer.Close()
		fmt.Fprintf(stdout, "rdvd: debug listener on %s (/debug/traces, /debug/runtime, /debug/pprof)\n", dln.Addr())
	}

	// Header/body reads and idle keep-alives are time-bounded so a
	// stalled client cannot pin connections (slowloris); there is
	// deliberately no WriteTimeout, because a cold search may take
	// arbitrarily long before (and while) the response streams.
	httpServer := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpServer.Serve(ln) }()
	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(stderr, err)
			return 1
		}
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := httpServer.Shutdown(shutdownCtx); err != nil {
			httpServer.Close()
		}
		fmt.Fprintln(stdout, "rdvd: shut down")
	}
	return 0
}

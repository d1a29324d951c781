package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// The distributed-search scaling benchmarks, both over the same
// table-tier grid sweep (grid 4x4, fast, L=24, delays {0,1}, symmetry
// off — 552 label pairs in 32 shards).
//
// BenchmarkDistributedGridSweep dispatches to plain in-process
// workers: its scaling reflects the host's free cores (GOMAXPROCS >= 2
// required for any speedup, since both "machines" share this
// process's scheduler).
//
// BenchmarkDistributedGridSweepRemote models the deployment the
// cluster exists for — workers on separate machines — by giving every
// real shard execution a fixed service latency (remote engine slot +
// network) an order of magnitude above the local compute. The
// dispatcher keeps one shard in flight per peer, so a 2-peer pool
// overlaps two shard services and the sweep's wall clock halves:
// the recorded acceptance threshold is >= 1.8x (see DESIGN.md).
//
//	go test ./internal/serve -run - -bench BenchmarkDistributed -benchtime 3x

// benchBody is the table-tier grid sweep under test.
const benchBody = `{"graph":{"family":"grid","rows":4,"cols":4},"algorithm":"fast","L":24,"delays":[0,1],"symmetry":"off"}`

func BenchmarkDistributedGridSweep(b *testing.B) {
	for _, peers := range []int{1, 2} {
		b.Run(fmt.Sprintf("peers=%d", peers), func(b *testing.B) {
			// No perfbench workload loads /shard, so this benchmark's
			// allocations are the one measure of the worker's path.
			b.ReportAllocs()
			var urls []string
			for i := 0; i < peers; i++ {
				urls = append(urls, newWorker(b, nil).URL)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := distribute(b, benchBody, 32, nil, urls...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// newRemoteWorker wraps a real worker so every /shard answer takes at
// least latency: the shard is still computed by the real engine (the
// result stays bit-for-bit real), but the service time is dominated by
// the modeled remote machine, not by this host's core count.
func newRemoteWorker(b *testing.B, latency time.Duration) *httptest.Server {
	b.Helper()
	srv, err := New(Config{MaxConcurrent: 4, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	handler := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/shard" {
			start := time.Now()
			handler.ServeHTTP(w, r)
			if rest := latency - time.Since(start); rest > 0 {
				select {
				case <-r.Context().Done():
				case <-time.After(rest):
				}
			}
			return
		}
		handler.ServeHTTP(w, r)
	}))
	b.Cleanup(ts.Close)
	return ts
}

func BenchmarkDistributedGridSweepRemote(b *testing.B) {
	const latency = 20 * time.Millisecond // per-shard remote service time
	for _, peers := range []int{1, 2} {
		b.Run(fmt.Sprintf("peers=%d", peers), func(b *testing.B) {
			var urls []string
			for i := 0; i < peers; i++ {
				urls = append(urls, newRemoteWorker(b, latency).URL)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := distribute(b, benchBody, 32, nil, urls...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

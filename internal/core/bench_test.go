package core

import (
	"fmt"
	"testing"

	"rendezvous/internal/ringsim"
	"rendezvous/internal/sim"
)

// BenchmarkScheduleFWR measures lowering one FastWithRelabeling label at
// L = 4096, the E14 hot spot, per label: "schedule" is Schedule alone
// (relabel plus the segment schedule) and "lower" adds ringsim.Compile
// on the ring of 24, which is what the engine's ring tier pays per
// label and shard. Labels step through the label space by a stride
// coprime to L, so every rank's bit pattern shows.
func BenchmarkScheduleFWR(b *testing.B) {
	const L, n = 4096, 24
	params := Params{L: L}
	for _, w := range []int{1, 3} {
		algo := NewFastWithRelabeling(w)
		label := func(i int) int { return 1 + (i*2731)%L }
		b.Run(fmt.Sprintf("fwr(%d)/schedule", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSchedule = algo.Schedule(label(i), params)
			}
		})
		b.Run(fmt.Sprintf("fwr(%d)/lower", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchTimeline = ringsim.Compile(n, algo.Schedule(label(i), params))
			}
		})
	}
}

var (
	benchSchedule sim.Schedule
	benchTimeline ringsim.Timeline
)

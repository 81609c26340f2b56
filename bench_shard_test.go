package fivealarms

// BenchmarkShardedStudy measures a cold build plus its multi-band pass.
// At the default scale it benches a small 4-band study (so `make bench`
// stays fast); with FIVEALARMS_BENCH_PAPER=1 in the environment — the
// mode `make bench-shard` runs — it records the full paper-scale cold
// build: the 5,364,949-transceiver fleet on the 2.7 km national raster,
// with all 19 historical seasons plus the 2019 hold-out joined over 16
// CONUS row bands, and the history union mask. Reported metrics: wall
// time per cold build (ns/op), the measured peak of the heap's object
// bytes while the builds ran (peak-heap-B), and the fleet size (rows).
// `make bench-shard` captures the run as test2json events in
// BENCH_shard.json.

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"testing"
	"time"
)

// benchShardConfig resolves the bench scale: paper scale when
// FIVEALARMS_BENCH_PAPER is set, the shared stress scale otherwise.
func benchShardConfig() (Config, []int) {
	if os.Getenv("FIVEALARMS_BENCH_PAPER") != "" {
		return PaperScale(7), []int{16}
	}
	cfg := stressCfg
	cfg.Transceivers = 20000
	return cfg, []int{4}
}

// sampleHeapPeak samples the heap's object bytes (live plus not yet
// swept, runtime/metrics /memory/classes/heap/objects:bytes) every 2 ms,
// as perfbench does; stop ends the sampling and returns the largest
// sample.
func sampleHeapPeak() (stop func() uint64) {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	var peak uint64
	read := func() {
		metrics.Read(sample)
		peak = max(peak, sample[0].Value.Uint64())
	}
	read()
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return func() uint64 {
		close(done)
		<-exited
		read()
		return peak
	}
}

func BenchmarkShardedStudy(b *testing.B) {
	cfg, shardCounts := benchShardConfig()
	for _, n := range shardCounts {
		c := cfg
		c.Shards = n
		b.Run(fmt.Sprintf("cold-build-shards-%d", n), func(b *testing.B) {
			var rows []int
			runtime.GC()
			stop := sampleHeapPeak()
			for i := 0; i < b.N; i++ {
				s, err := NewStudyWithOptions(WithConfig(c))
				if err != nil {
					b.Fatal(err)
				}
				// Touch the pass's products and the mask so a lazy
				// result can't masquerade as a fast build.
				if len(s.Table1()) != 19 {
					b.Fatal("table1 incomplete")
				}
				if s.HistoryUnionMask().Count() == 0 {
					b.Fatal("empty history union")
				}
				rows, _ = s.ShardStats()
			}
			peak := stop()
			total := 0
			for _, r := range rows {
				total += r
			}
			b.ReportMetric(float64(peak), "peak-heap-B")
			b.ReportMetric(float64(total), "rows")
		})
	}
}

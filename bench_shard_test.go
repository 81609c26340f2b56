package fivealarms

// BenchmarkShardedStudy measures a cold build plus its multi-band pass.
// At the default scale it benches a small 4-band study (so `make bench`
// stays fast); with FIVEALARMS_BENCH_PAPER=1 in the environment — the
// mode `make bench-shard` runs — it records the full paper-scale cold
// build: the 5,364,949-transceiver fleet on the 2.7 km national raster,
// with all 19 historical seasons plus the 2019 hold-out joined over 16
// CONUS row bands, and the history union mask. Reported metrics: wall
// time per cold build (ns/op), the accounted peak per-band copy
// (peak-shard-B), and the fleet size (rows). `make bench-shard`
// captures the run as test2json events in BENCH_shard.json.

import (
	"fmt"
	"os"
	"testing"
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

func BenchmarkShardedStudy(b *testing.B) {
	cfg, shardCounts := benchShardConfig()
	for _, n := range shardCounts {
		c := cfg
		c.Shards = n
		b.Run(fmt.Sprintf("cold-build-shards-%d", n), func(b *testing.B) {
			var rows []int
			var peak int64
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
				rows, peak = s.ShardStats()
			}
			total := 0
			for _, r := range rows {
				total += r
			}
			b.ReportMetric(float64(peak), "peak-shard-B")
			b.ReportMetric(float64(total), "rows")
		})
	}
}

package fivealarms

// Band-count conformance sweep: the band pass promises the same
// products at any band count and any GOMAXPROCS. Per seed, a one-band
// reference (Shards 0) is compared with twins at every swept band count
// under both schedules — reflect.DeepEqual tables and validation (no
// ulp allowance), fingerprint-equal union masks, and a ShardStats shape
// that matches the plan.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"fivealarms/internal/faults"
)

// sweepBands deliberately includes 1 (the pass with no partition
// effect, which must equal Shards 0), counts that leave empty coastal
// bands at tiny fleets, 7 (bands that never divide the grid evenly)
// and 300 (more bands than grid rows, so most are empty).
var sweepBands = []int{1, 2, 4, 7, 300}

// genShardConfig derives one small study configuration from the seed.
// Scales stay tiny — the value of the sweep is in band-count coverage,
// not fleet size.
func genShardConfig(seed int64) Config {
	rng := rand.New(rand.NewSource(seed ^ 0x5a4ded))
	return Config{
		Seed:                 uint64(seed*2 + 7),
		CellSizeM:            []float64{40000, 60000, 90000}[rng.Intn(3)],
		Transceivers:         2500 + rng.Intn(3)*1250,
		MappedFiresPerSeason: 3 + rng.Intn(3),
	}
}

// bandProducts is everything the sweep compares between twins.
type bandProducts struct {
	table1   any
	table2   any
	table3   any
	validate any
	hist     uint64
	s2019    uint64
	rows     []int
	peak     int64
}

// bandProductsAt builds cfg with n bands at GOMAXPROCS=procs and reads
// its products under the same setting.
func bandProductsAt(t *testing.T, cfg Config, n, procs int) (p bandProducts) {
	t.Helper()
	faults.WithGOMAXPROCS(procs, func() {
		s, err := NewStudyWithOptions(WithConfig(cfg), WithShards(n))
		if err != nil {
			t.Fatalf("shards=%d GOMAXPROCS=%d build: %v", n, procs, err)
		}
		p = bandProducts{
			table1:   s.Table1(),
			table2:   s.Table2(),
			table3:   s.Table3(),
			validate: s.Validate(),
			hist:     s.HistoryUnionMask().Fingerprint(),
			s2019:    s.Season2019UnionMask().Fingerprint(),
		}
		p.rows, p.peak = s.ShardStats()
	})
	return p
}

// TestShardedDiffcheckSweep runs the band-count sweep: per seed, one
// Shards 0 reference at GOMAXPROCS=1 against every (band count,
// schedule) twin, byte-identical tables and validation and
// fingerprint-identical masks.
func TestShardedDiffcheckSweep(t *testing.T) {
	seeds := int64(3)
	if testing.Short() {
		seeds = 1
	}
	for seed := int64(0); seed < seeds; seed++ {
		cfg := genShardConfig(seed)
		ref := bandProductsAt(t, cfg, 0, schedules[0])
		fleet := 0
		for _, r := range ref.rows {
			fleet += r
		}
		if len(ref.rows) != 1 || ref.peak != 0 {
			t.Fatalf("seed %d: one-band ShardStats = (%v, %d), want one band and 0 bytes", seed, ref.rows, ref.peak)
		}
		for _, procs := range schedules {
			for _, n := range sweepBands {
				at := fmt.Sprintf("seed %d shards=%d GOMAXPROCS=%d", seed, n, procs)
				got := bandProductsAt(t, cfg, n, procs)
				for _, c := range []struct {
					name      string
					got, want any
				}{
					{"table1", got.table1, ref.table1},
					{"table2", got.table2, ref.table2},
					{"table3", got.table3, ref.table3},
					{"validate", got.validate, ref.validate},
					{"history mask", got.hist, ref.hist},
					{"2019 mask", got.s2019, ref.s2019},
				} {
					if !reflect.DeepEqual(c.got, c.want) {
						t.Errorf("%s: %s differs from the one-band reference", at, c.name)
					}
				}
				total := 0
				for _, r := range got.rows {
					total += r
				}
				if len(got.rows) != n || total != fleet {
					t.Errorf("%s: ShardStats reports %d bands holding %d rows, want %d holding %d", at, len(got.rows), total, n, fleet)
				}
				if (got.peak > 0) != (n > 1) {
					t.Errorf("%s: peak footprint %d, want > 0 only for more than one band", at, got.peak)
				}
			}
		}
	}
}

package diffcheck

import (
	"math/rand"
	"reflect"

	"fivealarms"
	"fivealarms/internal/raster"
	"fivealarms/internal/shard"
)

// Sharded study conformance: the sharded execution path promises
// bit-identical results to the monolithic build at any shard count.
// These drivers enforce that promise end to end — whole twin studies
// compared product by product — and at the mask-merge kernel level with
// adversarial band-straddling perimeters. Schedule independence (the
// same products at any GOMAXPROCS) is the root package's schedule-twin
// test.

// shardCountGrid deliberately includes 1 (sharding machinery with no
// partition effect), counts that leave empty coastal bands at tiny
// transceiver fleets, and 7 (bands that never divide the grid evenly).
var shardCountGrid = [...]int{1, 2, 4, 7}

// genShardConfig derives one small study configuration from the seed.
// Scales stay tiny — the value of the sweep is in shard-count coverage,
// not fleet size.
func genShardConfig(seed int64) fivealarms.Config {
	rng := rand.New(rand.NewSource(seed ^ 0x5a4ded))
	return fivealarms.Config{
		Seed:                 uint64(seed*2 + 7),
		CellSizeM:            []float64{40000, 60000, 90000}[rng.Intn(3)],
		Transceivers:         2500 + rng.Intn(3)*1250,
		MappedFiresPerSeason: 3 + rng.Intn(3),
	}
}

// CheckSharded builds one monolithic study from the seeded
// configuration, then a sharded twin per shard count, and demands byte-identical transceiver-axis products: Tables 1-3
// (including every recomputed ratio field, via reflect.DeepEqual — no
// ulp allowance), the §3.4 validation, and both perimeter union masks
// by fingerprint.
func CheckSharded(seed int64) error {
	cfg := genShardConfig(seed)
	mono, err := fivealarms.NewStudyWithOptions(fivealarms.WithConfig(cfg))
	if err != nil {
		return divergef("sharded-study", seed, "monolithic build: %v", err)
	}
	monoHist := mono.HistoryUnionMask().Fingerprint()
	mono2019 := mono.Season2019UnionMask().Fingerprint()

	for _, n := range shardCountGrid {
		sh, err := fivealarms.NewStudyWithOptions(fivealarms.WithConfig(cfg), fivealarms.WithShards(n))
		if err != nil {
			return divergef("sharded-study", seed, "shards=%d build: %v", n, err)
		}
		if !reflect.DeepEqual(mono.Table1(), sh.Table1()) {
			return divergef("sharded-table1", seed, "shards=%d: merged overlay differs from monolithic", n)
		}
		if !reflect.DeepEqual(mono.Table2(), sh.Table2()) {
			return divergef("sharded-table2", seed, "shards=%d: merged provider rows differ from monolithic", n)
		}
		if !reflect.DeepEqual(mono.Table3(), sh.Table3()) {
			return divergef("sharded-table3", seed, "shards=%d: merged radio rows differ from monolithic", n)
		}
		if !reflect.DeepEqual(mono.Validate(), sh.Validate()) {
			return divergef("sharded-validate", seed, "shards=%d: merged validation differs from monolithic", n)
		}
		if got := sh.HistoryUnionMask().Fingerprint(); got != monoHist {
			return divergef("sharded-hist-mask", seed, "shards=%d: union fingerprint %#x != monolithic %#x", n, got, monoHist)
		}
		if got := sh.Season2019UnionMask().Fingerprint(); got != mono2019 {
			return divergef("sharded-2019-mask", seed, "shards=%d: union fingerprint %#x != monolithic %#x", n, got, mono2019)
		}
		rows, peak := sh.ShardStats()
		if len(rows) != n {
			return divergef("sharded-stats", seed, "shards=%d: ShardStats reported %d shards", n, len(rows))
		}
		total := 0
		for _, r := range rows {
			total += r
		}
		if total != len(mono.Data.T) {
			return divergef("sharded-stats", seed, "shards=%d: shard rows sum to %d, fleet is %d", n, total, len(mono.Data.T))
		}
		if peak <= 0 {
			return divergef("sharded-stats", seed, "shards=%d: non-positive peak footprint %d", n, peak)
		}
	}
	return nil
}

// CheckShardMaskMerge attacks the mask-merge kernel alone: seeded
// multipolygons rasterized band by band with FillPolygonsRows and
// Or-merged in band order must reproduce the monolithic fill bit for
// bit. The generated fill cases place perimeters across the whole grid,
// so at every shard count some polygon straddles a band boundary — the
// adversarial case the row-window restriction must get exactly right.
func CheckShardMaskMerge(seed int64) error {
	fc := GenFillCase(seed)
	mono := raster.NewBitGrid(fc.Geom)
	raster.FillPolygonsInto(mono, fc.M, 1)
	want := mono.Fingerprint()

	polys := fc.M
	for _, n := range []int{1, 2, 3, 5, 8, fc.Geom.NY} {
		p := shard.MakePlan(fc.Geom.NY, n)
		merged := raster.NewBitGrid(fc.Geom)
		for i := 0; i < p.Shards(); i++ {
			y0, y1 := p.Band(i)
			band := raster.NewBitGrid(fc.Geom)
			raster.FillPolygonsRows(band, polys, y0, y1)
			if err := merged.Or(band); err != nil {
				return divergef("shard-mask-merge", seed, "%s: shards=%d Or: %v", fc.Desc, n, err)
			}
		}
		if got := merged.Fingerprint(); got != want {
			if cx, cy, ok := firstMaskDiff(mono, merged); !ok {
				return divergef("shard-mask-merge", seed, "%s: shards=%d cell (%d,%d): monolithic=%v merged=%v on %v",
					fc.Desc, n, cx, cy, mono.Get(cx, cy), merged.Get(cx, cy), fc.Geom)
			}
			return divergef("shard-mask-merge", seed, "%s: shards=%d fingerprint %#x != monolithic %#x", fc.Desc, n, got, want)
		}
	}
	return nil
}

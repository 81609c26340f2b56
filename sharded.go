package fivealarms

import (
	"context"
	"fmt"
	"unsafe"

	"fivealarms/internal/cellnet"
	"fivealarms/internal/pipeline"
	"fivealarms/internal/raster"
	"fivealarms/internal/risk"
	"fivealarms/internal/shard"
	"fivealarms/internal/wildfire"
)

// Sharded execution (Config.Shards > 0): the transceiver-axis products
// — Table 1/2/3, the §3.4 validation and the two perimeter union masks
// — are computed shard by shard over a row-band partition of the CONUS
// grid and stream-merged, instead of in one pass over the whole fleet.
// The results are bit-identical to the monolithic build (see DESIGN.md
// §10 for the merge-order determinism rule and the exactness argument);
// what changes is the working-set shape: each shard task materializes
// only its band's slice of the fleet as analysis-ready AoS rows plus
// two band masks, so the transient per-shard footprint is bounded by
// the largest band rather than the fleet, and the compact columnar
// Store is the only fleet-wide transceiver container the heavy joins
// ever touch.

// shardedResults holds the stream-merged products of a sharded build.
// Built entirely inside build()'s task graph; immutable afterwards.
type shardedResults struct {
	history    []*wildfire.Season
	season2019 *wildfire.Season
	table1     []risk.YearOverlay
	table2     []risk.ProviderRow
	table3     []risk.RadioRow
	validation *risk.ValidationResult
	unionHist  *raster.BitGrid
	union2019  *raster.BitGrid

	// shardRows is the per-shard transceiver count, in band order.
	shardRows []int
	// peakShardBytes is the largest single shard's accounted transient
	// footprint: AoS rows + spatial index + class/county caches + two
	// band masks (an accounting figure, not measured RSS; see
	// DESIGN.md §10).
	peakShardBytes int64
}

// shardBuild carries the sharded tasks' intermediate state. Tasks
// communicate only through their dependency edges: a field is written
// by exactly one task and read only by tasks downstream of it, so the
// pipeline's happens-before edges make the builds race-free under any
// schedule.
type shardBuild struct {
	s   *Study
	cfg Config

	plan  shard.Plan
	store *cellnet.Store
	parts [][]int

	overlays  []*risk.ShardOverlay
	histMasks []*raster.BitGrid
	valMasks  []*raster.BitGrid
	bytes     []int64

	res shardedResults
}

// addShardedTasks appends the sharded layer builds to the study graph:
// the simulated seasons, the partition plan, one overlay task and one
// mask task per shard, and the stream merge. Dependencies ensure a
// failed or cancelled task skips every dependent, so a partial sharded
// Study never escapes build().
func addShardedTasks(g *pipeline.Graph, sb *shardBuild, ctx context.Context) {
	cfg := sb.cfg
	n := cfg.Shards
	sb.overlays = make([]*risk.ShardOverlay, n)
	sb.histMasks = make([]*raster.BitGrid, n)
	sb.valMasks = make([]*raster.BitGrid, n)
	sb.bytes = make([]int64, n)

	g.Add("history", func() error {
		seasons, err := wildfire.SimulateHistoryContext(ctx, sb.s.Sim, cfg.Seed, cfg.MappedFiresPerSeason, 0)
		if err != nil {
			return err
		}
		sb.res.history = seasons
		return nil
	}, "sim")
	g.Add("season2019", func() error {
		sb.res.season2019 = wildfire.Simulate2019(sb.s.Sim, cfg.Seed, cfg.MappedFiresPerSeason)
		return nil
	}, "sim")
	g.Add("shards/plan", func() error {
		sb.plan = shard.MakePlan(sb.s.World.Grid.NY, n)
		sb.store = cellnet.StoreOf(sb.s.Data.T)
		parts, err := shard.Partition(sb.plan, sb.s.World.Grid, sb.store.Y)
		if err != nil {
			return err
		}
		sb.parts = parts
		return nil
	}, "analyzer")

	shardTasks := make([]string, 0, 2*n)
	for i := 0; i < n; i++ {
		overlayTask := fmt.Sprintf("shard%d/overlay", i)
		maskTask := fmt.Sprintf("shard%d/mask", i)
		shardTasks = append(shardTasks, overlayTask, maskTask)
		g.Add(overlayTask, func() error {
			sb.runOverlay(i)
			return nil
		}, "shards/plan", "history", "season2019")
		g.Add(maskTask, func() error {
			sb.runMask(i)
			return nil
		}, "shards/plan", "history", "season2019")
	}
	g.Add("shards/merge", sb.merge, shardTasks...)
}

// aosRowBytes is the in-memory size of one analysis-ready transceiver
// row — the unit of the per-shard footprint accounting.
const aosRowBytes = int64(unsafe.Sizeof(cellnet.Transceiver{}))

// indexAndCacheBytes accounts the per-row cost of a shard's spatial
// index (one projected point) plus the analyzer's class and county
// caches.
const indexAndCacheBytes = int64(16 + 1 + 4)

// runOverlay materializes shard i's rows from the columnar store,
// builds its private analyzer, and counts its partial Table 1/2/3 and
// validation products. The AoS rows, index and caches are released
// when the task returns — only the counts survive.
func (sb *shardBuild) runOverlay(i int) {
	idx := sb.parts[i]
	rows := sb.store.AppendRows(make([]cellnet.Transceiver, 0, len(idx)), idx)
	ds := cellnet.NewDataset(sb.s.World, rows)
	sub := risk.New(sb.s.World, sb.s.WHP, ds, sb.s.Counties)
	sb.overlays[i] = sub.ShardOverlay(sb.res.history, sb.res.season2019)
	sb.bytes[i] = int64(len(idx)) * (aosRowBytes + indexAndCacheBytes)
}

// runMask fills shard i's band of the two perimeter union masks. The
// fills are row-window-restricted, so a band mask holds exactly the
// rows the monolithic fill would produce there and zero elsewhere;
// the band-ordered Or in merge reassembles the monolithic masks bit
// for bit.
func (sb *shardBuild) runMask(i int) {
	y0, y1 := sb.plan.Band(i)
	g := sb.s.World.Grid
	hist := raster.NewBitGrid(g)
	val := raster.NewBitGrid(g)
	raster.FillPolygonsRows(hist, risk.SeasonPerimeters(sb.res.history), y0, y1)
	raster.FillPolygonsRows(val, risk.SeasonPerimeters([]*wildfire.Season{sb.res.season2019}), y0, y1)
	sb.histMasks[i] = hist
	sb.valMasks[i] = val
}

// maskBytes accounts one full-geometry bit mask.
func maskBytes(g raster.Geometry) int64 {
	return int64((g.Cells()+63)/64) * 8
}

// merge folds the per-shard products, in band order, into the final
// sharded results. Integer counts add; ratios are recomputed once from
// the merged counts; masks merge by word-level Or. Merge order is
// fixed (band 0 upward) even though every merge here is commutative —
// the determinism rule is "band order, always" so no future merge has
// to re-litigate it.
func (sb *shardBuild) merge() error {
	t1, t2, t3, v, err := risk.MergeShardOverlays(sb.overlays)
	if err != nil {
		return err
	}
	sb.res.table1, sb.res.table2, sb.res.table3, sb.res.validation = t1, t2, t3, v

	g := sb.s.World.Grid
	unionHist := raster.NewBitGrid(g)
	union2019 := raster.NewBitGrid(g)
	for i := range sb.histMasks {
		if err := unionHist.Or(sb.histMasks[i]); err != nil {
			return fmt.Errorf("merging shard %d history mask: %w", i, err)
		}
		if err := union2019.Or(sb.valMasks[i]); err != nil {
			return fmt.Errorf("merging shard %d 2019 mask: %w", i, err)
		}
		sb.histMasks[i], sb.valMasks[i] = nil, nil // release band masks as they fold in
	}
	sb.res.unionHist, sb.res.union2019 = unionHist, union2019

	sb.res.shardRows = make([]int, len(sb.parts))
	mb := 2 * maskBytes(g)
	for i, part := range sb.parts {
		sb.res.shardRows[i] = len(part)
		if b := sb.bytes[i] + mb; b > sb.res.peakShardBytes {
			sb.res.peakShardBytes = b
		}
	}
	return nil
}

// ShardStats reports the sharded build's shape: per-shard transceiver
// counts in band order and the accounted peak per-shard transient
// footprint in bytes. A monolithic study returns (nil, 0).
func (s *Study) ShardStats() (rows []int, peakBytes int64) {
	if s.sharded == nil {
		return nil, 0
	}
	rows = append([]int(nil), s.sharded.shardRows...)
	return rows, s.sharded.peakShardBytes
}

package fivealarms

import (
	"fmt"

	"fivealarms/internal/pipeline"
	"fivealarms/internal/risk"
	"fivealarms/internal/shard"
)

// The band pass computes the two products that join simulated
// perimeters against the whole fleet — Table 1 and the §3.4 validation
// counts — over a row-band partition of the CONUS grid, then merges the
// per-band counts in band order. Both are sums of independent
// per-transceiver contributions, so the merged results are bit-identical
// at any band count (see DESIGN.md §10). The pass runs once per Study,
// on the first call to Table1, Validate or ShardStats, with
// max(1, Config.Shards) bands. Every band joins the Study's own
// Analyzer in place: it clips each fire's query box to the band's rows
// and counts only the transceivers the plan assigned to it, so no band
// copies rows or builds an index or a cache.

// bandResults is the memoized output of the band pass.
type bandResults struct {
	table1     []risk.YearOverlay
	validation *risk.ValidationResult

	// rows is the per-band transceiver count, in band order.
	rows []int
}

// bands returns the band pass, running it on first use.
//
// It panics with the pass's error — a *pipeline.PanicError or a wrapped
// task error — when a pass task fails, which only a bug or an injected
// fault can cause. A failed pass is not memoized, so the next call
// retries it.
func (s *Study) bands() *bandResults {
	r, err := s.mem.bands.GetErr(s.runBands)
	if err != nil {
		panic(err)
	}
	return r
}

// runBands plans the bands and runs one shard<i>/overlay task per band
// plus the band-order shards/merge on a pipeline graph. A multi-band
// plan first assigns each transceiver its band in shards/plan. Tasks
// communicate only through their dependency edges, so the pass is
// race-free under any schedule.
func (s *Study) runBands() (*bandResults, error) {
	grid := s.World.Grid
	plan := shard.MakePlan(grid.NY, s.Cfg.Shards)
	n := plan.Shards()
	parts := make([]*risk.ShardOverlay, n)
	res := &bandResults{rows: []int{len(s.Data.T)}}
	var of []uint16 // each transceiver's band; nil for one band

	g := pipeline.New()
	if buildFaultHook != nil {
		g.SetInjectionHook(buildFaultHook)
	}
	var planned []string
	if n > 1 {
		g.Add("shards/plan", func() (err error) {
			of, res.rows, err = shard.Partition(plan, grid, len(s.Data.T), func(i int) float64 { return s.Data.T[i].XY.Y })
			return err
		})
		planned = []string{"shards/plan"}
	}
	overlays := make([]string, n)
	for i := range overlays {
		overlays[i] = fmt.Sprintf("shard%d/overlay", i)
		g.Add(overlays[i], func() error {
			b := risk.Band{Of: of, I: uint16(i)}
			b.MinY, b.MaxY = plan.YRange(grid, i)
			parts[i] = s.Analyzer.ShardOverlay(s.History, s.Season2019, b)
			return nil
		}, planned...)
	}
	g.Add("shards/merge", func() (err error) {
		res.table1, res.validation, err = risk.MergeShardOverlays(parts)
		return err
	}, overlays...)

	if err := g.Run(); err != nil {
		return nil, fmt.Errorf("fivealarms: band pass: %w", err)
	}
	return res, nil
}

// ShardStats reports the band pass's shape, running the pass on first
// use: the per-band transceiver counts in band order, and the bytes a
// band copies, which is 0 at every band count since every band joins
// the Study's own Analyzer in place. A one-band Study (Shards 0 or 1)
// reports the whole fleet as one band. The returned slice is the
// caller's own copy.
//
// ShardStats panics like Table1 if a band-pass task fails.
func (s *Study) ShardStats() (rows []int, peakBytes int64) {
	r := s.bands()
	return append([]int(nil), r.rows...), 0
}

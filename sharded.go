package fivealarms

import (
	"fmt"
	"unsafe"

	"fivealarms/internal/cellnet"
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
// max(1, Config.Shards) bands. One band joins the Study's own Analyzer
// and copies nothing; more bands each copy their rows from Data.T into
// a private Analyzer that lives only as long as the band's task.

// bandResults is the memoized output of the band pass.
type bandResults struct {
	table1     []risk.YearOverlay
	validation *risk.ValidationResult

	// rows is the per-band transceiver count, in band order.
	rows []int
	// peakBytes is the largest band's accounted copy: its AoS rows plus
	// the per-row cost of its spatial index and class/county caches (an
	// accounting figure, not measured RSS; see DESIGN.md §10). One band
	// copies nothing and accounts 0.
	peakBytes int64
}

// bandRowBytes accounts one copied row of a band: the AoS transceiver
// plus its spatial-index point (16 bytes), WHP class (1) and county
// index (4).
const bandRowBytes = int64(unsafe.Sizeof(cellnet.Transceiver{})) + 16 + 1 + 4

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
// plan first partitions the fleet by row in shards/plan. Tasks
// communicate only through their dependency edges, so the pass is
// race-free under any schedule.
func (s *Study) runBands() (*bandResults, error) {
	plan := shard.MakePlan(s.World.Grid.NY, s.Cfg.Shards)
	n := plan.Shards()
	parts := make([]*risk.ShardOverlay, n)
	res := &bandResults{rows: make([]int, n)}
	var idx [][]int // per-band indices into Data.T; nil for one band

	g := pipeline.New()
	if buildFaultHook != nil {
		g.SetInjectionHook(buildFaultHook)
	}
	var planned []string
	if n > 1 {
		g.Add("shards/plan", func() (err error) {
			ys := make([]float64, len(s.Data.T))
			for i := range s.Data.T {
				ys[i] = s.Data.T[i].XY.Y
			}
			idx, err = shard.Partition(plan, s.World.Grid, ys)
			return err
		})
		planned = []string{"shards/plan"}
	}
	overlays := make([]string, n)
	for i := range overlays {
		overlays[i] = fmt.Sprintf("shard%d/overlay", i)
		g.Add(overlays[i], func() error {
			a := s.Analyzer
			if idx != nil {
				rows := make([]cellnet.Transceiver, len(idx[i]))
				for j, k := range idx[i] {
					rows[j] = s.Data.T[k]
				}
				a = risk.New(s.World, s.WHP, cellnet.NewDataset(s.World, rows), s.Counties)
			}
			parts[i] = a.ShardOverlay(s.History(), s.Season2019())
			return nil
		}, planned...)
	}
	g.Add("shards/merge", func() (err error) {
		if res.table1, res.validation, err = risk.MergeShardOverlays(parts); err != nil {
			return err
		}
		for i, p := range parts {
			res.rows[i] = p.Rows
			if idx != nil {
				res.peakBytes = max(res.peakBytes, int64(p.Rows)*bandRowBytes)
			}
		}
		return nil
	}, overlays...)

	if err := g.Run(); err != nil {
		return nil, fmt.Errorf("fivealarms: band pass: %w", err)
	}
	return res, nil
}

// ShardStats reports the band pass's shape, running the pass on first
// use: the per-band transceiver counts in band order and the accounted
// peak per-band copy in bytes (a band's rows, spatial index and
// class/county caches). A one-band Study (Shards 0 or 1) joins its own
// Analyzer, so it reports the whole fleet as one band and 0 bytes. The
// returned slice is the caller's own copy.
//
// ShardStats panics like Table1 if a band-pass task fails.
func (s *Study) ShardStats() (rows []int, peakBytes int64) {
	r := s.bands()
	return append([]int(nil), r.rows...), r.peakBytes
}

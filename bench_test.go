package fivealarms

// This file is the benchmark harness of the reproduction: one benchmark
// per table and figure of the paper's evaluation (see the experiment
// index in DESIGN.md), plus the ablations DESIGN.md calls out. Each
// benchmark reports domain-specific metrics (counts, accuracies) through
// b.ReportMetric so `go test -bench` regenerates the paper's rows
// alongside timing. Run with:
//
//	go test -bench=. -benchmem
//
// The fixtures are laptop-scale; pass -tags or edit benchStudy for the
// full-scale configuration (PaperScale).

import (
	"testing"

	"fivealarms/internal/cellnet"
	"fivealarms/internal/conus"
	"fivealarms/internal/ecoregion"
	"fivealarms/internal/geom"
	"fivealarms/internal/powergrid"
	"fivealarms/internal/raster"
	"fivealarms/internal/whp"
	"fivealarms/internal/wildfire"
)

// benchStudy is shared by all benchmarks (built once).
var benchStudy = mustStudy(Config{Seed: 7, CellSizeM: 20000, Transceivers: 60000, MappedFiresPerSeason: 40})

// BenchmarkTable1 regenerates the historical overlay (Table 1): 19
// simulated seasons joined against the transceiver snapshot.
func BenchmarkTable1(b *testing.B) {
	seasons := benchStudy.History()
	b.ResetTimer()
	var total int
	for i := 0; i < b.N; i++ {
		rows := benchStudy.Analyzer.HistoricalOverlay(seasons)
		total = 0
		for _, r := range rows {
			total += r.TransceiversIn
		}
	}
	b.ReportMetric(float64(total), "tx-in-perimeters")
}

// BenchmarkTable2 regenerates the provider-risk breakdown (Table 2).
func BenchmarkTable2(b *testing.B) {
	var att int
	for i := 0; i < b.N; i++ {
		rows := benchStudy.Table2()
		att = rows[0].Moderate + rows[0].High + rows[0].VHigh
	}
	b.ReportMetric(float64(att), "att-at-risk")
}

// BenchmarkTable3 regenerates the radio-technology breakdown (Table 3).
func BenchmarkTable3(b *testing.B) {
	var lte int
	for i := 0; i < b.N; i++ {
		rows := benchStudy.Table3()
		for _, r := range rows {
			if r.Radio == cellnet.LTE {
				lte = r.Total
			}
		}
	}
	b.ReportMetric(float64(lte), "lte-at-risk")
}

// BenchmarkFig2Map regenerates the national transceiver-density map
// (Figure 2): binning every transceiver onto the world grid.
func BenchmarkFig2Map(b *testing.B) {
	g := benchStudy.World.Grid
	var occupied int
	for i := 0; i < b.N; i++ {
		density := raster.NewFloatGrid(g)
		for j := range benchStudy.Data.T {
			if cx, cy, ok := g.CellOf(benchStudy.Data.T[j].XY); ok {
				density.Set(cx, cy, density.At(cx, cy)+1)
			}
		}
		occupied = 0
		for _, v := range density.Data {
			if v > 0 {
				occupied++
			}
		}
	}
	b.ReportMetric(float64(occupied), "occupied-cells")
}

// BenchmarkFig3Map regenerates the 2000-2018 perimeter union map
// (Figure 3).
func BenchmarkFig3Map(b *testing.B) {
	seasons := benchStudy.History()
	b.ResetTimer()
	var burned int
	for i := 0; i < b.N; i++ {
		burned = benchStudy.Analyzer.FireUnionMask(seasons).Count()
	}
	b.ReportMetric(float64(burned), "burned-cells")
}

// BenchmarkFig4Overlay regenerates the transceivers-in-perimeters join
// (Figure 4, the >27,000 total).
func BenchmarkFig4Overlay(b *testing.B) {
	seasons := benchStudy.History()
	b.ResetTimer()
	var total int
	for i := 0; i < b.N; i++ {
		rows := benchStudy.Analyzer.HistoricalOverlay(seasons)
		total = 0
		for _, r := range rows {
			total += r.TransceiversIn
		}
	}
	b.ReportMetric(float64(total), "tx-2000-2018")
}

// BenchmarkFig5CaseStudy regenerates the PSPS outage series (Figure 5).
// The first iteration builds the California network; every later one
// times the analysis over the analyzer's memoized topology (battery
// re-draw, simulation and DIRS aggregation). BenchmarkBuildNetwork in
// internal/powergrid times the cold build.
func BenchmarkFig5CaseStudy(b *testing.B) {
	season := benchStudy.Season2019()
	b.ResetTimer()
	var peak int
	var share float64
	for i := 0; i < b.N; i++ {
		cs := benchStudy.Analyzer.CaseStudyFall2019(season, powergrid.NetConfig{Seed: 7}, 7)
		peak = cs.PeakOut
		share = cs.PeakPowerShare
	}
	b.ReportMetric(float64(peak), "peak-sites-out")
	b.ReportMetric(share*100, "peak-power-share-pct")
}

// BenchmarkFig6WHP regenerates the national WHP raster (Figure 6).
func BenchmarkFig6WHP(b *testing.B) {
	var atRiskCells int
	for i := 0; i < b.N; i++ {
		m := whp.Build(benchStudy.World, benchStudy.World.Grid, whp.Config{})
		atRiskCells = m.AtRiskMask().Count()
	}
	b.ReportMetric(float64(atRiskCells), "at-risk-cells")
}

// BenchmarkFig7Overlay regenerates the per-class totals (Figure 7).
func BenchmarkFig7Overlay(b *testing.B) {
	var m, h, vh int
	for i := 0; i < b.N; i++ {
		res := benchStudy.WHPOverlay()
		m = res.ByClass[whp.Moderate]
		h = res.ByClass[whp.High]
		vh = res.ByClass[whp.VeryHigh]
	}
	b.ReportMetric(float64(m), "moderate")
	b.ReportMetric(float64(h), "high")
	b.ReportMetric(float64(vh), "very-high")
}

// BenchmarkFig8States regenerates the state ranking (Figure 8).
func BenchmarkFig8States(b *testing.B) {
	var caCount int
	for i := 0; i < b.N; i++ {
		top := benchStudy.WHPOverlay().TopStatesAtRisk()
		caCount = top[0].Count
	}
	b.ReportMetric(float64(caCount), "top-state-count")
}

// BenchmarkFig9PerCapita regenerates the per-capita ranking (Figure 9).
func BenchmarkFig9PerCapita(b *testing.B) {
	var lead float64
	for i := 0; i < b.N; i++ {
		pc := benchStudy.WHPOverlay().PerCapita(whp.VeryHigh)
		if len(pc) > 0 {
			lead = pc[0].PerThousand
		}
	}
	b.ReportMetric(lead, "top-per-1000")
}

// BenchmarkFig10Impact regenerates the WHP x density matrix (Figure 10).
func BenchmarkFig10Impact(b *testing.B) {
	var vd int
	for i := 0; i < b.N; i++ {
		vd = benchStudy.Impact().VeryDenseTotal()
	}
	b.ReportMetric(float64(vd), "at-risk-in-popvh")
}

// BenchmarkFig11Maps regenerates the three filtered map panels of
// Figure 11 (counts per filter combination).
func BenchmarkFig11Maps(b *testing.B) {
	var all, vd, vhvd int
	for i := 0; i < b.N; i++ {
		m := benchStudy.Impact()
		all = m.PopulousTotal()
		vd = m.VeryDenseTotal()
		vhvd = m.Counts[2][2]
	}
	b.ReportMetric(float64(all), "panel-left")
	b.ReportMetric(float64(vd), "panel-center")
	b.ReportMetric(float64(vhvd), "panel-right")
}

// BenchmarkFig12Metros regenerates the metro comparison (Figure 12).
func BenchmarkFig12Metros(b *testing.B) {
	var laTotal int
	for i := 0; i < b.N; i++ {
		rows := benchStudy.Metros()
		laTotal = rows[0].Total()
	}
	b.ReportMetric(float64(laTotal), "top-metro-at-risk")
}

// BenchmarkFig13MetroMaps regenerates the three detail windows of
// Figure 13 (SF/Sacramento, LA/SD, Orlando).
func BenchmarkFig13MetroMaps(b *testing.B) {
	windows := []struct {
		name    string
		anchor  geom.Point
		radiusM float64
	}{
		{"sf-sac", geom.Point{X: -121.8, Y: 38.2}, 150000},
		{"la-sd", geom.Point{X: -117.6, Y: 33.5}, 150000},
		{"orlando", geom.Point{X: -81.4, Y: 28.5}, 120000},
	}
	var total int
	for i := 0; i < b.N; i++ {
		total = 0
		for _, w := range windows {
			counts := benchStudy.Analyzer.MetroWindowCount(w.anchor, w.radiusM)
			for c, n := range counts {
				if c.AtRisk() {
					total += n
				}
			}
		}
	}
	b.ReportMetric(float64(total), "window-at-risk")
}

// BenchmarkFig14Future regenerates the corridor projection (Figure 14).
func BenchmarkFig14Future(b *testing.B) {
	corridor := ecoregion.BuildCorridor(benchStudy.World)
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		res := benchStudy.Analyzer.FutureRisk(corridor)
		n = res.CorridorTransceivers
	}
	b.ReportMetric(float64(n), "corridor-tx")
}

// BenchmarkFig15Corridor regenerates the corridor WHP zonal counts
// (Figure 15).
func BenchmarkFig15Corridor(b *testing.B) {
	corridor := ecoregion.BuildCorridor(benchStudy.World)
	b.ResetTimer()
	var atRisk int
	for i := 0; i < b.N; i++ {
		counts := benchStudy.Analyzer.CorridorWHPCounts(corridor)
		atRisk = counts[whp.Moderate] + counts[whp.High] + counts[whp.VeryHigh]
	}
	b.ReportMetric(float64(atRisk), "corridor-at-risk")
}

// BenchmarkValidation regenerates the §3.4 hold-out validation.
func BenchmarkValidation(b *testing.B) {
	season := benchStudy.Season2019()
	b.ResetTimer()
	var acc float64
	for i := 0; i < b.N; i++ {
		acc = benchStudy.Analyzer.Validate(season).AccuracyPct()
	}
	b.ReportMetric(acc, "accuracy-pct")
}

// BenchmarkExtension regenerates the §3.8 half-mile extension.
func BenchmarkExtension(b *testing.B) {
	season := benchStudy.Season2019()
	dist := 2.5 * benchStudy.World.Grid.CellSize
	b.ResetTimer()
	var before, after float64
	for i := 0; i < b.N; i++ {
		res := benchStudy.Analyzer.ExtendAndValidate(season, dist)
		before = res.Before.AccuracyPct()
		after = res.After.AccuracyPct()
	}
	b.ReportMetric(before, "accuracy-before-pct")
	b.ReportMetric(after, "accuracy-after-pct")
}

// BenchmarkMitigationSweep regenerates the §3.10 backup-power ablation.
// After the first iteration it times the sweep over the memoized network:
// one battery re-draw and one simulation per level.
func BenchmarkMitigationSweep(b *testing.B) {
	season := benchStudy.Season2019()
	b.ResetTimer()
	var saved int
	for i := 0; i < b.N; i++ {
		pts := benchStudy.Analyzer.MitigationSweep(season, []float64{4, 72}, 7)
		saved = pts[0].PeakPowerOut - pts[1].PeakPowerOut
	}
	b.ReportMetric(float64(saved), "sites-saved-by-72h")
}

// BenchmarkCoverage regenerates the abstract's "population served by
// at-risk transceivers" figure (§3.11 coverage framing).
func BenchmarkCoverage(b *testing.B) {
	var served float64
	for i := 0; i < b.N; i++ {
		served = benchStudy.Coverage(0).AtRiskServedPopulation
	}
	b.ReportMetric(served/1e6, "at-risk-served-Mpop")
}

// BenchmarkWUI regenerates the §3.7 WUI concentration.
func BenchmarkWUI(b *testing.B) {
	var conc float64
	for i := 0; i < b.N; i++ {
		conc = benchStudy.WUI().Concentration()
	}
	b.ReportMetric(conc, "wui-concentration")
}

// BenchmarkEscape regenerates the §3.11 HOT escape probabilities.
func BenchmarkEscape(b *testing.B) {
	var top float64
	for i := 0; i < b.N; i++ {
		rows := benchStudy.Escape(0)
		if len(rows) > 0 {
			top = rows[0].Escape
		}
	}
	b.ReportMetric(top*100, "top-escape-pct")
}

// BenchmarkHarden regenerates the §3.10 hardening priority plan.
func BenchmarkHarden(b *testing.B) {
	var protected float64
	for i := 0; i < b.N; i++ {
		protected = benchStudy.Harden(10).ProtectedPopulation
	}
	b.ReportMetric(protected/1e6, "protected-Mpop")
}

// --- Ablations (design choices called out in DESIGN.md) ---

// BenchmarkAblationIndexedOverlay measures the production perimeter
// join, Analyzer.TransceiversInFire: a grid.Index query by the fire's
// bounding box, then the fire's burned-cell containment test
// (wildfire.Fire.Contains).
func BenchmarkAblationIndexedOverlay(b *testing.B) {
	season := benchStudy.Sim.Season(wildfire.SeasonConfig{
		Seed: 5, Year: 2018, TotalFires: 58083, TotalAcres: 8.8e6, MappedFires: 20,
	})
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		n = 0
		for fi := range season.Mapped {
			n += len(benchStudy.Analyzer.TransceiversInFire(&season.Mapped[fi]))
		}
	}
	b.ReportMetric(float64(n), "tx-found")
}

// BenchmarkAblationBruteOverlay measures the same join testing every
// transceiver against every perimeter (no index).
func BenchmarkAblationBruteOverlay(b *testing.B) {
	season := benchStudy.Sim.Season(wildfire.SeasonConfig{
		Seed: 5, Year: 2018, TotalFires: 58083, TotalAcres: 8.8e6, MappedFires: 20,
	})
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		n = 0
		for fi := range season.Mapped {
			f := &season.Mapped[fi]
			bb := f.BBox()
			for ti := range benchStudy.Data.T {
				p := benchStudy.Data.T[ti].XY
				if bb.ContainsPoint(p) && f.Perimeter.ContainsPoint(p) {
					n++
				}
			}
		}
	}
	b.ReportMetric(float64(n), "tx-found")
}

// BenchmarkAblationDistanceTransform measures the exact EDT dilation
// behind the §3.8 buffer: the Very High WHP mask grown by three cells.
func BenchmarkAblationDistanceTransform(b *testing.B) {
	vh := benchStudy.WHP.ClassMask(whp.VeryHigh)
	dist := 3 * benchStudy.World.Grid.CellSize
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = raster.DilateByDistance(vh, dist)
	}
}

// BenchmarkAblationRasterResolution sweeps the WHP raster cell size
// (cost scales quadratically; class shares should stay stable).
func BenchmarkAblationRasterResolution(b *testing.B) {
	for _, cell := range []float64{40000, 20000, 10000} {
		cell := cell
		b.Run(byteSize(cell), func(b *testing.B) {
			w := conus.Build(conus.Config{Seed: 7, CellSizeM: cell})
			b.ResetTimer()
			var atRisk int
			for i := 0; i < b.N; i++ {
				m := whp.Build(w, w.Grid, whp.Config{})
				atRisk = m.AtRiskMask().Count()
			}
			b.ReportMetric(float64(atRisk)*cell*cell/1e6, "at-risk-km2")
		})
	}
}

// BenchmarkAblationHOTAlpha sweeps the fire-size tail exponent: heavier
// tails (smaller alpha) concentrate burned area in fewer, larger fires,
// raising the variance behind Table 1.
func BenchmarkAblationHOTAlpha(b *testing.B) {
	for _, alpha := range []float64{0.9, 1.15, 1.5} {
		alpha := alpha
		b.Run(byteSize(alpha*100), func(b *testing.B) {
			var largestShare float64
			for i := 0; i < b.N; i++ {
				s := benchStudy.Sim.Season(wildfire.SeasonConfig{
					Seed: uint64(i + 1), Year: 2012, TotalFires: 67774,
					TotalAcres: 9.3e6, MappedFires: 30, Alpha: alpha,
				})
				var largest, sum float64
				for fi := range s.Mapped {
					sum += s.Mapped[fi].Acres
					if s.Mapped[fi].Acres > largest {
						largest = s.Mapped[fi].Acres
					}
				}
				if sum > 0 {
					largestShare = largest / sum
				}
			}
			b.ReportMetric(largestShare*100, "largest-fire-share-pct")
		})
	}
}

// BenchmarkAblationGridCellSize sweeps the point-index cell size.
func BenchmarkAblationGridCellSize(b *testing.B) {
	region := benchStudy.Analyzer.CaliforniaRegion()
	for _, factor := range []float64{0.25, 1, 4} {
		factor := factor
		b.Run(byteSize(factor*100), func(b *testing.B) {
			pts := make([]geom.Point, benchStudy.Data.Len())
			for i := range benchStudy.Data.T {
				pts[i] = benchStudy.Data.T[i].XY
			}
			idx := newGridIndex(pts, factor)
			b.ResetTimer()
			var n int
			for i := 0; i < b.N; i++ {
				n = len(idx.Query(region, nil))
			}
			b.ReportMetric(float64(n), "hits")
		})
	}
}

func byteSize(v float64) string {
	return "p" + itoa(int(v))
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

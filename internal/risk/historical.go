package risk

import (
	"slices"

	"fivealarms/internal/geom"
	"fivealarms/internal/pipeline"
	"fivealarms/internal/raster"
	"fivealarms/internal/wildfire"
)

// YearOverlay is one row of the Table 1 reproduction: the transceivers
// whose locations fall inside that season's mapped fire perimeters.
type YearOverlay struct {
	Year            int
	Fires           int
	AcresBurned     float64
	TransceiversIn  int
	PerMillionAcres float64
}

// overlaySeason joins one season's perimeters against band b of the
// transceiver set: Table 1's row for the season, or the band's share of
// its count.
func (a *Analyzer) overlaySeason(s *wildfire.Season, b Band) YearOverlay {
	count := len(a.seasonHits(s, b, nil))
	perM := 0.0
	if s.TotalAcres > 0 {
		perM = float64(count) / (s.TotalAcres / 1e6)
	}
	return YearOverlay{
		Year:            s.Year,
		Fires:           s.TotalFires,
		AcresBurned:     s.TotalAcres,
		TransceiversIn:  count,
		PerMillionAcres: perM,
	}
}

// HistoricalOverlay joins the transceiver set against each season's
// perimeters (Table 1, Figure 4), one band per season (pipeline.Bands).
// Seasons are independent joins over read-only layers, so the result is
// bit-identical at any GOMAXPROCS.
func (a *Analyzer) HistoricalOverlay(seasons []*wildfire.Season) []YearOverlay {
	return a.historicalOverlay(seasons, wholeFleet)
}

// historicalOverlay is HistoricalOverlay over band b of the fleet.
func (a *Analyzer) historicalOverlay(seasons []*wildfire.Season, b Band) []YearOverlay {
	out := make([]YearOverlay, len(seasons))
	pipeline.Bands(pipeline.BandFunc(func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = a.overlaySeason(seasons[i], b)
		}
	}), len(seasons), len(seasons))
	return out
}

// TotalInPerimeters sums the per-year counts (the paper's ">27,000
// transceivers 2000-2018", Figure 4).
func TotalInPerimeters(rows []YearOverlay) int {
	t := 0
	for _, r := range rows {
		t += r.TransceiversIn
	}
	return t
}

// TransceiversInFire returns the indices of transceivers inside one
// fire's perimeter.
func (a *Analyzer) TransceiversInFire(f *wildfire.Fire) []int {
	return a.fireHits(f, wholeFleet, nil)
}

// fireHits appends to dst, in index order, the transceivers of band b
// inside f's perimeter. The index is queried by the perimeter's
// bounding box clipped to the band's y range, which holds every
// transceiver of the band, and a candidate must be in the band.
func (a *Analyzer) fireHits(f *wildfire.Fire, b Band, dst []int) []int {
	box := f.BBox()
	box.MinY, box.MaxY = max(box.MinY, b.MinY), min(box.MaxY, b.MaxY)
	a.Data.Index.Visit(box, func(ti int) bool {
		if b.holds(ti) && f.Contains(a.Data.T[ti].XY) {
			dst = append(dst, ti)
		}
		return true
	})
	return dst
}

// seasonHits returns, ascending, the distinct transceivers of band b
// inside the perimeters of the season's mapped fires that keep accepts
// (nil keeps every fire). A transceiver inside several of those
// perimeters appears once, matching the paper's "within wildfire
// perimeters" semantics.
func (a *Analyzer) seasonHits(s *wildfire.Season, b Band, keep func(*wildfire.Fire) bool) []int {
	var hits []int
	for fi := range s.Mapped {
		if f := &s.Mapped[fi]; keep == nil || keep(f) {
			hits = a.fireHits(f, b, hits)
		}
	}
	slices.Sort(hits)
	return slices.Compact(hits)
}

// SeasonPerimeters flattens every mapped fire's perimeter polygons
// across the seasons into one slice, so the whole study period
// rasterizes as a single fused sweep.
func SeasonPerimeters(seasons []*wildfire.Season) []geom.Polygon {
	n := 0
	for _, s := range seasons {
		for fi := range s.Mapped {
			n += len(s.Mapped[fi].Perimeter)
		}
	}
	polys := make([]geom.Polygon, 0, n)
	for _, s := range seasons {
		for fi := range s.Mapped {
			polys = append(polys, s.Mapped[fi].Perimeter...)
		}
	}
	return polys
}

// FireUnionMask rasterizes the union of all seasons' perimeters onto the
// world grid — the data behind Figure 3's perimeter map. All perimeters
// fill into one shared mask in a single fused sweep; no per-fire grids
// are allocated.
func (a *Analyzer) FireUnionMask(seasons []*wildfire.Season) *raster.BitGrid {
	union := raster.NewBitGrid(a.World.Grid)
	raster.FillPolygonsInto(union, SeasonPerimeters(seasons))
	return union
}

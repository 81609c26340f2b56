package risk

import (
	"runtime"
	"sync"
	"sync/atomic"

	"fivealarms/internal/geom"
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

// overlayScratch is the per-worker reusable state of the seasonal join:
// the visited mask (reset sparsely through touched after every season)
// and the candidate buffer the grid index fills.
type overlayScratch struct {
	visited []bool
	touched []int
	buf     []int
}

func newOverlayScratch(n int) *overlayScratch {
	return &overlayScratch{visited: make([]bool, n)}
}

// overlaySeason joins one season's perimeters against the transceiver
// set. A transceiver inside several perimeters of the season counts
// once, matching the paper's "within wildfire perimeters" semantics.
func (a *Analyzer) overlaySeason(s *wildfire.Season, sc *overlayScratch) YearOverlay {
	count := 0
	sc.touched = sc.touched[:0]
	for fi := range s.Mapped {
		f := &s.Mapped[fi]
		prep := f.PreparedPerimeter()
		sc.buf = a.Data.Index.Query(prep.BBox(), sc.buf[:0])
		for _, ti := range sc.buf {
			if sc.visited[ti] {
				continue
			}
			if prep.Contains(a.Data.T[ti].XY) {
				sc.visited[ti] = true
				sc.touched = append(sc.touched, ti)
				count++
			}
		}
	}
	for _, ti := range sc.touched {
		sc.visited[ti] = false
	}
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
// perimeters (Table 1, Figure 4) across min(GOMAXPROCS, len(seasons))
// workers. Each worker joins whole seasons with its own visited/candidate
// scratch, the same pattern wildfire.SimulateHistory uses for the season
// simulations; with one worker the join runs inline. Seasons are
// independent joins over read-only layers, so the result is
// bit-identical at any GOMAXPROCS.
func (a *Analyzer) HistoricalOverlay(seasons []*wildfire.Season) []YearOverlay {
	workers := min(runtime.GOMAXPROCS(0), len(seasons))
	out := make([]YearOverlay, len(seasons))
	if workers <= 1 {
		sc := newOverlayScratch(a.Data.Len())
		for i, s := range seasons {
			out[i] = a.overlaySeason(s, sc)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := newOverlayScratch(a.Data.Len())
			for {
				i := int(next.Add(1)) - 1
				if i >= len(seasons) {
					return
				}
				out[i] = a.overlaySeason(seasons[i], sc)
			}
		}()
	}
	wg.Wait()
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
	var out []int
	prep := f.PreparedPerimeter()
	cand := a.Data.Index.Query(prep.BBox(), nil)
	for _, ti := range cand {
		if prep.Contains(a.Data.T[ti].XY) {
			out = append(out, ti)
		}
	}
	return out
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

// FireDistance computes, for every grid cell, the distance in meters to
// the nearest cell burned by any of the seasons' fires — the field
// behind the risk server's fire-distance queries. The perimeter union
// and its distance transform run as one fused sweep: the intermediate
// burn mask lives in the raster scratch arena and is released before
// returning, so only the distance grid is allocated.
func (a *Analyzer) FireDistance(seasons []*wildfire.Season) *raster.FloatGrid {
	mask := raster.AcquireBitGrid(a.World.Grid)
	raster.FillPolygonsInto(mask, SeasonPerimeters(seasons))
	dist := raster.NewFloatGrid(a.World.Grid)
	// The error is impossible: dist was just built on the mask's geometry.
	_ = raster.DistanceTransformInto(dist, mask) //fivealarms:allow(errflow) dist was just built on the mask's geometry, the only error the kernel can report
	raster.ReleaseBitGrid(mask)
	return dist
}

package risk

import (
	"fivealarms/internal/ecoregion"
	"fivealarms/internal/whp"
)

// FutureRow is one ecoregion of the §3.9 corridor analysis (Figures 14
// and 15).
type FutureRow struct {
	Ecoregion    string
	DeltaPct     float64
	Transceivers int
	// AtRiskNow counts corridor transceivers whose current hazard clears
	// the moderate threshold; AtRiskFuture applies the ecoregion scaling
	// first.
	AtRiskNow    int
	AtRiskFuture int
	// MeanHazardNow/Future are the zone averages over its transceivers.
	MeanHazardNow    float64
	MeanHazardFuture float64
}

// FutureResult is the corridor projection.
type FutureResult struct {
	Rows []FutureRow
	// CorridorTransceivers is the total inside the corridor bounds.
	CorridorTransceivers int
	// OutsideZones counts corridor transceivers not covered by any
	// ecoregion zone.
	OutsideZones int
}

// FutureRisk projects the SLC-Denver corridor's infrastructure exposure
// through the Littell ecoregion deltas. A hazard at or above the WHP's
// Low|Moderate cut (whp.ModerateCut) is "at risk".
func (a *Analyzer) FutureRisk(c *ecoregion.Corridor) *FutureResult {
	res := &FutureResult{}
	rows := make([]FutureRow, len(c.Regions))
	for i, r := range c.Regions {
		rows[i] = FutureRow{Ecoregion: r.Name, DeltaPct: r.DeltaPct}
	}

	var buf []int
	buf = a.Data.Index.Query(c.Bounds(), buf[:0])
	for _, ti := range buf {
		p := a.Data.T[ti].XY
		res.CorridorTransceivers++
		ri := c.RegionAt(p)
		if ri < 0 {
			res.OutsideZones++
			continue
		}
		row := &rows[ri]
		row.Transceivers++
		now := a.WHP.HazardAt(p)
		future := c.FutureHazard(p, now)
		row.MeanHazardNow += now
		row.MeanHazardFuture += future
		if now >= whp.ModerateCut {
			row.AtRiskNow++
		}
		if future >= whp.ModerateCut {
			row.AtRiskFuture++
		}
	}
	for i := range rows {
		if rows[i].Transceivers > 0 {
			rows[i].MeanHazardNow /= float64(rows[i].Transceivers)
			rows[i].MeanHazardFuture /= float64(rows[i].Transceivers)
		}
	}
	res.Rows = rows
	return res
}

// CorridorWHPCounts returns the corridor's transceivers per current WHP
// class (the Figure 15 overlay of present hazard on the corridor).
func (a *Analyzer) CorridorWHPCounts(c *ecoregion.Corridor) map[whp.Class]int {
	out := map[whp.Class]int{}
	for _, ti := range a.Data.Index.Query(c.Bounds(), nil) {
		out[a.classOf[ti]]++
	}
	return out
}

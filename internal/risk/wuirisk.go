package risk

import (
	"fivealarms/internal/geodata"
	"fivealarms/internal/geom"
	"fivealarms/internal/wui"
)

// WUIResult quantifies §3.7's key finding: at-risk cell infrastructure
// concentrates in the Wildland-Urban Interface along city edges.
type WUIResult struct {
	// AtRiskInWUI / AtRiskTotal give the WUI share of at-risk
	// transceivers.
	AtRiskInWUI int
	AtRiskTotal int
	// AllInWUI / AllTotal give the WUI share of the whole fleet, the
	// baseline the concentration is measured against.
	AllInWUI int
	AllTotal int
	// WUIPopulation is the population living in WUI cells (Radeloff et
	// al. report roughly one in three US homes in the WUI).
	WUIPopulation float64
	// MetroWUI counts at-risk transceivers in WUI cells per paper metro.
	MetroWUI map[string]int
}

// AtRiskWUIShare returns the fraction of at-risk transceivers in the WUI.
func (r *WUIResult) AtRiskWUIShare() float64 {
	if r.AtRiskTotal == 0 {
		return 0
	}
	return float64(r.AtRiskInWUI) / float64(r.AtRiskTotal)
}

// BaselineWUIShare returns the fraction of all transceivers in the WUI.
func (r *WUIResult) BaselineWUIShare() float64 {
	if r.AllTotal == 0 {
		return 0
	}
	return float64(r.AllInWUI) / float64(r.AllTotal)
}

// Concentration returns how over-represented the WUI is among at-risk
// transceivers relative to the fleet baseline (> 1 = concentrated).
func (r *WUIResult) Concentration() float64 {
	b := r.BaselineWUIShare()
	if b == 0 {
		return 0
	}
	return r.AtRiskWUIShare() / b
}

// WUIAnalysis builds the WUI layer and measures the concentration of
// at-risk infrastructure inside it.
func (a *Analyzer) WUIAnalysis() *WUIResult {
	m := wui.Build(a.World, a.Population(), a.WHP)
	res := &WUIResult{
		AllTotal:      a.Data.Len(),
		WUIPopulation: m.Population(),
		MetroWUI:      map[string]int{},
	}
	inWUI := make([]bool, a.Data.Len())
	for i := range a.Data.T {
		if m.ClassAt(a.Data.T[i].XY).IsWUI() {
			inWUI[i] = true
			res.AllInWUI++
		}
		if a.classOf[i].AtRisk() {
			res.AtRiskTotal++
			if inWUI[i] {
				res.AtRiskInWUI++
			}
		}
	}
	var buf []int
	for _, mw := range geodata.PaperMetros {
		center := a.World.ToXY(geom.Point{X: mw.AnchorLon, Y: mw.AnchorLat})
		buf = a.Data.Index.QueryRadius(center, mw.RadiusKM*1000, buf[:0])
		n := 0
		for _, ti := range buf {
			if inWUI[ti] && a.classOf[ti].AtRisk() {
				n++
			}
		}
		res.MetroWUI[mw.Name] = n
	}
	return res
}

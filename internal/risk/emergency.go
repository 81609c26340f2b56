package risk

import (
	"fivealarms/internal/coverage"
	"fivealarms/internal/geom"
	"fivealarms/internal/powergrid"
	"fivealarms/internal/wildfire"
)

// EmergencyImpact quantifies the §3.10 motivation — 80 % of California's
// 911 calls are wireless — by crossing the PSPS outage simulation with
// the coverage model: how many people had no in-service cell site in
// reach, day by day.
type EmergencyImpact struct {
	// DayLabels and StrandedByDay align with the scenario days.
	DayLabels     []string
	StrandedByDay []float64
	// PeakStranded is the worst day's stranded population.
	PeakStranded float64
	// PersonDays integrates stranded population over the event.
	PersonDays float64
	// WirelessOnlyShare is the assumed fraction of the population whose
	// only 911 path is cellular (the paper cites 80 % of CA 911 calls).
	WirelessOnlyShare float64
	// At911Risk is PersonDays scaled by WirelessOnlyShare: person-days
	// with no cellular 911 path.
	At911Risk float64
}

// EmergencyAnalysis runs the fall-2019 case study and evaluates the
// population left without any in-service site each day.
// wirelessShare 0 selects the paper's 0.80.
func (a *Analyzer) EmergencyAnalysis(season *wildfire.Season, netCfg powergrid.NetConfig,
	seed uint64, wirelessShare float64) *EmergencyImpact {
	if wirelessShare <= 0 || wirelessShare > 1 {
		wirelessShare = 0.80
	}
	region := a.CaliforniaRegion()
	net := a.CaliforniaNetwork(netCfg)

	var fires []*wildfire.Fire
	for i := range season.Mapped {
		if region.Intersects(season.Mapped[i].BBox()) {
			fires = append(fires, &season.Mapped[i])
		}
	}
	sc := powergrid.NewFall2019Scenario(fires)
	outcome := net.Simulate(sc, seed)

	model := coverage.New(a.World, a.Population(), 0)
	res := &EmergencyImpact{WirelessOnlyShare: wirelessShare}
	for d := range outcome.Causes {
		var up, down []geom.Point
		for i := range net.Sites {
			if outcome.Causes[d][i] == powergrid.None {
				up = append(up, net.Sites[i].XY)
			} else {
				down = append(down, net.Sites[i].XY)
			}
		}
		imp := model.Evaluate(up, down)
		res.DayLabels = append(res.DayLabels, powergrid.Fall2019DayLabels[d%len(powergrid.Fall2019DayLabels)])
		res.StrandedByDay = append(res.StrandedByDay, imp.StrandedPopulation)
		res.PersonDays += imp.StrandedPopulation
		if imp.StrandedPopulation > res.PeakStranded {
			res.PeakStranded = imp.StrandedPopulation
		}
	}
	res.At911Risk = res.PersonDays * wirelessShare
	return res
}

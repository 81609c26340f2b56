package risk

import (
	"fivealarms/internal/dirs"
	"fivealarms/internal/geom"
	"fivealarms/internal/powergrid"
	"fivealarms/internal/wildfire"
)

// CaseStudyResult reproduces §3.2 / Figure 5: the fall-2019 California
// PSPS event's daily cell-site outages by cause.
type CaseStudyResult struct {
	Series  *dirs.Series
	Reports []dirs.Report
	// Network/site context.
	Sites       int
	Substations int
	// Headline numbers.
	PeakDay        int
	PeakOut        int
	PeakPowerShare float64
	FinalOut       int
	FinalDamaged   int
	Counties       int
}

// CaliforniaRegion returns the projected bounding box of the case-study
// region.
func (a *Analyzer) CaliforniaRegion() geom.BBox {
	sw := a.World.ToXY(geom.Point{X: -124.5, Y: 32.3})
	ne := a.World.ToXY(geom.Point{X: -114.0, Y: 42.1})
	return geom.NewBBox(sw, ne)
}

// CaliforniaNetwork returns the power network BuildNetwork builds for the
// case-study region with cfg. The topology — substations, their hazard,
// the wiring and the backhaul endpoints — does not depend on the battery
// mean (see powergrid.BuildNetwork), so it is built once per cfg.Seed as
// passed and shared by every call and by the PSPS analyses; each call
// draws only the sites' battery hours, at cfg.MeanBatteryHours. The
// shared Substations and SubstationHazard are read-only; the returned
// Sites are the caller's own.
func (a *Analyzer) CaliforniaNetwork(cfg powergrid.NetConfig) *powergrid.Network {
	topology := a.networks.Get(cfg.Seed, func() *powergrid.Network {
		return powergrid.BuildNetwork(a.Data, a.WHP, a.CaliforniaRegion(), powergrid.NetConfig{Seed: cfg.Seed})
	})
	return topology.WithBatteryHours(cfg.MeanBatteryHours)
}

// CaseStudyFall2019 takes the California power network, attaches the
// 2019 season's fires, simulates the PSPS event and aggregates DIRS
// reports.
func (a *Analyzer) CaseStudyFall2019(season *wildfire.Season, netCfg powergrid.NetConfig, seed uint64) *CaseStudyResult {
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
	reports := dirs.BuildReports(net, outcome, a.Counties, powergrid.Fall2019DayLabels)
	series := dirs.Aggregate(reports, len(sc.Days), powergrid.Fall2019DayLabels)

	peakDay, peakOut := series.Peak()
	last := len(sc.Days) - 1
	return &CaseStudyResult{
		Series:         series,
		Reports:        reports,
		Sites:          len(net.Sites),
		Substations:    len(net.Substations),
		PeakDay:        peakDay,
		PeakOut:        peakOut,
		PeakPowerShare: series.PowerShare(peakDay),
		FinalOut:       series.Total(last),
		FinalDamaged:   series.Damage[last],
		Counties:       dirs.CountiesReporting(reports),
	}
}

// MitigationPoint is one step of the backup-power ablation (§3.10): peak
// outages as a function of site battery endurance.
type MitigationPoint struct {
	MeanBatteryHours float64
	PeakOut          int
	PeakPowerOut     int
}

// MitigationSweep re-runs the case study across battery-endurance
// settings, quantifying the paper's first mitigation lever (multi-day
// backup power).
func (a *Analyzer) MitigationSweep(season *wildfire.Season, hours []float64, seed uint64) []MitigationPoint {
	region := a.CaliforniaRegion()
	var fires []*wildfire.Fire
	for i := range season.Mapped {
		if region.Intersects(season.Mapped[i].BBox()) {
			fires = append(fires, &season.Mapped[i])
		}
	}
	sc := powergrid.NewFall2019Scenario(fires)

	out := make([]MitigationPoint, 0, len(hours))
	for _, h := range hours {
		net := a.CaliforniaNetwork(powergrid.NetConfig{Seed: seed, MeanBatteryHours: h})
		o := net.Simulate(sc, seed)
		day, peak := o.PeakDay()
		out = append(out, MitigationPoint{
			MeanBatteryHours: h,
			PeakOut:          peak,
			PeakPowerOut:     o.OutByCause[day][powergrid.PowerLoss],
		})
	}
	return out
}

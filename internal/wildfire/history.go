package wildfire

import (
	"context"
	"fmt"

	"fivealarms/internal/geodata"
	"fivealarms/internal/geom"
	"fivealarms/internal/pipeline"
)

// historyConfigs lists the 2000-2018 season configurations oldest-first
// (Table 1 is listed newest-first).
func historyConfigs(seed uint64, mappedPerSeason int) []SeasonConfig {
	out := make([]SeasonConfig, 0, len(geodata.PaperTable1))
	for i := len(geodata.PaperTable1) - 1; i >= 0; i-- {
		row := geodata.PaperTable1[i]
		out = append(out, SeasonConfig{
			Seed:        seed,
			Year:        row.Year,
			TotalFires:  row.Fires,
			TotalAcres:  row.AcresBurnedM * 1e6,
			MappedFires: mappedPerSeason,
		})
	}
	return out
}

// SimulateHistory runs the 2000-2018 seasons with fire counts and burned
// acres calibrated to the paper's Table 1 marginals. mappedPerSeason
// controls simulation cost (0 selects the default). Seasons fan out as
// one band each (pipeline.Bands) over at most GOMAXPROCS goroutines.
// Every season draws from its own rng stream keyed by year and the
// simulator is read-only after construction, so the output is
// bit-identical at any GOMAXPROCS — only wall-clock time changes.
//
// Cancellation is honored between seasons: ctx is checked before each
// season starts, so a cancelled ctx skips the seasons not yet begun,
// the seasons already in flight run to completion (a season is the
// cancellation granularity), and the call returns a nil slice with an
// error wrapping ctx.Err() and the progress made — partial histories
// never escape.
func SimulateHistory(ctx context.Context, sim *Simulator, seed uint64, mappedPerSeason int) ([]*Season, error) {
	cfgs := historyConfigs(seed, mappedPerSeason)
	out := make([]*Season, len(cfgs))
	pipeline.Bands(pipeline.BandFunc(func(_, lo, hi int) {
		for i := lo; i < hi && ctx.Err() == nil; i++ {
			out[i] = sim.Season(cfgs[i])
		}
	}), len(cfgs), len(cfgs))
	if err := ctx.Err(); err != nil {
		done := 0
		for _, s := range out {
			if s != nil {
				done++
			}
		}
		// A context that fired only after the last season completed did
		// not cost us anything: the full history is valid.
		if done != len(cfgs) {
			return nil, fmt.Errorf("wildfire: history simulation cancelled after %d of %d seasons: %w", done, len(cfgs), err)
		}
	}
	return out, nil
}

// Simulate2019 runs the held-out validation season: the named anchor
// fires of §3.2/§3.4 (Kincade, Getty, and the road-corridor Saddle Ridge
// and Tick fires) pinned at their real locations, plus a background of
// additional 2019 fires. 2019 burned ~4.66M acres nationally.
func Simulate2019(sim *Simulator, seed uint64, mappedFires int) *Season {
	forced := make([]ForcedIgnition, 0, len(geodata.PaperFires2019))
	for _, f := range geodata.PaperFires2019 {
		forced = append(forced, ForcedIgnition{
			Name:   f.Name,
			LonLat: geom.Point{X: f.Lon, Y: f.Lat},
			Acres:  f.Acres,
			// Santa Ana/Diablo: offshore winds blowing to the southwest,
			// strong enough to drive the fire across low-fuel fringes
			// toward the built-up areas.
			WindDeg:      225,
			WindStrength: 2.2,
		})
	}
	return sim.Season(SeasonConfig{
		Seed:            seed,
		Year:            2019,
		TotalFires:      50477,
		TotalAcres:      4.664e6,
		MappedFires:     mappedFires,
		ForcedIgnitions: forced,
	})
}

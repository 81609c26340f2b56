package cellnet

import (
	"math"
	"runtime"

	"fivealarms/internal/conus"
	"fivealarms/internal/geodata"
	"fivealarms/internal/geom"
	"fivealarms/internal/pipeline"
	"fivealarms/internal/rng"
)

// GenConfig parameterizes the synthetic OpenCelliD snapshot.
type GenConfig struct {
	// Seed drives all random choices. Defaults to 1.
	Seed uint64
	// Total is the national transceiver count. Defaults to 250_000; the
	// full-scale reproduction uses geodata.PaperTransceivers (5.36M).
	Total int
}

// siteMeanTransceivers is the mean number of co-located transceivers per
// cell site.
const siteMeanTransceivers = 4

func (c GenConfig) withDefaults() GenConfig {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Total <= 0 {
		c.Total = 250000
	}
	return c
}

// The provider groups, in the order of the draw that picks a site's
// group. groups and profiles are indexed by group.
const (
	groupATT = iota
	groupTMobile
	groupSprint
	groupVerizon
	groupOthers
	numGroups
)

var groups = [numGroups]string{
	groupATT:     geodata.ProviderATT,
	groupTMobile: geodata.ProviderTMobile,
	groupSprint:  geodata.ProviderSprint,
	groupVerizon: geodata.ProviderVerizon,
	groupOthers:  geodata.ProviderOthersAg,
}

// placementProfile is the per-provider-group mix of site locations. The
// differences reproduce the real fleets' footprints: Sprint concentrated
// in metros, the national carriers with substantial highway and rural
// coverage, the regional carriers predominantly rural — the mechanism
// behind the per-provider at-risk percentages of Table 2.
type placementProfile struct {
	urban, road, rural float64
	// radio mix per technology, calibrated so the national marginals
	// approximate Table 3 (LTE > UMTS > CDMA > GSM).
	radio [numRadios]float64 // indexed by Radio
}

var profiles = [numGroups]placementProfile{
	groupATT: {
		urban: 0.56, road: 0.32, rural: 0.12,
		radio: [numRadios]float64{GSM: 0.07, CDMA: 0, UMTS: 0.40, LTE: 0.53},
	},
	groupTMobile: {
		urban: 0.62, road: 0.28, rural: 0.10,
		radio: [numRadios]float64{GSM: 0.10, CDMA: 0, UMTS: 0.40, LTE: 0.50},
	},
	groupSprint: {
		urban: 0.74, road: 0.20, rural: 0.06,
		radio: [numRadios]float64{GSM: 0, CDMA: 0.35, UMTS: 0, LTE: 0.65},
	},
	groupVerizon: {
		urban: 0.56, road: 0.32, rural: 0.12,
		radio: [numRadios]float64{GSM: 0, CDMA: 0.33, UMTS: 0, LTE: 0.67},
	},
	groupOthers: {
		// Regional licensees serve towns and highway corridors rather
		// than deep wildland.
		urban: 0.42, road: 0.42, rural: 0.16,
		radio: [numRadios]float64{GSM: 0.15, CDMA: 0.15, UMTS: 0.25, LTE: 0.45},
	},
}

// Generate builds the synthetic snapshot over the world. Deterministic in
// (world configuration, cfg). The draws run serially on one stream and
// position each transceiver in projected coordinates; its geographic
// position and state then derive from that alone, over GOMAXPROCS
// ranges of the fleet (pipeline.Bands).
func Generate(w *conus.World, cfg GenConfig) *Dataset {
	cfg = cfg.withDefaults()
	src := rng.NewStream(cfg.Seed, 0xCE11)

	// World cells by state for road and rural placement.
	zoneCells := w.CellsByState(nil)
	roadCells := w.CellsByState(w.Roads)

	// Provider-group share weights and code tables. The regional
	// carriers draw a licensee first, then one of its codes.
	var groupW [numGroups]float64
	var codes [numGroups][]geodata.MCCMNC
	for gi, p := range groups {
		groupW[gi] = geodata.NationalShare[p]
		codes[gi] = geodata.CodesForProvider(p)
	}
	regionals := geodata.RegionalProviders()
	regionalCodes := make([][]geodata.MCCMNC, len(regionals))
	for i, p := range regionals {
		regionalCodes[i] = geodata.CodesForProvider(p)
	}

	totalPop := geodata.TotalPopulation()
	ts := make([]Transceiver, 0, cfg.Total)
	var siteID int32
	var cellID uint32

	for si, st := range geodata.States {
		n := int(float64(cfg.Total) * float64(st.Pop) / float64(totalPop))
		if n == 0 {
			continue
		}
		// Regional carriers concentrate in the low-hazard plains and
		// midwest (rural RSA licensees), not in the high-hazard west —
		// the reason Table 2 shows "Others" with the lowest at-risk
		// share. Scale their selection weight by the state's hazard.
		stateGroupW := groupW
		m := 1.05 - st.Hazard
		stateGroupW[groupOthers] *= 2.5 * m * math.Sqrt(m)
		// Urban sites pick a city by metro population.
		cities := w.CitiesOfState(si)
		cityW := make([]float64, len(cities))
		for i, ci := range cities {
			cityW[i] = float64(w.Cities[ci].MetroPop)
		}
		placed := 0
		for placed < n {
			// One site with Poisson-distributed tenancy.
			k := src.Poisson(siteMeanTransceivers-1) + 1
			if placed+k > n {
				k = n - placed
			}
			gi := src.Categorical(stateGroupW[:])
			prof := &profiles[gi]
			pos, ok := placeSite(w, src, prof, cities, cityW, roadCells[si], zoneCells[si])
			if !ok {
				continue
			}
			siteID++
			area := uint16(src.Intn(65000) + 1)
			for t := 0; t < k; t++ {
				// Each co-located transceiver gets its own code pair: the
				// site hosts one tenant in this model, with per-radio
				// cells. (Multi-tenant sites appear as co-located sites.)
				gc := codes[gi]
				if gi == groupOthers {
					gc = regionalCodes[src.Intn(len(regionalCodes))]
				}
				code := gc[src.Intn(len(gc))]
				radio := Radio(src.Categorical(prof.radio[:]))
				cellID++
				created := uint16(2005 + src.Intn(15)) // 2005..2019 per §3.11
				updated := created + uint16(src.Intn(int(2020-created)))
				// Crowdsourced positions scatter around the true site
				// location (OpenCelliD triangulation error, §2.2.3).
				jitter := src.Normal(0, 120)
				ang := src.Range(0, 2*math.Pi)
				ts = append(ts, Transceiver{
					XY: geom.Point{
						X: pos.X + jitter*math.Cos(ang),
						Y: pos.Y + jitter*math.Sin(ang),
					},
					MCC: uint16(code.MCC), MNC: uint16(code.MNC),
					Area: area, Cell: cellID, SiteID: siteID,
					Radio:   radio,
					Created: created, Updated: updated,
					Samples: uint16(1 + src.Intn(200)),
				})
			}
			placed += k
		}
	}
	pipeline.Bands(pipeline.BandFunc(func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			t := &ts[i]
			ll := w.ToLonLat(t.XY)
			t.Lon, t.Lat = ll.X, ll.Y
			// State attribution is positional (the zone the record
			// actually falls in), so codecs that recompute it from
			// coordinates agree; border jitter can land a site in the
			// neighboring state.
			t.StateIdx = int16(w.StateAt(t.XY))
		}
	}), len(ts), runtime.GOMAXPROCS(0))
	return NewDataset(w, ts)
}

// placeSite samples one site position for the given profile within the
// state. cityW weights the state's cities. Returns ok=false when a valid
// position could not be found (the caller retries).
func placeSite(w *conus.World, src *rng.Source, prof *placementProfile,
	cities []int, cityW []float64, roads, zone []geom.Point) (geom.Point, bool) {

	mode := src.Categorical([]float64{prof.urban, prof.road, prof.rural})
	cell := w.Grid.CellSize
	switch mode {
	case 0: // urban cluster
		if len(cities) == 0 {
			break // fall through to rural placement
		}
		c := w.Cities[cities[src.Categorical(cityW)]]
		// Radial mix: dense core, suburb, exurb/WUI fringe.
		sigma := c.SigmaM
		switch src.Categorical([]float64{0.55, 0.30, 0.15}) {
		case 0:
			sigma *= 0.5
		case 1:
			sigma *= 1.0
		case 2:
			sigma *= 1.9
		}
		for try := 0; try < 8; try++ {
			p := geom.Point{
				X: c.XY.X + src.Normal(0, sigma),
				Y: c.XY.Y + src.Normal(0, sigma),
			}
			if w.Contains(p) {
				return p, true
			}
		}
		return c.XY, w.Contains(c.XY)
	case 1: // highway corridor
		if len(roads) == 0 {
			break // fall through to rural placement
		}
		p := roads[src.Intn(len(roads))]
		jittered := geom.Point{
			X: p.X + src.Range(-cell/2, cell/2),
			Y: p.Y + src.Range(-cell/2, cell/2),
		}
		// Road sites sit on the roadway verge, not scattered across the
		// corridor cell: snap to the centerline with a tower-setback
		// offset of a few hundred meters.
		if rp, ok := w.NearestRoadPoint(jittered); ok {
			return geom.Point{
				X: rp.X + src.Normal(0, 180),
				Y: rp.Y + src.Normal(0, 180),
			}, true
		}
		return jittered, true
	}
	// rural sprinkle
	if len(zone) == 0 {
		return geom.Point{}, false
	}
	p := zone[src.Intn(len(zone))]
	return geom.Point{
		X: p.X + src.Range(-cell/2, cell/2),
		Y: p.Y + src.Range(-cell/2, cell/2),
	}, true
}

package cellnet

import (
	"math"

	"fivealarms/internal/conus"
	"fivealarms/internal/geodata"
	"fivealarms/internal/geom"
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

var profiles = map[string]placementProfile{
	geodata.ProviderATT: {
		urban: 0.56, road: 0.32, rural: 0.12,
		radio: [numRadios]float64{GSM: 0.07, CDMA: 0, UMTS: 0.40, LTE: 0.53},
	},
	geodata.ProviderTMobile: {
		urban: 0.62, road: 0.28, rural: 0.10,
		radio: [numRadios]float64{GSM: 0.10, CDMA: 0, UMTS: 0.40, LTE: 0.50},
	},
	geodata.ProviderSprint: {
		urban: 0.74, road: 0.20, rural: 0.06,
		radio: [numRadios]float64{GSM: 0, CDMA: 0.35, UMTS: 0, LTE: 0.65},
	},
	geodata.ProviderVerizon: {
		urban: 0.56, road: 0.32, rural: 0.12,
		radio: [numRadios]float64{GSM: 0, CDMA: 0.33, UMTS: 0, LTE: 0.67},
	},
	geodata.ProviderOthersAg: {
		// Regional licensees serve towns and highway corridors rather
		// than deep wildland.
		urban: 0.42, road: 0.42, rural: 0.16,
		radio: [numRadios]float64{GSM: 0.15, CDMA: 0.15, UMTS: 0.25, LTE: 0.45},
	},
}

// Generate builds the synthetic snapshot over the world. Deterministic in
// (world configuration, cfg).
func Generate(w *conus.World, cfg GenConfig) *Dataset {
	cfg = cfg.withDefaults()
	src := rng.NewStream(cfg.Seed, 0xCE11)

	// Pre-bucket world cells by state for road and rural placement.
	nStates := len(geodata.States)
	zoneCells := make([][]geom.Point, nStates)
	roadCells := make([][]geom.Point, nStates)
	g := w.Grid
	for cy := 0; cy < g.NY; cy++ {
		for cx := 0; cx < g.NX; cx++ {
			v := w.StateZone.At(cx, cy)
			if v == 0 {
				continue
			}
			p := g.Center(cx, cy)
			zoneCells[v-1] = append(zoneCells[v-1], p)
			if w.Roads.Get(cx, cy) {
				roadCells[v-1] = append(roadCells[v-1], p)
			}
		}
	}

	// Provider-group share weights and code tables.
	groups := []string{
		geodata.ProviderATT, geodata.ProviderTMobile,
		geodata.ProviderSprint, geodata.ProviderVerizon, geodata.ProviderOthersAg,
	}
	groupW := make([]float64, len(groups))
	for i, p := range groups {
		groupW[i] = geodata.NationalShare[p]
	}
	majorCodes := map[string][]geodata.MCCMNC{}
	for _, p := range geodata.MajorProviders {
		majorCodes[p] = geodata.CodesForProvider(p)
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
		stateGroupW := make([]float64, len(groupW))
		copy(stateGroupW, groupW)
		m := 1.05 - st.Hazard
		stateGroupW[len(stateGroupW)-1] *= 2.5 * m * math.Sqrt(m)
		cities := w.CitiesOfState(si)
		placed := 0
		for placed < n {
			// One site with Poisson-distributed tenancy.
			k := src.Poisson(siteMeanTransceivers-1) + 1
			if placed+k > n {
				k = n - placed
			}
			gi := src.Categorical(stateGroupW)
			group := groups[gi]
			prof := profiles[group]
			pos, ok := placeSite(w, src, prof, si, cities, roadCells[si], zoneCells[si])
			if !ok {
				continue
			}
			siteID++
			area := uint16(src.Intn(65000) + 1)
			for t := 0; t < k; t++ {
				// Each co-located transceiver gets its own code pair: the
				// site hosts one tenant in this model, with per-radio
				// cells. (Multi-tenant sites appear as co-located sites.)
				var code geodata.MCCMNC
				if group == geodata.ProviderOthersAg {
					rp := src.Intn(len(regionals))
					codes := regionalCodes[rp]
					code = codes[src.Intn(len(codes))]
				} else {
					codes := majorCodes[group]
					code = codes[src.Intn(len(codes))]
				}
				radio := Radio(src.Categorical(prof.radio[:]))
				cellID++
				created := uint16(2005 + src.Intn(15)) // 2005..2019 per §3.11
				updated := created + uint16(src.Intn(int(2020-created)))
				// Crowdsourced positions scatter around the true site
				// location (OpenCelliD triangulation error, §2.2.3).
				jitter := src.Normal(0, 120)
				ang := src.Range(0, 2*math.Pi)
				txy := geom.Point{
					X: pos.X + jitter*math.Cos(ang),
					Y: pos.Y + jitter*math.Sin(ang),
				}
				tll := w.ToLonLat(txy)
				// State attribution is positional (the zone the record
				// actually falls in), so codecs that recompute it from
				// coordinates agree; border jitter can land a site in the
				// neighboring state.
				ts = append(ts, Transceiver{
					XY: txy, Lon: tll.X, Lat: tll.Y,
					MCC: uint16(code.MCC), MNC: uint16(code.MNC),
					Area: area, Cell: cellID, SiteID: siteID,
					StateIdx: int16(w.StateAt(txy)), Radio: radio,
					Created: created, Updated: updated,
					Samples: uint16(1 + src.Intn(200)),
				})
			}
			placed += k
		}
	}
	return NewDataset(w, ts)
}

// placeSite samples one site position for the given profile within the
// state. Returns ok=false when a valid position could not be found (the
// caller retries).
func placeSite(w *conus.World, src *rng.Source, prof placementProfile, si int,
	cities []int, roads, zone []geom.Point) (geom.Point, bool) {

	mode := src.Categorical([]float64{prof.urban, prof.road, prof.rural})
	cell := w.Grid.CellSize
	switch mode {
	case 0: // urban cluster
		if len(cities) == 0 {
			break // fall through to rural placement
		}
		// Weight cities by metro population.
		weights := make([]float64, len(cities))
		for i, ci := range cities {
			weights[i] = float64(w.Cities[ci].MetroPop)
		}
		c := w.Cities[cities[src.Categorical(weights)]]
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

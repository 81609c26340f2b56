package cellnet

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"fivealarms/internal/conus"
	"fivealarms/internal/faults"
	"fivealarms/internal/geodata"
	"fivealarms/internal/geom"
	"fivealarms/internal/rng"
)

// profilesByName keys the placement profiles by provider group, as the
// serial generator looked them up.
var profilesByName = func() map[string]placementProfile {
	m := map[string]placementProfile{}
	for gi, p := range groups {
		m[p] = profiles[gi]
	}
	return m
}()

// generateSerial is Generate as it was before the draw pass and the
// banded derivation split: one serial loop buckets the world cells with
// growing slices, looks profiles and codes up by provider name, builds
// each urban site's city weights, and projects and attributes every row
// as it is drawn.
func generateSerial(w *conus.World, cfg GenConfig) *Dataset {
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
			prof := profilesByName[group]
			pos, ok := placeSiteSerial(w, src, prof, si, cities, roadCells[si], zoneCells[si])
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

// placeSiteSerial is placeSite as generateSerial called it.
func placeSiteSerial(w *conus.World, src *rng.Source, prof placementProfile, si int,
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

// sameTransceiver reports the first field in which a and b differ,
// comparing floats by their bits.
func sameTransceiver(a, b *Transceiver) string {
	for _, f := range []struct {
		name string
		x, y float64
	}{{"XY.X", a.XY.X, b.XY.X}, {"XY.Y", a.XY.Y, b.XY.Y}, {"Lon", a.Lon, b.Lon}, {"Lat", a.Lat, b.Lat}} {
		if math.Float64bits(f.x) != math.Float64bits(f.y) {
			return f.name
		}
	}
	switch {
	case a.MCC != b.MCC || a.MNC != b.MNC:
		return "MCC/MNC"
	case a.Area != b.Area || a.Cell != b.Cell:
		return "Area/Cell"
	case a.SiteID != b.SiteID:
		return "SiteID"
	case a.StateIdx != b.StateIdx:
		return "StateIdx"
	case a.Radio != b.Radio:
		return "Radio"
	case a.Created != b.Created || a.Updated != b.Updated || a.Samples != b.Samples:
		return "Created/Updated/Samples"
	}
	return ""
}

// TestGenerateConformance pins Generate to the serial generator: every
// field of every row bit for bit, and the same spatial index answers,
// over several seeds and worlds at GOMAXPROCS 1, 2 and 4.
func TestGenerateConformance(t *testing.T) {
	for _, sc := range []struct {
		cell  float64
		total int
		seeds []uint64
	}{
		{20000, 60000, []uint64{1, 7, 42}},
		{10000, 150000, []uint64{3, 11}},
		{2700, 100000, []uint64{7, 2701}},
	} {
		w := conus.Build(conus.Config{Seed: 7, CellSizeM: sc.cell})
		for _, seed := range sc.seeds {
			cfg := GenConfig{Seed: seed, Total: sc.total}
			want := generateSerial(w, cfg)
			for _, procs := range []int{1, 2, 4} {
				var got *Dataset
				faults.WithGOMAXPROCS(procs, func() { got = Generate(w, cfg) })
				what := fmt.Sprintf("%g m, %d rows, seed %d, GOMAXPROCS %d", sc.cell, sc.total, seed, procs)
				if got.Len() != want.Len() {
					t.Fatalf("%s: %d rows, serial generator %d", what, got.Len(), want.Len())
				}
				for i := range got.T {
					if f := sameTransceiver(&got.T[i], &want.T[i]); f != "" {
						t.Fatalf("%s: row %d differs in %s: %+v, serial generator %+v", what, i, f, got.T[i], want.T[i])
					}
				}
				sameIndexAnswers(t, what, w, got, want)
			}
		}
	}
}

// sameIndexAnswers compares radius and box queries of two datasets'
// spatial indexes around every city and a lattice of points.
func sameIndexAnswers(t *testing.T, what string, w *conus.World, got, want *Dataset) {
	t.Helper()
	var centres []geom.Point
	for _, c := range w.Cities {
		centres = append(centres, c.XY)
	}
	b := w.Grid.Bounds()
	for fx := 0.05; fx < 1; fx += 0.15 {
		for fy := 0.05; fy < 1; fy += 0.15 {
			centres = append(centres, geom.Point{X: b.MinX + fx*(b.MaxX-b.MinX), Y: b.MinY + fy*(b.MaxY-b.MinY)})
		}
	}
	var g, h []int
	for _, c := range centres {
		for _, r := range []float64{5000, 40000, 150000} {
			g = got.Index.QueryRadius(c, r, g[:0])
			h = want.Index.QueryRadius(c, r, h[:0])
			if !slices.Equal(g, h) {
				t.Fatalf("%s: QueryRadius(%v, %g) = %d rows, serial generator %d", what, c, r, len(g), len(h))
			}
			box := geom.NewBBox(c, geom.Point{X: c.X + r, Y: c.Y + r})
			g = got.Index.Query(box, g[:0])
			h = want.Index.Query(box, h[:0])
			if !slices.Equal(g, h) {
				t.Fatalf("%s: Query(%v) = %d rows, serial generator %d", what, box, len(g), len(h))
			}
		}
	}
	if got.Index.Bounds() != want.Index.Bounds() || got.Index.CellSize() != want.Index.CellSize() {
		t.Fatalf("%s: index bounds %v cell %g, serial generator %v cell %g",
			what, got.Index.Bounds(), got.Index.CellSize(), want.Index.Bounds(), want.Index.CellSize())
	}
}

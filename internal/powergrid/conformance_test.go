package powergrid

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"fivealarms/internal/cellnet"
	"fivealarms/internal/geom"
	"fivealarms/internal/rng"
	"fivealarms/internal/whp"
)

// TestWithBatteryHoursConformance requires a re-draw of the battery hours
// over a built topology to equal a fresh build at that mean, field for
// field and bit for bit, at non-positive, tiny, huge and non-finite means,
// and to leave the network it was drawn from unchanged.
func TestWithBatteryHoursConformance(t *testing.T) {
	means := []float64{0, -1, 1e-300, 0.5, 4, 6, 8, 24, 48, 72, 1000, 1e300,
		math.Inf(1), math.Inf(-1), math.NaN()}
	for _, seed := range []uint64{1, 7, 99} {
		base := BuildNetwork(testData, testWHP, caRegion, NetConfig{Seed: seed})
		before := append([]Site(nil), base.Sites...)
		for _, mean := range means {
			want := BuildNetwork(testData, testWHP, caRegion, NetConfig{Seed: seed, MeanBatteryHours: mean})
			got := base.WithBatteryHours(mean)
			if diff := networkDiff(got, want); diff != "" {
				t.Errorf("seed %d, mean %v: %s", seed, mean, diff)
			}
			if &got.Substations[0] != &base.Substations[0] || &got.Sites[0] == &base.Sites[0] {
				t.Errorf("seed %d, mean %v: want shared substations and own sites", seed, mean)
			}
		}
		if diff := sitesDiff(base.Sites, before); diff != "" {
			t.Errorf("seed %d: re-draws modified the base network: %s", seed, diff)
		}
	}
}

func TestWithBatteryHoursNeedsBuiltNetwork(t *testing.T) {
	if got := (&Network{}).WithBatteryHours(24); len(got.Sites) != 0 {
		t.Errorf("empty network re-drawn to %d sites", len(got.Sites))
	}
	defer func() {
		if recover() == nil {
			t.Error("re-draw of a hand-built network did not panic")
		}
	}()
	(&Network{Sites: []Site{{ID: 1}}}).WithBatteryHours(24)
}

// TestNearestConformance requires the bucket-grid search to return the
// ascending scan's index on adversarial center sets — random, integer
// lattices with exact ties, duplicates, clusters, collinear runs — for
// queries on the centers, on lattice points, at midpoints and outside
// the centers' box; then requires BuildNetwork to equal the reference
// build with the scans, bit for bit, on a fleet with thousands of
// California sites.
func TestNearestConformance(t *testing.T) {
	mismatches := 0
	for set := 0; set < 400; set++ {
		src := rng.New(uint64(set) + 1)
		centers := centerSet(set%5, src)
		ix := newNearestIndex(centers)
		for qi := 0; qi < 300; qi++ {
			q := nearestQuery(qi, centers, src)
			if got, want := ix.nearest(q), nearestScan(centers, q); got != want {
				if mismatches++; mismatches <= 10 {
					t.Errorf("set %d (kind %d, %d centers), query %v: index %d at %v, scan %d at %v",
						set, set%5, len(centers), q, got, q.DistanceTo(centers[got]), want, q.DistanceTo(centers[want]))
				}
			}
		}
	}
	if mismatches > 0 {
		t.Fatalf("%d mismatches against the scan", mismatches)
	}
	if got := newNearestIndex(nil).nearest(geom.Point{X: 1, Y: 2}); got != 0 {
		t.Errorf("no centers: index %d, want 0", got)
	}

	data := cellnet.Generate(testWorld, cellnet.GenConfig{Seed: 3, Total: 150000})
	for _, cfg := range []NetConfig{{Seed: 1}, {Seed: 5, MeanBatteryHours: 24}} {
		want := buildNetworkScan(data, testWHP, caRegion, cfg)
		if len(want.Sites) < 2000 {
			t.Fatalf("%d California sites, want thousands", len(want.Sites))
		}
		if diff := networkDiff(BuildNetwork(data, testWHP, caRegion, cfg), want); diff != "" {
			t.Errorf("%+v: %s", cfg, diff)
		}
	}
}

// centerSet draws one adversarial center set of the given kind.
func centerSet(kind int, src *rng.Source) []geom.Point {
	n := 1 + src.Intn(200)
	off := geom.Point{X: src.Range(-3e6, 3e6), Y: src.Range(-2e6, 2e6)}
	pts := make([]geom.Point, n)
	switch kind {
	case 0: // uniform, at a random scale
		scale := math.Pow(10, src.Range(-3, 6))
		for i := range pts {
			pts[i] = off.Add(geom.Point{X: src.Float64() * scale, Y: src.Float64() * scale})
		}
	case 1: // a small integer lattice: exact ties and duplicates
		side := 1 + src.Intn(12)
		step := []float64{1, 0.5, 1000}[src.Intn(3)]
		for i := range pts {
			pts[i] = off.Add(geom.Point{X: float64(src.Intn(side)) * step, Y: float64(src.Intn(side)) * step})
		}
	case 2: // a few points, each repeated at scattered indexes
		distinct := make([]geom.Point, 1+src.Intn(8))
		for i := range distinct {
			distinct[i] = off.Add(geom.Point{X: src.Range(0, 5e4), Y: src.Range(0, 5e4)})
		}
		for i := range pts {
			pts[i] = distinct[src.Intn(len(distinct))]
		}
	case 3: // tight clusters plus far outliers
		hubs := make([]geom.Point, 1+src.Intn(4))
		for i := range hubs {
			hubs[i] = off.Add(geom.Point{X: src.Range(0, 1e6), Y: src.Range(0, 1e6)})
		}
		spread := math.Pow(10, src.Range(-2, 4))
		for i := range pts {
			if src.Bool(0.05) {
				pts[i] = off.Add(geom.Point{X: src.Range(-1e7, 1e7), Y: src.Range(-1e7, 1e7)})
				continue
			}
			pts[i] = hubs[src.Intn(len(hubs))].Add(geom.Point{X: src.Normal(0, spread), Y: src.Normal(0, spread)})
		}
	default: // collinear: horizontal, vertical or sloped
		dir := []geom.Point{{X: 1}, {Y: 1}, {X: 1, Y: src.Range(-3, 3)}}[src.Intn(3)]
		for i := range pts {
			pts[i] = off.Add(dir.Scale(float64(src.Intn(4 * n))))
		}
	}
	return pts
}

// nearestQuery draws the qi-th query against centers: a center itself,
// a midpoint of two centers, a lattice point around the centers, a point
// far outside their box, or a uniform point in a margin around it.
func nearestQuery(qi int, centers []geom.Point, src *rng.Source) geom.Point {
	b := geom.NewBBox(centers[0], centers[0])
	for _, c := range centers {
		b = b.ExtendPoint(c)
	}
	w, h := math.Max(b.Width(), 1), math.Max(b.Height(), 1)
	switch qi % 5 {
	case 0:
		return centers[src.Intn(len(centers))]
	case 1:
		a, c := centers[src.Intn(len(centers))], centers[src.Intn(len(centers))]
		return a.Add(c).Scale(0.5)
	case 2:
		return geom.Point{X: b.MinX + math.Round(src.Range(-0.5, 1.5)*w), Y: b.MinY + math.Round(src.Range(-0.5, 1.5)*h)}
	case 3:
		far := math.Max(w, h) * math.Pow(10, src.Range(0, 3))
		ang := src.Range(0, 2*math.Pi)
		return geom.Point{X: b.MinX + w/2 + far*math.Cos(ang), Y: b.MinY + h/2 + far*math.Sin(ang)}
	default:
		return geom.Point{X: b.MinX + src.Range(-0.25, 1.25)*w, Y: b.MinY + src.Range(-0.25, 1.25)*h}
	}
}

// nearestScan is the nearest-center scan BuildNetwork and kMeansish ran
// before the bucket grid, kept verbatim as its twin.
func nearestScan(centers []geom.Point, q geom.Point) int {
	best, bestD := 0, math.Inf(1)
	for j, c := range centers {
		if d := q.DistanceTo(c); d < bestD {
			best, bestD = j, d
		}
	}
	return best
}

// buildNetworkScan is BuildNetwork as it was before the bucket grid, with
// its three full scans, kept verbatim as the twin of the pruned build.
func buildNetworkScan(d *cellnet.Dataset, hazard *whp.Map, region geom.BBox, cfg NetConfig) *Network {
	cfg = cfg.withDefaults()
	src := rng.NewStream(cfg.Seed, 0x9012)

	type agg struct {
		sum geom.Point
		n   int
	}
	siteAgg := map[int32]*agg{}
	for i := range d.T {
		t := &d.T[i]
		if !region.ContainsPoint(t.XY) {
			continue
		}
		a := siteAgg[t.SiteID]
		if a == nil {
			a = &agg{}
			siteAgg[t.SiteID] = a
		}
		a.sum = a.sum.Add(t.XY)
		a.n++
	}
	ids := make([]int32, 0, len(siteAgg))
	for id := range siteAgg {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	n := &Network{}
	for _, id := range ids {
		a := siteAgg[id]
		pos := a.sum.Scale(1 / float64(a.n))
		bh := src.Normal(cfg.MeanBatteryHours, cfg.MeanBatteryHours/3)
		upper := math.Max(16, cfg.MeanBatteryHours*1.5)
		bh = math.Max(2, math.Min(upper, bh))
		n.Sites = append(n.Sites, Site{
			ID: id, XY: pos, Transceivers: a.n, BatteryHours: bh,
		})
	}

	nSub := len(n.Sites)/sitesPerSubstation + 1
	n.Substations = kMeansishScan(n.Sites, nSub, src)
	n.SubstationHazard = make([]float64, len(n.Substations))
	for i, s := range n.Substations {
		n.SubstationHazard[i] = hazard.HazardAt(s)
	}

	cos := lowestHazardQuartile(n.Substations, n.SubstationHazard)
	for i := range n.Sites {
		best, bestD := 0, math.Inf(1)
		for j, sub := range n.Substations {
			if dd := n.Sites[i].XY.DistanceTo(sub); dd < bestD {
				best, bestD = j, dd
			}
		}
		n.Sites[i].SubstationID = best
		co, coD := cos[0], math.Inf(1)
		for _, c := range cos {
			if dd := n.Sites[i].XY.DistanceTo(c); dd < coD {
				co, coD = c, dd
			}
		}
		n.Sites[i].Backhaul = co
	}
	return n
}

// kMeansishScan is kMeansish with the full assignment scan.
func kMeansishScan(sites []Site, k int, src *rng.Source) []geom.Point {
	if k <= 0 {
		k = 1
	}
	if len(sites) == 0 {
		return nil
	}
	centers := make([]geom.Point, k)
	for i := range centers {
		centers[i] = sites[src.Intn(len(sites))].XY
	}
	assign := make([]int, len(sites))
	for iter := 0; iter < 6; iter++ {
		for i := range sites {
			best, bestD := 0, math.Inf(1)
			for j, c := range centers {
				if d := sites[i].XY.DistanceTo(c); d < bestD {
					best, bestD = j, d
				}
			}
			assign[i] = best
		}
		sums := make([]geom.Point, k)
		counts := make([]int, k)
		for i, a := range assign {
			sums[a] = sums[a].Add(sites[i].XY)
			counts[a]++
		}
		for j := range centers {
			if counts[j] > 0 {
				centers[j] = sums[j].Scale(1 / float64(counts[j]))
			}
		}
	}
	return centers
}

// networkDiff describes the first field where two networks differ,
// floats compared by their bits (NaN battery hours equal NaN), or "".
func networkDiff(a, b *Network) string {
	if diff := sitesDiff(a.Sites, b.Sites); diff != "" {
		return diff
	}
	if len(a.Substations) != len(b.Substations) || len(a.SubstationHazard) != len(b.SubstationHazard) {
		return fmt.Sprintf("%d/%d substations against %d/%d", len(a.Substations), len(a.SubstationHazard),
			len(b.Substations), len(b.SubstationHazard))
	}
	for i := range a.Substations {
		if !samePoint(a.Substations[i], b.Substations[i]) {
			return fmt.Sprintf("substation %d at %v against %v", i, a.Substations[i], b.Substations[i])
		}
		if math.Float64bits(a.SubstationHazard[i]) != math.Float64bits(b.SubstationHazard[i]) {
			return fmt.Sprintf("substation %d hazard %v against %v", i, a.SubstationHazard[i], b.SubstationHazard[i])
		}
	}
	return ""
}

// sitesDiff is networkDiff over two site lists.
func sitesDiff(a, b []Site) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d sites against %d", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.ID != y.ID || !samePoint(x.XY, y.XY) || x.Transceivers != y.Transceivers ||
			math.Float64bits(x.BatteryHours) != math.Float64bits(y.BatteryHours) ||
			x.SubstationID != y.SubstationID || !samePoint(x.Backhaul, y.Backhaul) {
			return fmt.Sprintf("site %d: %+v against %+v", i, x, y)
		}
	}
	return ""
}

func samePoint(p, q geom.Point) bool {
	return math.Float64bits(p.X) == math.Float64bits(q.X) && math.Float64bits(p.Y) == math.Float64bits(q.Y)
}

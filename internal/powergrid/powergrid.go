// Package powergrid models the electric-distribution dependency of cell
// sites — the mechanism the paper's §3.2 case study identifies as the
// dominant wildfire threat to cellular service. Cell sites draw power from
// their nearest substation; during a public-safety power shutoff (PSPS)
// the utility de-energizes the substations serving the windiest,
// highest-hazard terrain; sites ride through on batteries for a few hours
// and then fall out of service. Fires additionally damage sites inside
// their perimeters and sever backhaul routes crossing them.
//
// The simulation produces per-day, per-site outage causes which package
// dirs aggregates into FCC DIRS-style reports (Figure 5).
package powergrid

import (
	"math"
	"sort"

	"fivealarms/internal/cellnet"
	"fivealarms/internal/geom"
	"fivealarms/internal/rng"
	"fivealarms/internal/whp"
)

// Cause is the FCC outage-cause taxonomy (§3.2): damage outranks power
// loss outranks backhaul loss when several apply to one site.
type Cause uint8

// Outage causes.
const (
	None Cause = iota
	Damage
	PowerLoss
	BackhaulLoss
)

// String implements fmt.Stringer.
func (c Cause) String() string {
	switch c {
	case None:
		return "none"
	case Damage:
		return "damage"
	case PowerLoss:
		return "power-loss"
	case BackhaulLoss:
		return "backhaul-loss"
	default:
		return "invalid"
	}
}

// Site is a cell site (a tower location hosting one or more transceivers)
// with its power-dependency attributes.
type Site struct {
	ID           int32
	XY           geom.Point
	Transceivers int
	BatteryHours float64
	SubstationID int
	// Backhaul is the projected endpoint of the site's backhaul route
	// (the serving central office).
	Backhaul geom.Point
}

// Network is the power-and-backhaul dependency graph for the sites of a
// region.
type Network struct {
	Sites       []Site
	Substations []geom.Point
	// SubstationHazard ranks each substation's exposure (used to choose
	// PSPS de-energization order).
	SubstationHazard []float64

	// batterySrc is the network's stream as it stood before the battery
	// draws, which WithBatteryHours replays at another mean.
	batterySrc rng.Source
}

// NetConfig parameterizes network construction.
type NetConfig struct {
	Seed uint64
	// MeanBatteryHours is the mean site battery endurance. Defaults to 6
	// (most sites keep only a few hours of backup, §3.2).
	MeanBatteryHours float64
}

// sitesPerSubstation sets substation density: a distribution substation
// feeds on the order of a dozen sites.
const sitesPerSubstation = 15

// defaultBatteryHours is the mean battery endurance a non-positive
// MeanBatteryHours selects.
const defaultBatteryHours = 6

func (c NetConfig) withDefaults() NetConfig {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MeanBatteryHours <= 0 {
		c.MeanBatteryHours = defaultBatteryHours
	}
	return c
}

// BuildNetwork extracts the cell sites of the dataset within region and
// wires them to synthesized substations. The hazard map ranks substation
// exposure. Deterministic in (dataset, region, cfg).
//
// The topology — the sites' positions, the substations and their
// hazard, the site-to-substation wiring and the backhaul endpoints —
// does not depend on cfg.MeanBatteryHours. The battery hours are the first draws from
// the network's stream, and rng.Source.Normal consumes a number of
// values that depends only on its uniform draws, never on the mean or
// the deviation, so the stream reaches the substation draws in the same
// state at every mean. WithBatteryHours relies on this.
func BuildNetwork(d *cellnet.Dataset, hazard *whp.Map, region geom.BBox, cfg NetConfig) *Network {
	cfg = cfg.withDefaults()
	src := rng.NewStream(cfg.Seed, 0x9012)

	// Collect sites (grouped transceivers) within the region.
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
		n.Sites = append(n.Sites, Site{ID: id, XY: a.sum.Scale(1 / float64(a.n)), Transceivers: a.n})
	}
	n.batterySrc = *src
	drawBatteryHours(n.Sites, cfg.MeanBatteryHours, src)

	// Substations: a few Lloyd iterations from centers seeded on the
	// sites, so substation density tracks site density.
	nSub := len(n.Sites)/sitesPerSubstation + 1
	n.Substations = kMeansish(n.Sites, nSub, src)
	n.SubstationHazard = make([]float64, len(n.Substations))
	for i, s := range n.Substations {
		n.SubstationHazard[i] = hazard.HazardAt(s)
	}

	// Wire each site to its nearest substation; backhaul runs to the
	// nearest central office. COs are modeled as the lowest-hazard
	// (most urban) quartile of substation locations, so routes are short
	// and local — only sites whose serving CO path actually crosses a
	// fire are at backhaul risk.
	cos := lowestHazardQuartile(n.Substations, n.SubstationHazard)
	subs, offices := newNearestIndex(n.Substations), newNearestIndex(cos)
	for i := range n.Sites {
		n.Sites[i].SubstationID = subs.nearest(n.Sites[i].XY)
		n.Sites[i].Backhaul = cos[offices.nearest(n.Sites[i].XY)]
	}
	return n
}

// drawBatteryHours draws each site's battery endurance from src, in site
// order: normal around mean with deviation mean/3, clamped to
// [2, max(16, 1.5·mean)] hours.
func drawBatteryHours(sites []Site, mean float64, src *rng.Source) {
	upper := math.Max(16, mean*1.5)
	for i := range sites {
		sites[i].BatteryHours = math.Max(2, math.Min(upper, src.Normal(mean, mean/3)))
	}
}

// WithBatteryHours returns the network BuildNetwork would build with
// MeanBatteryHours set to mean (0 or below selects the 6 h default) and
// everything else as n was built. The copy shares n's Substations and
// SubstationHazard, which are read-only, and has its own Sites; n is not
// modified. n must come from BuildNetwork, or WithBatteryHours panics.
func (n *Network) WithBatteryHours(mean float64) *Network {
	if len(n.Sites) > 0 && n.batterySrc == (rng.Source{}) {
		panic("powergrid: WithBatteryHours on a network BuildNetwork did not build")
	}
	if mean <= 0 {
		mean = defaultBatteryHours
	}
	out := *n
	out.Sites = append([]Site(nil), n.Sites...)
	src := n.batterySrc
	drawBatteryHours(out.Sites, mean, &src)
	return &out
}

// lowestHazardQuartile returns the quarter of substation positions with
// the least hazard (at least one), ties going to the lower substation
// index. Most substations tie at hazard 0, so the ranking must be
// stable: an unstable sort would choose among them by its own internal
// order, which the standard library does not promise to keep.
func lowestHazardQuartile(subs []geom.Point, hazard []float64) []geom.Point {
	if len(subs) == 0 {
		return []geom.Point{{}}
	}
	idx := make([]int, len(subs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return hazard[idx[a]] < hazard[idx[b]] })
	k := len(subs) / 4
	if k < 1 {
		k = 1
	}
	out := make([]geom.Point, 0, k)
	for _, i := range idx[:k] {
		out = append(out, subs[i])
	}
	return out
}

// kMeansish seeds k centers on the sites and runs a few Lloyd iterations —
// enough to spread substations with site density without a dependency on
// convergence.
func kMeansish(sites []Site, k int, src *rng.Source) []geom.Point {
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
		ix := newNearestIndex(centers)
		for i := range sites {
			assign[i] = ix.nearest(sites[i].XY)
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

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

func (c NetConfig) withDefaults() NetConfig {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MeanBatteryHours <= 0 {
		c.MeanBatteryHours = 6
	}
	return c
}

// BuildNetwork extracts the cell sites of the dataset within region and
// wires them to synthesized substations. The hazard map ranks substation
// exposure. Deterministic in (dataset, region, cfg).
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
		pos := a.sum.Scale(1 / float64(a.n))
		bh := src.Normal(cfg.MeanBatteryHours, cfg.MeanBatteryHours/3)
		upper := math.Max(16, cfg.MeanBatteryHours*1.5)
		bh = math.Max(2, math.Min(upper, bh))
		n.Sites = append(n.Sites, Site{
			ID: id, XY: pos, Transceivers: a.n, BatteryHours: bh,
		})
	}

	// Substations: grid-sample the region so density tracks site density.
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

// lowestHazardQuartile returns the quarter of substation positions with
// the least hazard (at least one).
func lowestHazardQuartile(subs []geom.Point, hazard []float64) []geom.Point {
	if len(subs) == 0 {
		return []geom.Point{{}}
	}
	idx := make([]int, len(subs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return hazard[idx[a]] < hazard[idx[b]] })
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

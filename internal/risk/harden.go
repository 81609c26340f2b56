package risk

import (
	"sort"

	"fivealarms/internal/coverage"
	"fivealarms/internal/geom"
)

// HardenedSite is one site chosen by the hardening plan.
type HardenedSite struct {
	SiteID int32
	XY     geom.Point
	// Gain is the marginal population protected when this site was
	// chosen.
	Gain float64
	// Transceivers co-located at the site.
	Transceivers int
}

// HardeningResult is a §3.10 mitigation-prioritization plan: which at-risk
// sites to harden first (backup power, defensible space, fire-resistant
// construction) to protect the most people.
type HardeningResult struct {
	// Sites lists the chosen sites in selection order (highest marginal
	// gain first).
	Sites []HardenedSite
	// ProtectedPopulation is the population within serving radius of at
	// least one hardened site.
	ProtectedPopulation float64
	// CandidatePopulation is the population within serving radius of any
	// at-risk site — the ceiling of what hardening can protect.
	CandidatePopulation float64
	// CandidateSites is the number of at-risk sites considered.
	CandidateSites int
}

// HardeningPlan greedily selects budget at-risk sites to harden so the
// population kept in service is maximized (the classic max-coverage
// greedy, within 1-1/e of optimal). radiusM 0 selects the default serving
// radius.
func (a *Analyzer) HardeningPlan(budget int, radiusM float64) *HardeningResult {
	model := coverage.New(a.World, a.Population(), radiusM)
	g := a.World.Grid

	// Group at-risk transceivers into sites.
	type siteAgg struct {
		sum geom.Point
		n   int
	}
	aggs := map[int32]*siteAgg{}
	for i := range a.Data.T {
		if !a.classOf[i].AtRisk() {
			continue
		}
		id := a.Data.T[i].SiteID
		sa := aggs[id]
		if sa == nil {
			sa = &siteAgg{}
			aggs[id] = sa
		}
		sa.sum = sa.sum.Add(a.Data.T[i].XY)
		sa.n++
	}
	ids := make([]int32, 0, len(aggs))
	for id := range aggs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	// Per-site covered cells (cell index -> population).
	r := model.RadiusM
	rCells := int(r/g.CellSize) + 1
	type site struct {
		id    int32
		pos   geom.Point
		n     int
		cells []int32
	}
	sites := make([]site, 0, len(ids))
	for _, id := range ids {
		sa := aggs[id]
		pos := sa.sum.Scale(1 / float64(sa.n))
		cx0, cy0, ok := g.CellOf(pos)
		if !ok {
			continue
		}
		s := site{id: id, pos: pos, n: sa.n}
		r2 := r * r
		for dy := -rCells; dy <= rCells; dy++ {
			for dx := -rCells; dx <= rCells; dx++ {
				cx, cy := cx0+dx, cy0+dy
				if cx < 0 || cy < 0 || cx >= g.NX || cy >= g.NY {
					continue
				}
				d := g.Center(cx, cy).Sub(pos)
				if d.Dot(d) <= r2 {
					s.cells = append(s.cells, int32(cy*g.NX+cx))
				}
			}
		}
		sites = append(sites, s)
	}

	res := &HardeningResult{CandidateSites: len(sites)}

	// Candidate ceiling: union of all candidate cells.
	inUnion := map[int32]bool{}
	for _, s := range sites {
		for _, c := range s.cells {
			if !inUnion[c] {
				inUnion[c] = true
				res.CandidatePopulation += model.Pop.Data[c]
			}
		}
	}

	if budget <= 0 {
		return res
	}
	covered := map[int32]bool{}
	chosen := make([]bool, len(sites))
	for round := 0; round < budget && round < len(sites); round++ {
		bestIdx := -1
		bestGain := 0.0
		for si := range sites {
			if chosen[si] {
				continue
			}
			var gain float64
			for _, c := range sites[si].cells {
				if !covered[c] {
					gain += model.Pop.Data[c]
				}
			}
			if gain > bestGain {
				bestGain = gain
				bestIdx = si
			}
		}
		if bestIdx < 0 {
			break // nothing left adds population
		}
		chosen[bestIdx] = true
		for _, c := range sites[bestIdx].cells {
			covered[c] = true
		}
		res.ProtectedPopulation += bestGain
		res.Sites = append(res.Sites, HardenedSite{
			SiteID:       sites[bestIdx].id,
			XY:           sites[bestIdx].pos,
			Gain:         bestGain,
			Transceivers: sites[bestIdx].n,
		})
	}
	return res
}

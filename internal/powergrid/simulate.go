package powergrid

import (
	"fivealarms/internal/geom"
	"fivealarms/internal/rng"
	"fivealarms/internal/wildfire"
)

// DayPlan describes one day of a PSPS scenario.
type DayPlan struct {
	// ShutoffFrac is the fraction of substations de-energized that day,
	// highest-hazard first (wind-driven shutoff targeting).
	ShutoffFrac float64
}

// ActiveFire binds a fire perimeter to the scenario days it burns.
type ActiveFire struct {
	Fire     *wildfire.Fire
	FirstDay int // inclusive scenario day index
	LastDay  int // inclusive
}

// Scenario is a multi-day PSPS + fire event.
type Scenario struct {
	Days  []DayPlan
	Fires []ActiveFire
	// DamageProb is the chance a site inside an active perimeter suffers
	// physical damage (per event, not per day). Default 0.25.
	DamageProb float64
	// BackhaulSeverProb is the chance a backhaul route crossing an active
	// perimeter actually loses transport: metro fiber is ring-protected,
	// so most crossings reroute. Default 0.15.
	BackhaulSeverProb float64
	// RepairDays is how long a damaged site stays out after the fire
	// passes. Default 10 (beyond most reporting windows, matching the
	// long tail the paper observes).
	RepairDays int
}

func (s Scenario) withDefaults() Scenario {
	if s.DamageProb == 0 {
		s.DamageProb = 0.25
	}
	if s.BackhaulSeverProb == 0 {
		s.BackhaulSeverProb = 0.15
	}
	if s.RepairDays == 0 {
		s.RepairDays = 10
	}
	return s
}

// Outcome is the simulation result: per-day, per-site causes plus daily
// aggregates.
type Outcome struct {
	// Causes[day][siteIdx] is the outage cause (None = in service).
	Causes [][]Cause
	// OutByCause[day][cause] counts sites out per cause.
	OutByCause []map[Cause]int
}

// SitesOut returns the total sites out of service on a day.
func (o *Outcome) SitesOut(day int) int {
	total := 0
	for c, n := range o.OutByCause[day] {
		if c != None {
			total += n
		}
	}
	return total
}

// PeakDay returns the day index with the most sites out and that count.
func (o *Outcome) PeakDay() (int, int) {
	best, bestN := 0, -1
	for d := range o.OutByCause {
		if n := o.SitesOut(d); n > bestN {
			best, bestN = d, n
		}
	}
	return best, bestN
}

// Simulate runs the scenario over the network. Deterministic in
// (network, scenario, seed).
func (n *Network) Simulate(sc Scenario, seed uint64) *Outcome {
	sc = sc.withDefaults()
	src := rng.NewStream(seed, 0xD185)
	nDays := len(sc.Days)
	out := &Outcome{
		Causes:     make([][]Cause, nDays),
		OutByCause: make([]map[Cause]int, nDays),
	}

	// Rank substations by hazard, highest first: the utility de-energizes
	// the most exposed feeders at a given wind severity.
	order := make([]int, len(n.Substations))
	for i := range order {
		order[i] = i
	}
	for i := 1; i < len(order); i++ { // insertion sort by descending hazard
		for j := i; j > 0 && n.SubstationHazard[order[j]] > n.SubstationHazard[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}

	// Damage and backhaul-sever rolls are per (site, fire), decided once.
	damagedUntil := make([]int, len(n.Sites)) // scenario day the site returns; -1 = never damaged
	for i := range damagedUntil {
		damagedUntil[i] = -1
	}
	severed := make([][]bool, len(n.Sites)) // per site, per fire index
	for i := range n.Sites {
		s := &n.Sites[i]
		severed[i] = make([]bool, len(sc.Fires))
		route := geom.NewBBox(s.XY, s.Backhaul)
		for fi, af := range sc.Fires {
			if af.Fire.Contains(s.XY) && src.Bool(sc.DamageProb) {
				end := af.LastDay + sc.RepairDays
				if end > damagedUntil[i] {
					damagedUntil[i] = end
				}
			}
			// Backhaul: a crossing only severs transport when the route
			// has no protection path.
			if segmentCrossesPerimeter(s.XY, s.Backhaul, route, af.Fire) {
				severed[i][fi] = src.Bool(sc.BackhaulSeverProb)
			}
		}
	}

	// Track consecutive shutoff days per substation: batteries carry a
	// site through only the first hours of a shutoff.
	shutoffSince := make([]int, len(n.Substations))
	for i := range shutoffSince {
		shutoffSince[i] = -1
	}

	for day := 0; day < nDays; day++ {
		// De-energize the top ShutoffFrac of substations today.
		k := int(sc.Days[day].ShutoffFrac*float64(len(order)) + 0.5)
		off := make([]bool, len(n.Substations))
		for i := 0; i < k && i < len(order); i++ {
			off[order[i]] = true
		}
		for si := range n.Substations {
			if off[si] {
				if shutoffSince[si] < 0 {
					shutoffSince[si] = day
				}
			} else {
				shutoffSince[si] = -1
			}
		}

		causes := make([]Cause, len(n.Sites))
		agg := map[Cause]int{}
		for i := range n.Sites {
			s := &n.Sites[i]
			c := None
			switch {
			case damagedUntil[i] >= day && siteDamageStarted(sc, s, day):
				c = Damage
			case off[s.SubstationID] && hoursWithoutPower(shutoffSince[s.SubstationID], day) > s.BatteryHours:
				c = PowerLoss
			case backhaulSevered(sc, severed[i], day):
				c = BackhaulLoss
			}
			causes[i] = c
			if c != None {
				agg[c]++
			}
		}
		out.Causes[day] = causes
		out.OutByCause[day] = agg
	}
	return out
}

// siteDamageStarted reports whether any fire enclosing the site has
// started by the given day (damage cannot precede the fire).
func siteDamageStarted(sc Scenario, s *Site, day int) bool {
	for _, af := range sc.Fires {
		if day >= af.FirstDay && af.Fire.Contains(s.XY) {
			return true
		}
	}
	return false
}

// hoursWithoutPower converts consecutive shutoff days into elapsed hours
// at the day's reporting point (assume reports snapshot 12h into the
// day: day 0 of a shutoff is 12 elapsed hours, day 1 is 36, ...).
func hoursWithoutPower(since, day int) float64 {
	if since < 0 {
		return 0
	}
	return float64(day-since)*24 + 12
}

// backhaulSevered reports whether any fire with a severed route for this
// site is active on the given day.
func backhaulSevered(sc Scenario, severed []bool, day int) bool {
	for fi, af := range sc.Fires {
		if severed[fi] && day >= af.FirstDay && day <= af.LastDay {
			return true
		}
	}
	return false
}

// segmentCrossesPerimeter samples the backhaul segment ab, whose bounding
// box is route, and tests perimeter containment — a cheap stand-in for
// exact segment/polygon intersection that is exact in the limit of the
// sampling density (200 m).
func segmentCrossesPerimeter(a, b geom.Point, route geom.BBox, f *wildfire.Fire) bool {
	if !f.BBox().Intersects(route) {
		return false
	}
	d := b.Sub(a)
	steps := int(d.Norm()/200) + 1
	if steps > 4000 {
		steps = 4000
	}
	for i := 0; i <= steps; i++ {
		p := a.Add(d.Scale(float64(i) / float64(steps)))
		if f.Contains(p) {
			return true
		}
	}
	return false
}

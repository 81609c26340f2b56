package whp

import (
	"math"

	"fivealarms/internal/geom"
)

// The point-wise hazard model below is the model as it was before the
// Evaluator tabulated it per raster, kept verbatim as the Evaluator's
// twin.

// Evaluate computes the continuous hazard and class at a projected point
// directly from the world fields (resolution-independent). Build stores
// it for every cell center.
func (m *Model) Evaluate(p geom.Point) (float64, Class) {
	w := m.world
	si := w.StateAt(p)
	if si < 0 {
		return 0, Water
	}
	urban := w.UrbanAt(p)
	if urban >= UrbanCoreThreshold {
		return 0, NonBurnable
	}
	if w.RoadDistAt(p) <= m.Cfg.RoadBufferM {
		return 0, NonBurnable
	}
	h := m.HazardValue(p, si, urban)
	return h, classify(h)
}

// HazardValue returns the continuous hazard in [0,1) at a projected point
// given its state index and urban intensity. Exposed for the fire
// simulator's fuel model.
func (m *Model) HazardValue(p geom.Point, stateIdx int, urban float64) float64 {
	w := m.world
	base := stateHazard(stateIdx)
	n := w.Noise().FBM(p.X/NoiseScaleM, p.Y/NoiseScaleM, 5, 0.55)
	// Mix: the state weight sets the regional level, noise modulates it.
	h := base * (0.15 + 0.85*n)
	// The wildland-urban interface: hazard decays toward the urban core.
	damp := 1 - WUIDamping*math.Min(urban/math.Max(UrbanCoreThreshold, 1e-9), 1)
	h *= damp
	if h < 0 {
		h = 0
	}
	if h >= 1 {
		h = 0.999
	}
	return h
}

// FuelAt returns the continuous fuel loading at a projected point for the
// fire-spread simulator: 0 outside the CONUS (fires cannot burn into the
// ocean), a small permeability for nonburnable urban cores and road
// corridors (wind-driven spotting lets real fires cross them — the Saddle
// Ridge/Tick mechanism of §3.4), and the hazard value elsewhere with a
// floor so even very-low-hazard wildland carries some fuel. The function
// is resolution-independent: it derives from the world fields, not from
// the class raster.
func (m *Model) FuelAt(p geom.Point) float64 {
	w := m.world
	si := w.StateAt(p)
	if si < 0 {
		return 0
	}
	urban := w.UrbanAt(p)
	if urban >= UrbanCoreThreshold || w.RoadDistAt(p) <= m.Cfg.RoadBufferM {
		return 0.03
	}
	h := m.HazardValue(p, si, urban)
	if h < 0.05 {
		return 0.05
	}
	return h
}

package conus

import (
	"math"
	"slices"
	"testing"

	"fivealarms/internal/geom"
	"fivealarms/internal/rng"
)

// refRoads is the road-segment index as it was before the compressed
// per-cell lists: a map from cell to the segments bucketed there, with
// RoadDistAt and NearestRoadPoint over it kept verbatim as the twin.
type refRoads struct {
	w        *World
	cellSegs map[int32][]int32
}

// newRefRoads buckets w's road segments into the map the way
// rasterizeSegment and bucketSegment did.
func newRefRoads(w *World) *refRoads {
	r := &refRoads{w: w, cellSegs: map[int32][]int32{}}
	for i, s := range w.roadSegs {
		seg := int32(i)
		d := s.b.Sub(s.a)
		steps := int(d.Norm()/(w.Grid.CellSize/2)) + 1
		last := int32(-1)
		for st := 0; st <= steps; st++ {
			f := float64(st) / float64(steps)
			p := s.a.Add(d.Scale(f))
			if cx, cy, ok := w.Grid.CellOf(p); ok {
				idx := int32(cy*w.Grid.NX + cx)
				if idx != last {
					r.bucketSegment(cx, cy, seg)
					last = idx
				}
			}
		}
	}
	return r
}

func (r *refRoads) bucketSegment(cx, cy int, seg int32) {
	w := r.w
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			nx, ny := cx+dx, cy+dy
			if nx < 0 || ny < 0 || nx >= w.Grid.NX || ny >= w.Grid.NY {
				continue
			}
			key := int32(ny*w.Grid.NX + nx)
			list := r.cellSegs[key]
			if n := len(list); n > 0 && list[n-1] == seg {
				continue
			}
			r.cellSegs[key] = append(list, seg)
		}
	}
}

func (r *refRoads) RoadDistAt(p geom.Point) float64 {
	w := r.w
	v, ok := w.RoadDist.Sample(p)
	if !ok {
		return math.Inf(1)
	}
	if v > 2.5*w.Grid.CellSize {
		return v
	}
	cx, cy, ok := w.Grid.CellOf(p)
	if !ok {
		return v
	}
	best := math.Inf(1)
	// The 3x3 buckets around each road cell guarantee any point within
	// ~1.5 cells of a centerline sees its segment here.
	key := int32(cy*w.Grid.NX + cx)
	for _, si := range r.cellSegs[key] {
		s := w.roadSegs[si]
		if d := geom.DistancePointSegment(p, s.a, s.b); d < best {
			best = d
		}
	}
	if math.IsInf(best, 1) {
		// No bucketed segment (point 1.5-2.5 cells out): scan the wider
		// 5x5 neighborhood before falling back to the raster value.
		for dy := -2; dy <= 2; dy++ {
			for dx := -2; dx <= 2; dx++ {
				key := int32((cy+dy)*w.Grid.NX + (cx + dx))
				if cy+dy < 0 || cx+dx < 0 || cy+dy >= w.Grid.NY || cx+dx >= w.Grid.NX {
					continue
				}
				for _, si := range r.cellSegs[key] {
					s := w.roadSegs[si]
					if d := geom.DistancePointSegment(p, s.a, s.b); d < best {
						best = d
					}
				}
			}
		}
	}
	if math.IsInf(best, 1) {
		return v
	}
	return best
}

func (r *refRoads) NearestRoadPoint(p geom.Point) (geom.Point, bool) {
	w := r.w
	cx, cy, ok := w.Grid.CellOf(p)
	if !ok {
		return geom.Point{}, false
	}
	best := math.Inf(1)
	var bestPt geom.Point
	for dy := -2; dy <= 2; dy++ {
		for dx := -2; dx <= 2; dx++ {
			nx, ny := cx+dx, cy+dy
			if nx < 0 || ny < 0 || nx >= w.Grid.NX || ny >= w.Grid.NY {
				continue
			}
			for _, si := range r.cellSegs[int32(ny*w.Grid.NX+nx)] {
				s := w.roadSegs[si]
				q := closestOnSegment(p, s.a, s.b)
				if d := p.DistanceTo(q); d < best {
					best = d
					bestPt = q
				}
			}
		}
	}
	return bestPt, !math.IsInf(best, 1)
}

// candidates returns the segments the map twin's RoadDistAt measures in
// cell (cx, cy), when it measures any: the own bucket, or else the
// distinct segments of the 5x5 buckets around it, sorted.
func (r *refRoads) candidates(cx, cy int) []int32 {
	w := r.w
	if w.RoadDist.At(cx, cy) > 2.5*w.Grid.CellSize {
		return nil
	}
	if own := r.cellSegs[int32(cy*w.Grid.NX+cx)]; len(own) > 0 {
		return own
	}
	var union []int32
	for dy := -2; dy <= 2; dy++ {
		for dx := -2; dx <= 2; dx++ {
			if cy+dy < 0 || cx+dx < 0 || cy+dy >= w.Grid.NY || cx+dx >= w.Grid.NX {
				continue
			}
			union = append(union, r.cellSegs[int32((cy+dy)*w.Grid.NX+cx+dx)]...)
		}
	}
	slices.Sort(union)
	return slices.Compact(union)
}

// TestRoadListsConformance compares each cell's lists with the map twin's
// buckets: the own list with the cell's bucket, in order, and a ring
// cell's list, as a set, with the union RoadDistAt measures.
func TestRoadListsConformance(t *testing.T) {
	for _, cell := range []float64{2700, 10000, 40000} {
		w := Build(Config{Seed: 7, CellSizeM: cell})
		ref := newRefRoads(w)
		g := w.Grid
		for cy := 0; cy < g.NY; cy++ {
			for cx := 0; cx < g.NX; cx++ {
				c := cy*g.NX + cx
				if own, want := w.own.list(c), ref.cellSegs[int32(c)]; !slices.Equal(own, want) {
					t.Fatalf("%v m world, cell (%d, %d): own list %v, map bucket %v", cell, cx, cy, own, want)
				}
				got := w.own.list(c)
				if len(got) == 0 {
					got = slices.Clone(w.ring.list(c))
					slices.Sort(got)
				}
				if want := ref.candidates(cx, cy); !slices.Equal(got, want) && (len(got) > 0 || len(want) > 0) {
					t.Fatalf("%v m world, cell (%d, %d): measures %v, map twin %v", cell, cx, cy, got, want)
				}
			}
		}
	}
}

// TestRoadIndexConformance compares RoadDistAt and NearestRoadPoint with
// the map-based twin at every cell centre of the worlds from 2.7 to
// 40 km, at seeded points jittered within the cells near a road (two
// per cell at 10 km and coarser), at four points in every ring cell,
// and at every segment endpoint.
func TestRoadIndexConformance(t *testing.T) {
	for _, cell := range []float64{2700, 5000, 10000, 20000, 40000} {
		w := Build(Config{Seed: 7, CellSizeM: cell})
		ref := newRefRoads(w)
		g := w.Grid
		check := func(what string, p geom.Point) {
			if d, want := w.RoadDistAt(p), ref.RoadDistAt(p); math.Float64bits(d) != math.Float64bits(want) {
				t.Fatalf("%v m world, %s %v: RoadDistAt = %v, map twin %v", cell, what, p, d, want)
			}
			q, ok := w.NearestRoadPoint(p)
			wantQ, wantOK := ref.NearestRoadPoint(p)
			if q != wantQ || ok != wantOK {
				t.Fatalf("%v m world, %s %v: NearestRoadPoint = (%v, %v), map twin (%v, %v)",
					cell, what, p, q, ok, wantQ, wantOK)
			}
		}
		src := rng.New(uint64(cell))
		jitter := func(c geom.Point) geom.Point {
			return geom.Point{
				X: c.X + src.Range(-g.CellSize/2, g.CellSize/2),
				Y: c.Y + src.Range(-g.CellSize/2, g.CellSize/2),
			}
		}
		rings := 0
		for cy := 0; cy < g.NY; cy++ {
			for cx := 0; cx < g.NX; cx++ {
				c := g.Center(cx, cy)
				check("cell centre", c)
				if w.ring.has(cy*g.NX + cx) {
					rings++
					for k := 0; k < 4; k++ {
						check("ring point", jitter(c))
					}
				}
				if cell >= 10000 || w.RoadDist.At(cx, cy) <= 3*g.CellSize {
					check("jittered point", jitter(c))
					check("jittered point", jitter(c))
				}
			}
		}
		if rings == 0 {
			t.Fatalf("%v m world: no ring cells", cell)
		}
		for _, s := range w.roadSegs {
			check("segment endpoint", s.a)
			check("segment endpoint", s.b)
		}
	}
}

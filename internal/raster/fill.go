package raster

import (
	"slices"
	"sync"

	"fivealarms/internal/geom"
	"fivealarms/internal/pipeline"
)

// fillTask is the fused scanline rasterizer: bands are row ranges, and
// every polygon whose row span intersects a band is scanline-filled by
// that band's worker — so a multi-fire union touches each row once per
// overlapping polygon in a single sweep instead of once per full-grid
// pass. Serial runs (one band) write the mask directly; parallel bands
// accumulate into private word tiles merged serially in band order,
// which keeps the result bit-identical at any GOMAXPROCS (the mask is
// a union, and OR is commutative).
type fillTask struct {
	mask  *BitGrid // direct-write target; used only when tiles is empty
	g     Geometry
	polys []geom.Polygon
	rows  []int // per-polygon inclusive row range: [2i]=lo, [2i+1]=hi; hi<lo means off-grid
	tiles []*[]uint64
	offs  []int // per-band first word index of its tile
}

var fillPool = sync.Pool{New: func() any { return new(fillTask) }}

func (t *fillTask) RunBand(band, lo, hi int) {
	g := t.g
	var tile []uint64
	off := 0
	if len(t.tiles) > 0 {
		tile = *t.tiles[band]
		off = t.offs[band] * 64
	}
	xsP := getFloats(0)
	xs := (*xsP)[:0]
	for pi := range t.polys {
		rLo, rHi := t.rows[2*pi], t.rows[2*pi+1]
		if rLo < lo {
			rLo = lo
		}
		if rHi > hi-1 {
			rHi = hi - 1
		}
		if rLo > rHi {
			continue
		}
		p := &t.polys[pi]
		for cy := rLo; cy <= rHi; cy++ {
			y := g.MinY + (float64(cy)+0.5)*g.CellSize
			xs = xs[:0]
			// Even-odd crossings of this polygon's rings with the row's
			// center line: exterior first, then holes (the same ring order
			// the serial rasterizer used).
			for ri := -1; ri < len(p.Holes); ri++ {
				ring := p.Exterior
				if ri >= 0 {
					ring = p.Holes[ri]
				}
				n := len(ring)
				for i := 0; i < n; i++ {
					a := ring[i]
					b := ring[(i+1)%n]
					if (a.Y > y) == (b.Y > y) {
						continue
					}
					xs = append(xs, a.X+(b.X-a.X)*(y-a.Y)/(b.Y-a.Y))
				}
			}
			if len(xs) < 2 {
				continue
			}
			slices.Sort(xs)
			for i := 0; i+1 < len(xs); i += 2 {
				x0, x1 := xs[i], xs[i+1]
				cx0 := int((x0 - g.MinX) / g.CellSize)
				cx1 := int((x1 - g.MinX) / g.CellSize)
				if cx0 < 0 {
					cx0 = 0
				}
				if cx1 >= g.NX {
					cx1 = g.NX - 1
				}
				// Trim each end with the exact center-in-interval tests the
				// per-cell loop applied. Cell centers are monotone in cx, so
				// the passing cells form the contiguous range that survives
				// trimming, and the bulk word store below sets precisely the
				// cells the per-cell path set. The negated comparisons also
				// reproduce its NaN behavior (no cells set).
				for cx0 <= cx1 && !(g.MinX+(float64(cx0)+0.5)*g.CellSize >= x0) {
					cx0++
				}
				for cx1 >= cx0 && !(g.MinX+(float64(cx1)+0.5)*g.CellSize <= x1) {
					cx1--
				}
				if cx0 > cx1 {
					continue
				}
				if tile == nil {
					t.mask.SetSpan(cy, cx0, cx1)
				} else {
					setWordSpan(tile, cy*g.NX+cx0-off, cy*g.NX+cx1-off)
				}
			}
		}
	}
	*xsP = xs
	putFloats(xsP)
}

// FillPolygonsInto sets every cell of mask whose center lies inside any
// of the polygons (even-odd rule per polygon, union across polygons),
// leaving already-set cells set. This is the fused multi-layer sweep:
// one banded pass over the grid rasterizes the whole collection, so a
// season's fire perimeters cost one traversal instead of one per fire.
// The result is bit-identical at any GOMAXPROCS. Scratch comes from the
// arena, so repeated sweeps allocate nothing.
func FillPolygonsInto(mask *BitGrid, polys []geom.Polygon) {
	g := mask.Geometry
	if len(polys) == 0 || g.Cells() == 0 {
		return
	}
	rowsP := getInts(2 * len(polys))
	rows := *rowsP
	for i := range polys {
		rows[2*i], rows[2*i+1] = 1, 0
		bb := polys[i].BBox().Intersection(g.Bounds())
		if bb.IsEmpty() {
			continue
		}
		cy0 := int((bb.MinY - g.MinY) / g.CellSize)
		cy1 := int((bb.MaxY - g.MinY) / g.CellSize)
		if cy0 < 0 {
			cy0 = 0
		}
		if cy1 >= g.NY {
			cy1 = g.NY - 1
		}
		rows[2*i], rows[2*i+1] = cy0, cy1
	}

	bands := kernelBands(g.Cells(), g.NY)
	t := fillPool.Get().(*fillTask)
	t.mask, t.g, t.polys, t.rows = mask, g, polys, rows
	t.tiles, t.offs = t.tiles[:0], t.offs[:0]
	if bands > 1 {
		for b := 0; b < bands; b++ {
			lo, hi := pipeline.BandRange(b, g.NY, bands)
			w0 := (lo * g.NX) >> 6
			w1 := (hi*g.NX + 63) >> 6
			t.tiles = append(t.tiles, getWords(w1-w0))
			t.offs = append(t.offs, w0)
		}
	}
	pipeline.Bands(t, g.NY, bands)
	if bands > 1 {
		// Serial merge in band order: adjacent bands share at most their
		// boundary words (rows are bit-packed back to back), and OR is
		// commutative, so the merged mask is schedule-independent.
		for b := range t.tiles {
			tile := *t.tiles[b]
			for i, w := range tile {
				if w != 0 {
					mask.bits[t.offs[b]+i] |= w
				}
			}
			putWords(t.tiles[b])
		}
		t.tiles, t.offs = t.tiles[:0], t.offs[:0]
	}
	t.mask, t.polys, t.rows = nil, nil, nil
	fillPool.Put(t)
	putInts(rowsP)
}

// FillPolygon sets every cell of the returned mask whose center lies inside
// the polygon (even-odd rule over all rings), clipped to the geometry.
func FillPolygon(g Geometry, poly geom.Polygon) *BitGrid {
	mask := NewBitGrid(g)
	FillPolygonsInto(mask, []geom.Polygon{poly})
	return mask
}

package raster

import (
	"math"

	"fivealarms/internal/pipeline"
)

// DistanceTransform computes, for every cell, the exact Euclidean distance
// in meters from the cell center to the center of the nearest set cell in
// mask. Cells that are themselves set get distance 0. When the mask is
// empty every cell gets +Inf.
//
// The implementation is the exact two-pass separable squared-EDT of
// Felzenszwalb & Huttenlocher (2012): a column pass computing 1-D squared
// distances followed by a row pass taking the lower envelope of parabolas.
// Complexity is O(NX*NY). Both passes run banded across goroutines
// scoped to the call (columns sharded by column range, rows by row
// range; each band writes a disjoint region, so the result is
// bit-identical to the serial path at any GOMAXPROCS). The column
// distances are pooled grid-sized scratch; the returned grid and each
// row band's envelope are allocated per call.
func DistanceTransform(mask *BitGrid) *FloatGrid {
	out := NewFloatGrid(mask.Geometry)
	distanceInto(out.Data, mask)
	return out
}

// distanceInto writes the distance transform of mask into out, one
// value per cell of mask's geometry, overwriting every cell.
func distanceInto(out []float64, mask *BitGrid) {
	g := mask.Geometry
	if g.Cells() == 0 {
		return
	}
	colP := getFloats(g.Cells())
	colDist := *colP
	inf := math.Inf(1)
	// Column pass: per column, the 1-D squared distance (in cell units)
	// to the nearest set cell in that column. Each band writes its own
	// columns of colDist.
	pipeline.Bands(pipeline.BandFunc(func(_, lo, hi int) {
		for cx := lo; cx < hi; cx++ {
			// Downward sweep.
			d := inf
			for cy := 0; cy < g.NY; cy++ {
				if mask.Get(cx, cy) {
					d = 0
				} else if !math.IsInf(d, 1) {
					d++
				}
				colDist[cy*g.NX+cx] = d
			}
			// Upward sweep.
			d = inf
			for cy := g.NY - 1; cy >= 0; cy-- {
				if mask.Get(cx, cy) {
					d = 0
				} else if !math.IsInf(d, 1) {
					d++
				}
				i := cy*g.NX + cx
				if d < colDist[i] {
					colDist[i] = d
				}
			}
			// Square.
			for cy := 0; cy < g.NY; cy++ {
				i := cy*g.NX + cx
				if !math.IsInf(colDist[i], 1) {
					colDist[i] *= colDist[i]
				}
			}
		}
	}), g.NX, kernelBands(g.Cells(), g.NX))
	// Row pass: per row, the lower envelope of parabolas
	// f(x) = colDist[row][q] + (x-q)^2 over the finite parabolas. Each
	// band writes its own rows of out.
	pipeline.Bands(pipeline.BandFunc(func(_, lo, hi int) {
		v := make([]int, g.NX)       // parabola source positions
		z := make([]float64, g.NX+1) // envelope breakpoints
		for cy := lo; cy < hi; cy++ {
			base := cy * g.NX
			f := colDist[base : base+g.NX]
			k := -1
			for q := 0; q < g.NX; q++ {
				if math.IsInf(f[q], 1) {
					continue
				}
				var s float64
				for k >= 0 {
					p := v[k]
					s = ((f[q] + float64(q*q)) - (f[p] + float64(p*p))) / float64(2*q-2*p)
					if s > z[k] {
						break
					}
					k--
				}
				if k < 0 {
					k = 0
					v[0] = q
					z[0] = math.Inf(-1)
				} else {
					k++
					v[k] = q
					z[k] = s
				}
				z[k+1] = inf
			}
			if k < 0 {
				// No set cell anywhere reaches this row: all infinite.
				for q := 0; q < g.NX; q++ {
					out[base+q] = inf
				}
				continue
			}
			k = 0
			for q := 0; q < g.NX; q++ {
				for z[k+1] < float64(q) {
					k++
				}
				p := v[k]
				dq := float64(q - p)
				out[base+q] = math.Sqrt(f[p]+dq*dq) * g.CellSize
			}
		}
	}), g.NY, kernelBands(g.Cells(), g.NY))
	putFloats(colP)
}

// DilateByDistance returns the mask grown outward by dist meters: every
// cell whose center lies within dist of a set cell's center becomes set.
// dist <= 0 returns a clone. The intermediate distance field is pooled
// grid-sized scratch, like the transform's column distances.
func DilateByDistance(mask *BitGrid, dist float64) *BitGrid {
	if dist <= 0 {
		return mask.Clone()
	}
	g := mask.Geometry
	cells := g.Cells()
	out := NewBitGrid(g)
	if cells == 0 {
		return out
	}
	dtP := getFloats(cells)
	dt := *dtP
	distanceInto(dt, mask)
	// Threshold: bands are word ranges of the output, so every band
	// writes whole words.
	pipeline.Bands(pipeline.BandFunc(func(_, lo, hi int) {
		for w := lo; w < hi; w++ {
			base := w * 64
			n := min(cells-base, 64)
			var word uint64
			for b := 0; b < n; b++ {
				if dt[base+b] <= dist {
					word |= 1 << uint(b)
				}
			}
			out.bits[w] = word
		}
	}), len(out.bits), kernelBands(cells, len(out.bits)))
	putFloats(dtP)
	return out
}

// Disk is the neighbourhood DilateByDistance searches around one cell:
// Reaches tells whether the dilation sets the cell by reading the mask
// only inside the disk. The disk is stored as half-widths per row, cut
// where the grid ends.
type Disk struct {
	// half[|dy|] is the half-width of row offset dy; rows beyond
	// len(half)-1 are outside the disk.
	half []int
	// all marks an infinite dist: the dilation then sets every cell, even
	// of an empty mask, since +Inf <= +Inf.
	all bool
}

// DilationDisk returns the disk of DilateByDistance(mask, dist) on grids
// of geometry g. The dilation sets a cell when, for the exact integer
// squared cell distance d2 to some set cell, math.Sqrt(d2)*g.CellSize <=
// dist: the distance transform's row pass computes that expression and
// the threshold keeps cells <= dist. The disk tests the same expression,
// so it rounds the same way on the boundary; d2 <= (dist/CellSize)^2
// would not. dist <= 0 keeps the cell alone, as DilateByDistance returns
// a clone, and a NaN dist gives an empty disk.
func DilationDisk(g Geometry, dist float64) Disk {
	if dist <= 0 {
		return Disk{half: []int{0}}
	}
	if math.IsInf(dist, 1) {
		return Disk{all: true}
	}
	within := func(dx, dy int) bool {
		return math.Sqrt(float64(dx*dx+dy*dy))*g.CellSize <= dist
	}
	// Offsets of NX columns or NY rows never land on the grid. Start the
	// row-0 half-width above the true one (q rounds by under a cell) and
	// narrow it row by row: the disk only shrinks away from its center.
	w := g.NX - 1
	if q := dist / g.CellSize; q < float64(w-2) {
		w = int(q) + 2
	}
	var half []int
	for dy := 0; dy < g.NY && within(0, dy); dy++ {
		for !within(w, dy) {
			w--
		}
		half = append(half, w)
	}
	return Disk{half: half}
}

// Reaches reports whether DilateByDistance(mask, dist) sets cell (cx, cy)
// of the grid, for the dist the disk was made with. It reads mask only
// inside the disk centered on (cx, cy), a word-level span test per row,
// so mask need only be right there.
func (d Disk) Reaches(mask *BitGrid, cx, cy int) bool {
	if d.all {
		return true
	}
	for dy, w := range d.half {
		if mask.AnyInSpan(cy+dy, cx-w, cx+w) || dy > 0 && mask.AnyInSpan(cy-dy, cx-w, cx+w) {
			return true
		}
	}
	return false
}

// Cover sets in b every cell that Reaches reads for cell (cx, cy): the
// disk centered there, clipped to the grid. An infinite dist reads none.
func (d Disk) Cover(b *BitGrid, cx, cy int) {
	for dy, w := range d.half {
		b.SetSpan(cy+dy, cx-w, cx+w)
		if dy > 0 {
			b.SetSpan(cy-dy, cx-w, cx+w)
		}
	}
}

package raster

import (
	"math"
	"sync"

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
// bit-identical to the serial path at any GOMAXPROCS). Scratch comes
// from the arena; the only allocation is the returned grid.
func DistanceTransform(mask *BitGrid) *FloatGrid {
	out := NewFloatGrid(mask.Geometry)
	// The error is impossible: out was just built on mask's geometry.
	_ = DistanceTransformInto(out, mask) //fivealarms:allow(errflow) out was just built on mask's geometry, the only error the kernel can report
	return out
}

// dtColsTask is the column pass: per column, 1-D squared distance (in
// cell units) to the nearest set cell in that column. Bands are column
// ranges; each band writes a disjoint column stripe of colDist.
type dtColsTask struct {
	mask    *BitGrid
	colDist []float64
}

var dtColsPool = sync.Pool{New: func() any { return new(dtColsTask) }}

func (t *dtColsTask) RunBand(_, lo, hi int) {
	g := t.mask.Geometry
	colDist := t.colDist
	inf := math.Inf(1)
	for cx := lo; cx < hi; cx++ {
		// Downward sweep.
		d := inf
		for cy := 0; cy < g.NY; cy++ {
			if t.mask.Get(cx, cy) {
				d = 0
			} else if !math.IsInf(d, 1) {
				d++
			}
			colDist[cy*g.NX+cx] = d
		}
		// Upward sweep.
		d = inf
		for cy := g.NY - 1; cy >= 0; cy-- {
			if t.mask.Get(cx, cy) {
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
}

// dtRowsTask is the row pass: per row, the lower envelope of parabolas
// f(x) = colDist[row][q] + (x-q)^2 over the finite parabolas. Bands are
// row ranges; each band writes a disjoint row stripe of out and carries
// its own envelope scratch (source positions, breakpoints, row copy)
// from the arena.
type dtRowsTask struct {
	g       Geometry
	colDist []float64
	out     []float64
}

var dtRowsPool = sync.Pool{New: func() any { return new(dtRowsTask) }}

func (t *dtRowsTask) RunBand(_, lo, hi int) {
	g := t.g
	inf := math.Inf(1)
	vP := getInts(g.NX)       // parabola source positions
	zP := getFloats(g.NX + 1) // envelope breakpoints
	fP := getFloats(g.NX)     // row copy of colDist
	v, z, fRow := *vP, *zP, *fP
	for cy := lo; cy < hi; cy++ {
		base := cy * g.NX
		copy(fRow, t.colDist[base:base+g.NX])
		k := -1
		for q := 0; q < g.NX; q++ {
			if math.IsInf(fRow[q], 1) {
				continue
			}
			var s float64
			for k >= 0 {
				p := v[k]
				s = ((fRow[q] + float64(q*q)) - (fRow[p] + float64(p*p))) / float64(2*q-2*p)
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
				t.out[base+q] = inf
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
			t.out[base+q] = math.Sqrt(fRow[p]+dq*dq) * g.CellSize
		}
	}
	putInts(vP)
	putFloats(zP)
	putFloats(fP)
}

// DistanceTransformInto computes the distance transform of mask into an
// existing grid (see DistanceTransform), overwriting every cell. out
// must share mask's geometry or ErrShapeMismatch is returned. All
// intermediate state comes from the scratch arena, so repeated sweeps
// over a fixed geometry allocate nothing.
func DistanceTransformInto(out *FloatGrid, mask *BitGrid) error {
	if !out.Same(mask.Geometry) {
		return ErrShapeMismatch
	}
	g := mask.Geometry
	if g.Cells() == 0 {
		return nil
	}
	colDistP := getFloats(g.Cells())

	ct := dtColsPool.Get().(*dtColsTask)
	ct.mask, ct.colDist = mask, *colDistP
	pipeline.Bands(ct, g.NX, kernelBands(g.Cells(), g.NX))
	ct.mask, ct.colDist = nil, nil
	dtColsPool.Put(ct)

	rt := dtRowsPool.Get().(*dtRowsTask)
	rt.g, rt.colDist, rt.out = g, *colDistP, out.Data
	pipeline.Bands(rt, g.NY, kernelBands(g.Cells(), g.NY))
	rt.colDist, rt.out = nil, nil
	dtRowsPool.Put(rt)

	putFloats(colDistP)
	return nil
}

// thresholdTask builds the dilation mask from a distance field: bands
// are word ranges of the output bit slice, so every band writes whole
// words disjointly (no merge needed).
type thresholdTask struct {
	dt    []float64
	out   []uint64
	cells int
	dist  float64
}

var thresholdPool = sync.Pool{New: func() any { return new(thresholdTask) }}

func (t *thresholdTask) RunBand(_, lo, hi int) {
	for w := lo; w < hi; w++ {
		base := w * 64
		n := t.cells - base
		if n > 64 {
			n = 64
		}
		var word uint64
		for b := 0; b < n; b++ {
			if t.dt[base+b] <= t.dist {
				word |= 1 << uint(b)
			}
		}
		t.out[w] = word
	}
}

// DilateByDistance returns the mask grown outward by dist meters: every
// cell whose center lies within dist of a set cell's center becomes set.
// dist <= 0 returns a clone. The intermediate distance field lives in
// the arena, not the heap.
func DilateByDistance(mask *BitGrid, dist float64) *BitGrid {
	if dist <= 0 {
		return mask.Clone()
	}
	g := mask.Geometry
	dt := AcquireFloatGrid(g)
	// The error is impossible: dt was just acquired on mask's geometry.
	_ = DistanceTransformInto(dt, mask) //fivealarms:allow(errflow) dt was just acquired on mask's geometry, the only error the kernel can report
	out := NewBitGrid(g)
	if len(out.bits) > 0 {
		tt := thresholdPool.Get().(*thresholdTask)
		tt.dt, tt.out, tt.cells, tt.dist = dt.Data, out.bits, g.Cells(), dist
		pipeline.Bands(tt, len(out.bits), kernelBands(g.Cells(), len(out.bits)))
		tt.dt, tt.out = nil, nil
		thresholdPool.Put(tt)
	}
	ReleaseFloatGrid(dt)
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

// dilate8Task is one ring of 8-neighborhood dilation: bands are row
// ranges reading the previous generation (shared, read-only) and
// accumulating newly set cells into per-band tiles merged serially in
// band order.
type dilate8Task struct {
	cur   *BitGrid
	tiles []*[]uint64 // per-band word buffers
	offs  []int       // per-band first word index
}

var dilate8Pool = sync.Pool{New: func() any { return new(dilate8Task) }}

func (t *dilate8Task) RunBand(band, lo, hi int) {
	cur := t.cur
	nx := cur.NX
	tile := *t.tiles[band]
	off := t.offs[band] * 64
	for cy := lo; cy < hi; cy++ {
		for cx := 0; cx < nx; cx++ {
			if cur.Get(cx, cy) {
				continue
			}
			if cur.Get(cx-1, cy) || cur.Get(cx+1, cy) || cur.Get(cx, cy-1) || cur.Get(cx, cy+1) ||
				cur.Get(cx-1, cy-1) || cur.Get(cx+1, cy-1) || cur.Get(cx-1, cy+1) || cur.Get(cx+1, cy+1) {
				i := cy*nx + cx - off
				tile[i>>6] |= 1 << (uint(i) & 63)
			}
		}
	}
}

// Dilate8 returns the mask grown by steps rings of 8-neighborhood
// dilation — the cheap morphological alternative to DilateByDistance used
// by the ablation benchmarks. The two generations ping-pong between one
// pair of grids instead of cloning per ring.
func Dilate8(mask *BitGrid, steps int) *BitGrid {
	cur := mask.Clone()
	if steps <= 0 || cur.Cells() == 0 {
		return cur
	}
	g := cur.Geometry
	next := NewBitGrid(g)
	bands := kernelBands(g.Cells(), g.NY)
	t := dilate8Pool.Get().(*dilate8Task)
	t.tiles = t.tiles[:0]
	t.offs = t.offs[:0]
	for b := 0; b < bands; b++ {
		lo, hi := pipeline.BandRange(b, g.NY, bands)
		w0 := (lo * g.NX) >> 6
		w1 := (hi*g.NX + 63) >> 6
		t.tiles = append(t.tiles, getWords(w1-w0))
		t.offs = append(t.offs, w0)
	}
	for s := 0; s < steps; s++ {
		copy(next.bits, cur.bits)
		t.cur = cur
		if s > 0 {
			for b := range t.tiles {
				clear(*t.tiles[b])
			}
		}
		pipeline.Bands(t, g.NY, bands)
		// Serial merge, band order: OR each band's tile into the next
		// generation. Bands only share their boundary words, and OR is
		// commutative, so the merge is order-independent anyway.
		for b := range t.tiles {
			tile := *t.tiles[b]
			for i, w := range tile {
				if w != 0 {
					next.bits[t.offs[b]+i] |= w
				}
			}
		}
		cur, next = next, cur
	}
	for b := range t.tiles {
		putWords(t.tiles[b])
	}
	t.cur, t.tiles, t.offs = nil, t.tiles[:0], t.offs[:0]
	dilate8Pool.Put(t)
	return cur
}

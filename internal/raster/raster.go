// Package raster implements projected-grid rasters and the raster analyses
// the fivealarms pipeline relies on: class grids (the WHP categories),
// float fields (fuel/hazard surfaces), point sampling, zonal statistics,
// exact Euclidean distance transforms (the §3.8 "extend very-high areas by
// half a mile" operation), binary-mask contour tracing (fire-perimeter
// extraction), and polygon rasterization (perimeter -> burned-cell mask).
//
// Grid convention: cells are squares of CellSize meters in a projected
// plane; cell (cx, cy) covers [MinX+cx*s, MinX+(cx+1)*s) x [MinY+cy*s,
// MinY+(cy+1)*s). Row cy=0 is the southern edge. Values are stored
// row-major, index cy*NX+cx.
package raster

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"fivealarms/internal/geom"
)

// ErrShapeMismatch is returned when an operation combines grids with
// different geometry.
var ErrShapeMismatch = errors.New("raster: grid shapes differ")

// Geometry describes the placement of a raster in projected space.
type Geometry struct {
	MinX, MinY float64 // projected coordinates of the grid's SW corner
	CellSize   float64 // cell edge length in meters
	NX, NY     int     // columns, rows
}

// NewGeometry returns a Geometry covering box with the given cell size,
// expanding the box to a whole number of cells.
func NewGeometry(box geom.BBox, cellSize float64) Geometry {
	if cellSize <= 0 {
		cellSize = 1
	}
	nx := int(box.Width()/cellSize) + 1
	ny := int(box.Height()/cellSize) + 1
	return Geometry{MinX: box.MinX, MinY: box.MinY, CellSize: cellSize, NX: nx, NY: ny}
}

// Cells returns the total number of cells.
func (g Geometry) Cells() int { return g.NX * g.NY }

// Bounds returns the projected bounding box covered by the grid.
func (g Geometry) Bounds() geom.BBox {
	return geom.BBox{
		MinX: g.MinX, MinY: g.MinY,
		MaxX: g.MinX + float64(g.NX)*g.CellSize,
		MaxY: g.MinY + float64(g.NY)*g.CellSize,
	}
}

// CellOf returns the cell containing the projected point and whether it is
// inside the grid. The column depends on p.X alone and the row on p.Y
// alone: CellOf is Col and Row.
func (g Geometry) CellOf(p geom.Point) (cx, cy int, ok bool) {
	cx, okX := g.Col(p.X)
	cy, okY := g.Row(p.Y)
	return cx, cy, okX && okY
}

// Col returns the column holding projected x and whether it is one of
// the grid's columns.
func (g Geometry) Col(x float64) (int, bool) {
	cx := int((x - g.MinX) / g.CellSize)
	// The explicit bounds also reject NaN and infinite coordinates, whose
	// conversions to int are platform-defined.
	return cx, x >= g.MinX && cx >= 0 && cx < g.NX
}

// Row returns the row holding projected y and whether it is one of the
// grid's rows.
func (g Geometry) Row(y float64) (int, bool) {
	cy := int((y - g.MinY) / g.CellSize)
	return cy, y >= g.MinY && cy >= 0 && cy < g.NY
}

// Center returns the projected coordinates of the center of cell (cx, cy).
func (g Geometry) Center(cx, cy int) geom.Point {
	return geom.Point{X: g.ColX(cx), Y: g.RowY(cy)}
}

// ColX returns the projected x of the centers of column cx.
func (g Geometry) ColX(cx int) float64 { return g.MinX + (float64(cx)+0.5)*g.CellSize }

// RowY returns the projected y of the centers of row cy.
func (g Geometry) RowY(cy int) float64 { return g.MinY + (float64(cy)+0.5)*g.CellSize }

// CellArea returns the area of one cell in square meters.
func (g Geometry) CellArea() float64 { return g.CellSize * g.CellSize }

// Same reports whether two geometries are identical.
func (g Geometry) Same(o Geometry) bool { return g == o }

// ClassGrid is a raster of small categorical values (e.g. WHP classes).
type ClassGrid struct {
	Geometry
	Data []uint8
}

// NewClassGrid allocates a zero-filled class grid with the given geometry.
func NewClassGrid(g Geometry) *ClassGrid {
	return &ClassGrid{Geometry: g, Data: make([]uint8, g.Cells())}
}

// At returns the class at cell (cx, cy); out-of-range cells return 0.
func (c *ClassGrid) At(cx, cy int) uint8 {
	if cx < 0 || cy < 0 || cx >= c.NX || cy >= c.NY {
		return 0
	}
	return c.Data[cy*c.NX+cx]
}

// Set stores v at cell (cx, cy); out-of-range cells are ignored.
func (c *ClassGrid) Set(cx, cy int, v uint8) {
	if cx < 0 || cy < 0 || cx >= c.NX || cy >= c.NY {
		return
	}
	c.Data[cy*c.NX+cx] = v
}

// Sample returns the class at the projected point and whether the point is
// on the grid.
func (c *ClassGrid) Sample(p geom.Point) (uint8, bool) {
	cx, cy, ok := c.CellOf(p)
	if !ok {
		return 0, false
	}
	return c.Data[cy*c.NX+cx], true
}

// Histogram returns the number of cells holding each class value.
func (c *ClassGrid) Histogram() [256]int {
	var h [256]int
	for _, v := range c.Data {
		h[v]++
	}
	return h
}

// Mask returns a boolean mask of the cells for which keep returns true.
func (c *ClassGrid) Mask(keep func(uint8) bool) *BitGrid {
	m := NewBitGrid(c.Geometry)
	for i, v := range c.Data {
		if keep(v) {
			m.setIdx(i)
		}
	}
	return m
}

// Clone returns a deep copy.
func (c *ClassGrid) Clone() *ClassGrid {
	out := NewClassGrid(c.Geometry)
	copy(out.Data, c.Data)
	return out
}

// FloatGrid is a raster of float64 values (fuel, hazard, elevation...).
type FloatGrid struct {
	Geometry
	Data []float64
}

// NewFloatGrid allocates a zero-filled float grid.
func NewFloatGrid(g Geometry) *FloatGrid {
	return &FloatGrid{Geometry: g, Data: make([]float64, g.Cells())}
}

// At returns the value at (cx, cy); out-of-range cells return 0.
func (f *FloatGrid) At(cx, cy int) float64 {
	if cx < 0 || cy < 0 || cx >= f.NX || cy >= f.NY {
		return 0
	}
	return f.Data[cy*f.NX+cx]
}

// Set stores v at (cx, cy); out-of-range cells are ignored.
func (f *FloatGrid) Set(cx, cy int, v float64) {
	if cx < 0 || cy < 0 || cx >= f.NX || cy >= f.NY {
		return
	}
	f.Data[cy*f.NX+cx] = v
}

// Sample returns the value at the projected point and whether the point is
// on the grid.
func (f *FloatGrid) Sample(p geom.Point) (float64, bool) {
	cx, cy, ok := f.CellOf(p)
	if !ok {
		return 0, false
	}
	return f.Data[cy*f.NX+cx], true
}

// BitGrid is a compact boolean raster used for burned-area and buffer
// masks.
type BitGrid struct {
	Geometry
	bits []uint64
}

// NewBitGrid allocates an all-false bit grid.
func NewBitGrid(g Geometry) *BitGrid {
	return &BitGrid{Geometry: g, bits: make([]uint64, (g.Cells()+63)/64)}
}

// Get reports the bit at (cx, cy); out-of-range cells are false.
func (b *BitGrid) Get(cx, cy int) bool {
	if cx < 0 || cy < 0 || cx >= b.NX || cy >= b.NY {
		return false
	}
	i := cy*b.NX + cx
	return b.bits[i>>6]&(1<<(uint(i)&63)) != 0
}

// Set sets the bit at (cx, cy) to v; out-of-range cells are ignored.
func (b *BitGrid) Set(cx, cy int, v bool) {
	if cx < 0 || cy < 0 || cx >= b.NX || cy >= b.NY {
		return
	}
	i := cy*b.NX + cx
	if v {
		b.bits[i>>6] |= 1 << (uint(i) & 63)
	} else {
		b.bits[i>>6] &^= 1 << (uint(i) & 63)
	}
}

func (b *BitGrid) setIdx(i int) { b.bits[i>>6] |= 1 << (uint(i) & 63) }

// Count returns the number of set cells (hardware popcount per word).
func (b *BitGrid) Count() int {
	n := 0
	for _, w := range b.bits {
		n += bits.OnesCount64(w)
	}
	return n
}

// Clear resets every cell to false without reallocating.
func (b *BitGrid) Clear() {
	clear(b.bits)
}

// SetSpan sets cells cx0..cx1 (inclusive) of row cy with word-level
// masks — 64 cells per store instead of one. The span is clamped to the
// grid; an inverted or fully off-grid span is a no-op.
func (b *BitGrid) SetSpan(cy, cx0, cx1 int) {
	if i0, i1, ok := b.span(cy, cx0, cx1); ok {
		setWordSpan(b.bits, i0, i1)
	}
}

// AnyInSpan reports whether any of cells cx0..cx1 (inclusive) of row cy
// is set, testing 64 cells per word and stopping at the first set one.
// The span is clamped to the grid like SetSpan's; an inverted or fully
// off-grid span holds no set cell.
func (b *BitGrid) AnyInSpan(cy, cx0, cx1 int) bool {
	i0, i1, ok := b.span(cy, cx0, cx1)
	if !ok {
		return false
	}
	w0, w1 := i0>>6, i1>>6
	lowMask, highMask := spanMasks(i0, i1)
	if w0 == w1 {
		return b.bits[w0]&lowMask&highMask != 0
	}
	if b.bits[w0]&lowMask != 0 {
		return true
	}
	for w := w0 + 1; w < w1; w++ {
		if b.bits[w] != 0 {
			return true
		}
	}
	return b.bits[w1]&highMask != 0
}

// span clamps cells cx0..cx1 of row cy to the grid and returns their
// first and last bit index; ok is false when no cell is left.
func (b *BitGrid) span(cy, cx0, cx1 int) (i0, i1 int, ok bool) {
	if cy < 0 || cy >= b.NY {
		return 0, 0, false
	}
	cx0 = max(cx0, 0)
	cx1 = min(cx1, b.NX-1)
	if cx0 > cx1 {
		return 0, 0, false
	}
	return cy*b.NX + cx0, cy*b.NX + cx1, true
}

// spanMasks returns the masks of bits i0.. in the word holding i0 and of
// bits ..i1 in the word holding i1.
func spanMasks(i0, i1 int) (lowMask, highMask uint64) {
	return ^uint64(0) << (uint(i0) & 63), ^uint64(0) >> (63 - (uint(i1) & 63))
}

// setWordSpan sets bits i0..i1 (inclusive) of a packed word slice.
func setWordSpan(words []uint64, i0, i1 int) {
	w0, w1 := i0>>6, i1>>6
	lowMask, highMask := spanMasks(i0, i1)
	if w0 == w1 {
		words[w0] |= lowMask & highMask
		return
	}
	words[w0] |= lowMask
	for w := w0 + 1; w < w1; w++ {
		words[w] = ^uint64(0)
	}
	words[w1] |= highMask
}

// Not complements every cell in place (tail bits beyond the last cell
// stay zero, preserving the Count/Or/And invariants).
func (b *BitGrid) Not() {
	for i := range b.bits {
		b.bits[i] = ^b.bits[i]
	}
	b.maskTail()
}

// maskTail zeroes the unused bits of the final word.
func (b *BitGrid) maskTail() {
	if n := b.Cells() & 63; n != 0 && len(b.bits) > 0 {
		b.bits[len(b.bits)-1] &= (1 << uint(n)) - 1
	}
}

// ForEachSetRun calls fn once per maximal horizontal run of set cells,
// in row-major order: fn(cy, cx0, cx1) with cx0..cx1 inclusive. Runs
// are discovered word-at-a-time (trailing-zeros scans), so sparse masks
// iterate in time proportional to words plus runs, not cells — the
// bulk replacement for per-cell Get loops over set regions.
func (b *BitGrid) ForEachSetRun(fn func(cy, cx0, cx1 int)) {
	for cy := 0; cy < b.NY; cy++ {
		base := cy * b.NX
		cx := 0
		for cx < b.NX {
			// Find the next set cell at or after cx.
			i := base + cx
			w := b.bits[i>>6] >> (uint(i) & 63)
			if w == 0 {
				cx += 64 - int(uint(i)&63)
				continue
			}
			cx += bits.TrailingZeros64(w)
			if cx >= b.NX {
				break
			}
			start := cx
			// Find the next clear cell after the run. The inversion turns
			// bits shifted in beyond the word end into ones, so only the
			// 64-s bits actually read from this word may terminate the run.
			for cx < b.NX {
				i = base + cx
				s := int(uint(i) & 63)
				w = ^(b.bits[i>>6] >> uint(s))
				tz := bits.TrailingZeros64(w)
				if tz >= 64-s {
					cx += 64 - s
					continue
				}
				cx += tz
				break
			}
			if cx > b.NX {
				cx = b.NX
			}
			fn(cy, start, cx-1)
		}
	}
}

// Or sets b to the union of b and o. Returns ErrShapeMismatch when the
// geometries differ.
func (b *BitGrid) Or(o *BitGrid) error {
	if !b.Same(o.Geometry) {
		return ErrShapeMismatch
	}
	for i := range b.bits {
		b.bits[i] |= o.bits[i]
	}
	return nil
}

// And sets b to the intersection of b and o. Returns ErrShapeMismatch
// when the geometries differ.
func (b *BitGrid) And(o *BitGrid) error {
	if !b.Same(o.Geometry) {
		return ErrShapeMismatch
	}
	for i := range b.bits {
		b.bits[i] &= o.bits[i]
	}
	return nil
}

// AndNot clears in b every cell set in o.
func (b *BitGrid) AndNot(o *BitGrid) error {
	if !b.Same(o.Geometry) {
		return ErrShapeMismatch
	}
	for i := range b.bits {
		b.bits[i] &^= o.bits[i]
	}
	return nil
}

// Clone returns a deep copy.
func (b *BitGrid) Clone() *BitGrid {
	out := NewBitGrid(b.Geometry)
	copy(out.bits, b.bits)
	return out
}

// AreaSquareMeters returns the total area of set cells.
func (b *BitGrid) AreaSquareMeters() float64 {
	return float64(b.Count()) * b.CellArea()
}

// fnv64 constants for the grid fingerprints below.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvWord(h, w uint64) uint64 {
	for s := 0; s < 64; s += 8 {
		h = (h ^ (w >> s & 0xff)) * fnvPrime
	}
	return h
}

// Fingerprint returns an FNV-1a hash of the grid's geometry and cell
// contents — the compact equality witness the CI smoke step and the
// kernel benchmarks use to assert that the parallel schedules produce
// the exact bits the serial path does.
func (b *BitGrid) Fingerprint() uint64 {
	h := uint64(fnvOffset)
	h = fnvWord(h, uint64(b.NX))
	h = fnvWord(h, uint64(b.NY))
	for _, w := range b.bits {
		h = fnvWord(h, w)
	}
	return h
}

// Fingerprint returns an FNV-1a hash of the grid's geometry and the
// IEEE-754 bit patterns of every cell (so ±0 and NaN payloads count;
// bit-identity, not numeric equality).
func (f *FloatGrid) Fingerprint() uint64 {
	h := uint64(fnvOffset)
	h = fnvWord(h, uint64(f.NX))
	h = fnvWord(h, uint64(f.NY))
	for _, v := range f.Data {
		h = fnvWord(h, math.Float64bits(v))
	}
	return h
}

// String summarizes the grid for debugging.
func (g Geometry) String() string {
	return fmt.Sprintf("raster %dx%d @%gm origin (%.0f, %.0f)", g.NX, g.NY, g.CellSize, g.MinX, g.MinY)
}

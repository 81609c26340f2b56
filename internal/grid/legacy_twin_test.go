package grid

// LegacyIndex is Index as it was before it stored compressed rows: one
// []int32 of point indices per cell. Its constructor and queries are
// kept verbatim, renamed, as the twin that TestIndexMatchesLegacyTwin
// (in the external test package, which may import diffcheck) compares
// the compressed rows against, sequence for sequence.

import (
	"math"

	"fivealarms/internal/geom"
)

type LegacyIndex struct {
	cell     float64
	minX     float64
	minY     float64
	nx, ny   int
	cellPts  [][]int32 // point indices per cell, row-major
	pts      []geom.Point
	boundBox geom.BBox
}

// NewLegacy builds an index over pts with the given cell size (in the same units
// as the coordinates). A non-positive cellSize picks a size that yields
// roughly one point per cell on average.
func NewLegacy(pts []geom.Point, cellSize float64) *LegacyIndex {
	idx := &LegacyIndex{pts: pts, boundBox: geom.PointsBBox(pts)}
	if len(pts) == 0 {
		idx.cell = 1
		idx.nx, idx.ny = 1, 1
		idx.cellPts = make([][]int32, 1)
		return idx
	}
	b := idx.boundBox
	if cellSize <= 0 {
		area := math.Max(b.Area(), 1e-12)
		cellSize = math.Sqrt(area / float64(len(pts)))
		if cellSize <= 0 {
			cellSize = 1
		}
	}
	idx.cell = cellSize
	idx.minX = b.MinX
	idx.minY = b.MinY
	idx.nx = int(math.Floor(b.Width()/cellSize)) + 1
	idx.ny = int(math.Floor(b.Height()/cellSize)) + 1
	// Clamp pathological grids: degenerate extents, or sparse point sets
	// spread over a huge domain with a small requested cell, must not
	// allocate extent²/cell² buckets. Bounding the cell count by the
	// point count (~64 buckets per point, floor 1024) keeps the memory
	// footprint proportional to the data while leaving dense realistic
	// layouts untouched; the requested cellSize is a hint, not a contract
	// (see CellSize for the effective value).
	maxCells := 64 * len(pts)
	if maxCells < 1024 {
		maxCells = 1024
	}
	if maxCells > 1<<26 {
		maxCells = 1 << 26
	}
	for idx.nx*idx.ny > maxCells {
		idx.cell *= 2
		idx.nx = int(math.Floor(b.Width()/idx.cell)) + 1
		idx.ny = int(math.Floor(b.Height()/idx.cell)) + 1
	}

	counts := make([]int32, idx.nx*idx.ny)
	cellOf := make([]int32, len(pts))
	for i, p := range pts {
		c := idx.cellIndex(p)
		cellOf[i] = int32(c)
		counts[c]++
	}
	idx.cellPts = make([][]int32, idx.nx*idx.ny)
	// Single backing array sliced per cell.
	backing := make([]int32, len(pts))
	offsets := make([]int32, len(counts))
	var off int32
	for c, n := range counts {
		offsets[c] = off
		idx.cellPts[c] = backing[off : off : off+n]
		off += n
	}
	for i := range pts {
		c := cellOf[i]
		idx.cellPts[c] = append(idx.cellPts[c], int32(i))
	}
	return idx
}

func (idx *LegacyIndex) cellIndex(p geom.Point) int {
	cx := int((p.X - idx.minX) / idx.cell)
	cy := int((p.Y - idx.minY) / idx.cell)
	if cx < 0 {
		cx = 0
	} else if cx >= idx.nx {
		cx = idx.nx - 1
	}
	if cy < 0 {
		cy = 0
	} else if cy >= idx.ny {
		cy = idx.ny - 1
	}
	return cy*idx.nx + cx
}

// Query appends to dst the indices of all points inside box (inclusive
// boundaries) and returns the extended slice.
func (idx *LegacyIndex) Query(box geom.BBox, dst []int) []int {
	if len(idx.pts) == 0 || box.IsEmpty() || !box.Intersects(idx.boundBox) {
		return dst
	}
	cx0, cy0 := idx.clampCell(box.MinX, box.MinY)
	cx1, cy1 := idx.clampCell(box.MaxX, box.MaxY)
	for cy := cy0; cy <= cy1; cy++ {
		base := cy * idx.nx
		for cx := cx0; cx <= cx1; cx++ {
			for _, pi := range idx.cellPts[base+cx] {
				if box.ContainsPoint(idx.pts[pi]) {
					dst = append(dst, int(pi))
				}
			}
		}
	}
	return dst
}

// Visit calls fn with the index of every point inside box; returning false
// stops iteration.
func (idx *LegacyIndex) Visit(box geom.BBox, fn func(i int) bool) {
	if len(idx.pts) == 0 || box.IsEmpty() || !box.Intersects(idx.boundBox) {
		return
	}
	cx0, cy0 := idx.clampCell(box.MinX, box.MinY)
	cx1, cy1 := idx.clampCell(box.MaxX, box.MaxY)
	for cy := cy0; cy <= cy1; cy++ {
		base := cy * idx.nx
		for cx := cx0; cx <= cx1; cx++ {
			for _, pi := range idx.cellPts[base+cx] {
				if box.ContainsPoint(idx.pts[pi]) && !fn(int(pi)) {
					return
				}
			}
		}
	}
}

// QueryRadius appends the indices of all points within planar distance r of
// center and returns the extended slice.
func (idx *LegacyIndex) QueryRadius(center geom.Point, r float64, dst []int) []int {
	if r < 0 {
		return dst
	}
	box := geom.BBox{MinX: center.X - r, MinY: center.Y - r, MaxX: center.X + r, MaxY: center.Y + r}
	r2 := r * r
	idx.Visit(box, func(i int) bool {
		d := idx.pts[i].Sub(center)
		if d.Dot(d) <= r2 {
			dst = append(dst, i)
		}
		return true
	})
	return dst
}

// CellSize returns the edge length of the index's cells.
func (idx *LegacyIndex) CellSize() float64 { return idx.cell }

func (idx *LegacyIndex) clampCell(x, y float64) (int, int) {
	cx := int((x - idx.minX) / idx.cell)
	cy := int((y - idx.minY) / idx.cell)
	if cx < 0 {
		cx = 0
	} else if cx >= idx.nx {
		cx = idx.nx - 1
	}
	if cy < 0 {
		cy = 0
	} else if cy >= idx.ny {
		cy = idx.ny - 1
	}
	return cx, cy
}

// Package grid provides a uniform-grid spatial index for large point sets.
// The transceiver database (hundreds of thousands to millions of points) is
// queried with rectangular windows (perimeter bounding boxes, metro
// windows) and radius queries (metro clustering); bucketing points into
// fixed-size cells makes those queries proportional to the result size.
package grid

import (
	"math"

	"fivealarms/internal/geom"
)

// Index is a uniform-grid point index built once over a fixed point set.
// Safe for concurrent readers.
type Index struct {
	cell   float64
	minX   float64
	minY   float64
	nx, ny int
	// The point indices of each cell, in compressed rows: cell c (row
	// major) holds ids[start[c]:start[c+1]], ascending, so a run of
	// cells in one grid row is one contiguous slice of ids.
	start    []int32
	ids      []int32
	pts      []geom.Point
	boundBox geom.BBox
}

// New builds an index over pts with the given cell size (in the same units
// as the coordinates). A non-positive cellSize picks a size that yields
// roughly one point per cell on average.
func New(pts []geom.Point, cellSize float64) *Index {
	idx := &Index{pts: pts, boundBox: geom.PointsBBox(pts)}
	if len(pts) == 0 {
		idx.cell = 1
		idx.nx, idx.ny = 1, 1
		idx.start = make([]int32, 2)
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

	// Count each cell's points and sum the counts, so start[c] is where
	// cell c ends; then place the points from the last down, each one
	// before the points already placed in its cell, which leaves
	// start[c] where cell c begins and every cell ascending.
	nc := idx.nx * idx.ny
	idx.start = make([]int32, nc+1)
	for _, p := range pts {
		idx.start[idx.cellIndex(p)]++
	}
	for c := 1; c < nc; c++ {
		idx.start[c] += idx.start[c-1]
	}
	idx.ids = make([]int32, len(pts))
	for i := len(pts) - 1; i >= 0; i-- {
		c := idx.cellIndex(pts[i])
		idx.start[c]--
		idx.ids[idx.start[c]] = int32(i)
	}
	idx.start[nc] = int32(len(pts))
	return idx
}

func (idx *Index) cellIndex(p geom.Point) int {
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

// Len returns the number of indexed points.
func (idx *Index) Len() int { return len(idx.pts) }

// Bounds returns the bounding box of the indexed points.
func (idx *Index) Bounds() geom.BBox { return idx.boundBox }

// Query appends to dst the indices of all points inside box (inclusive
// boundaries) and returns the extended slice.
func (idx *Index) Query(box geom.BBox, dst []int) []int {
	if len(idx.pts) == 0 || box.IsEmpty() || !box.Intersects(idx.boundBox) {
		return dst
	}
	cx0, cy0 := idx.clampCell(box.MinX, box.MinY)
	cx1, cy1 := idx.clampCell(box.MaxX, box.MaxY)
	for cy := cy0; cy <= cy1; cy++ {
		for _, pi := range idx.rowRun(cy, cx0, cx1) {
			if box.ContainsPoint(idx.pts[pi]) {
				dst = append(dst, int(pi))
			}
		}
	}
	return dst
}

// Visit calls fn with the index of every point inside box; returning false
// stops iteration.
func (idx *Index) Visit(box geom.BBox, fn func(i int) bool) {
	if len(idx.pts) == 0 || box.IsEmpty() || !box.Intersects(idx.boundBox) {
		return
	}
	cx0, cy0 := idx.clampCell(box.MinX, box.MinY)
	cx1, cy1 := idx.clampCell(box.MaxX, box.MaxY)
	for cy := cy0; cy <= cy1; cy++ {
		for _, pi := range idx.rowRun(cy, cx0, cx1) {
			if box.ContainsPoint(idx.pts[pi]) && !fn(int(pi)) {
				return
			}
		}
	}
}

// rowRun returns the point indices of cells cx0..cx1 of row cy, cell by
// cell: one slice, since those cells are adjacent in the compressed
// rows.
func (idx *Index) rowRun(cy, cx0, cx1 int) []int32 {
	base := cy * idx.nx
	return idx.ids[idx.start[base+cx0]:idx.start[base+cx1+1]]
}

// QueryRadius appends the indices of all points within planar distance r of
// center and returns the extended slice.
func (idx *Index) QueryRadius(center geom.Point, r float64, dst []int) []int {
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

// CountRadius returns the number of points within planar distance r of
// center without materializing the index list.
func (idx *Index) CountRadius(center geom.Point, r float64) int {
	if r < 0 {
		return 0
	}
	box := geom.BBox{MinX: center.X - r, MinY: center.Y - r, MaxX: center.X + r, MaxY: center.Y + r}
	r2 := r * r
	n := 0
	idx.Visit(box, func(i int) bool {
		d := idx.pts[i].Sub(center)
		if d.Dot(d) <= r2 {
			n++
		}
		return true
	})
	return n
}

// CellSize returns the edge length of the index's cells.
func (idx *Index) CellSize() float64 { return idx.cell }

func (idx *Index) clampCell(x, y float64) (int, int) {
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

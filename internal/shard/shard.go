// Package shard partitions the CONUS grid into contiguous row bands —
// the tile scheme of the full-paper-scale sharded study build. A Plan
// divides the world raster's NY rows into N bands whose union tiles the
// grid exactly (no gap, no overlap); transceivers are assigned to the
// band holding their cell row, with off-grid positions clamped to the
// nearest band. The partition is a pure function of (NY, N), so every
// schedule — serial, parallel, resumed — shards identically, and the
// merge order of per-shard products is simply band order.
//
// Correctness of the sharded study only requires the assignment to be
// disjoint and exhaustive (every row index lands in exactly one shard);
// the spatial coherence of row bands is a locality optimization — a
// band's joins touch one horizontal slab of the country (YRange), so a
// fire outside the slab costs the band nothing.
package shard

import (
	"fmt"
	"math"

	"fivealarms/internal/raster"
)

// Plan is a row-band partition of a grid with ny rows into n shards.
// The zero value is unusable; build one with MakePlan.
type Plan struct {
	ny, n int
}

// MakePlan partitions ny grid rows into n bands. n is clamped to at
// least 1; ny must be >= 0. Bands may be empty when n exceeds ny —
// an empty band is a valid shard that owns no rows and no work.
func MakePlan(ny, n int) Plan {
	if n < 1 {
		n = 1
	}
	if ny < 0 {
		ny = 0
	}
	return Plan{ny: ny, n: n}
}

// Shards returns the number of bands.
func (p Plan) Shards() int { return p.n }

// Rows returns the partitioned grid's row count.
func (p Plan) Rows() int { return p.ny }

// Band returns shard i's half-open row window [y0, y1). Bands are
// contiguous and ordered: Band(0) starts at row 0, Band(n-1) ends at
// row ny, and Band(i+1) starts where Band(i) ends. i must be in
// [0, Shards()); slice-style bounds math reports violations by
// returning an empty window.
func (p Plan) Band(i int) (y0, y1 int) {
	if i < 0 || i >= p.n {
		return 0, 0
	}
	return i * p.ny / p.n, (i + 1) * p.ny / p.n
}

// ShardOfRow returns the index of the band owning grid row cy. Rows
// outside [0, Rows()) clamp to the first or last band, so every input
// maps to exactly one shard.
func (p Plan) ShardOfRow(cy int) int {
	if p.ny == 0 {
		return 0
	}
	if cy < 0 {
		cy = 0
	}
	if cy >= p.ny {
		cy = p.ny - 1
	}
	// Integer-division bands are within one of the proportional guess;
	// walk to the exact owner (loops run at most once for any n <= ny,
	// and stay bounded by n otherwise).
	s := cy * p.n / p.ny
	if s > p.n-1 {
		s = p.n - 1
	}
	for s+1 < p.n {
		if lo, _ := p.Band(s + 1); lo <= cy {
			s++
			continue
		}
		break
	}
	for s > 0 {
		if lo, _ := p.Band(s); lo > cy {
			s--
			continue
		}
		break
	}
	return s
}

// RowOf maps a projected y coordinate to its grid row, clamped into
// [0, NY-1] so off-grid positions still resolve to a row (and hence to
// exactly one shard). Mirrors Geometry.CellOf's row arithmetic.
func RowOf(g raster.Geometry, y float64) int {
	if g.NY <= 0 {
		return 0
	}
	cy := int((y - g.MinY) / g.CellSize)
	if cy < 0 {
		cy = 0
	}
	if cy >= g.NY {
		cy = g.NY - 1
	}
	return cy
}

// YRange returns the projected y range [minY, maxY] holding every
// position that RowOf places in band i: the band's rows plus one row
// either side, so no rounding of RowOf's division can put a position
// outside. The band holding row 0 is unbounded below and the band
// holding the last row unbounded above, since RowOf clamps off-grid
// positions into them. g must describe the grid the plan was made for.
func (p Plan) YRange(g raster.Geometry, i int) (minY, maxY float64) {
	y0, y1 := p.Band(i)
	minY, maxY = math.Inf(-1), math.Inf(1)
	if y0 > 0 {
		minY = g.MinY + float64(y0-1)*g.CellSize
	}
	if y1 < p.ny {
		maxY = g.MinY + float64(y1+1)*g.CellSize
	}
	return minY, maxY
}

// maxBands is the most bands Partition can assign: a band index is a
// uint16.
const maxBands = 1 << 16

// Partition assigns each of n items to the band holding its row, where
// y(i) is item i's projected y: of[i] is item i's band and counts[b]
// the number of items in band b, so every item lands in exactly one
// band. g must describe the grid the plan was made for, and the plan may
// have at most 65,536 bands; either mismatch is a programming error
// reported as an error (never a torn partition).
func Partition(p Plan, g raster.Geometry, n int, y func(i int) float64) (of []uint16, counts []int, err error) {
	if g.NY != p.ny {
		return nil, nil, fmt.Errorf("shard: plan over %d rows cannot partition a %d-row grid", p.ny, g.NY)
	}
	if p.n > maxBands {
		return nil, nil, fmt.Errorf("shard: %d bands exceed the %d a partition can assign", p.n, maxBands)
	}
	of = make([]uint16, n)
	counts = make([]int, p.n)
	for i := range of {
		b := p.ShardOfRow(RowOf(g, y(i)))
		of[i] = uint16(b)
		counts[b]++
	}
	return of, counts, nil
}

package shard

import (
	"testing"

	"fivealarms/internal/geom"
	"fivealarms/internal/raster"
	"fivealarms/internal/rng"
)

// TestBandsTileRowsExactly: the bands of any plan are contiguous,
// ordered, and cover [0, ny) with no gap or overlap — including
// degenerate plans (more shards than rows, one row, zero rows).
func TestBandsTileRowsExactly(t *testing.T) {
	for _, ny := range []int{0, 1, 2, 3, 7, 64, 1074, 2901} {
		for _, n := range []int{1, 2, 3, 4, 5, 7, 16, 63, 100} {
			p := MakePlan(ny, n)
			if p.Shards() != n || p.Rows() != ny {
				t.Fatalf("MakePlan(%d, %d) = %d shards over %d rows", ny, n, p.Shards(), p.Rows())
			}
			prev := 0
			for i := 0; i < n; i++ {
				y0, y1 := p.Band(i)
				if y0 != prev {
					t.Fatalf("ny=%d n=%d: band %d starts at %d, want %d (gap or overlap)", ny, n, i, y0, prev)
				}
				if y1 < y0 {
					t.Fatalf("ny=%d n=%d: band %d inverted [%d, %d)", ny, n, i, y0, y1)
				}
				prev = y1
			}
			if prev != ny {
				t.Fatalf("ny=%d n=%d: bands end at %d, want %d", ny, n, prev, ny)
			}
		}
	}
}

// TestShardOfRowInvertsBand: every row belongs to exactly the band
// whose window contains it, and out-of-range rows clamp to the edge
// bands.
func TestShardOfRowInvertsBand(t *testing.T) {
	for _, ny := range []int{1, 2, 5, 17, 256, 1074} {
		for _, n := range []int{1, 2, 3, 4, 7, 19, 300} {
			p := MakePlan(ny, n)
			for cy := 0; cy < ny; cy++ {
				s := p.ShardOfRow(cy)
				y0, y1 := p.Band(s)
				if cy < y0 || cy >= y1 {
					t.Fatalf("ny=%d n=%d: row %d mapped to band %d [%d, %d)", ny, n, cy, s, y0, y1)
				}
			}
			if got := p.ShardOfRow(-5); got != p.ShardOfRow(0) {
				t.Fatalf("ny=%d n=%d: negative row clamps to %d, want %d", ny, n, got, p.ShardOfRow(0))
			}
			if got := p.ShardOfRow(ny + 9); got != p.ShardOfRow(ny-1) {
				t.Fatalf("ny=%d n=%d: overflow row clamps to %d, want %d", ny, n, got, p.ShardOfRow(ny-1))
			}
		}
	}
}

// TestMakePlanClamps: invalid shapes are clamped, not propagated.
func TestMakePlanClamps(t *testing.T) {
	p := MakePlan(-3, 0)
	if p.Shards() != 1 || p.Rows() != 0 {
		t.Fatalf("MakePlan(-3, 0) = %d shards over %d rows, want 1 over 0", p.Shards(), p.Rows())
	}
	if s := p.ShardOfRow(4); s != 0 {
		t.Fatalf("empty plan ShardOfRow = %d, want 0", s)
	}
	y0, y1 := p.Band(-1)
	if y0 != 0 || y1 != 0 {
		t.Fatalf("out-of-range Band = [%d, %d), want empty", y0, y1)
	}
}

func testGeometry(cell float64, nx, ny int) raster.Geometry {
	box := geom.NewBBox(geom.Pt(0, 0), geom.Pt(cell*float64(nx), cell*float64(ny)))
	return raster.NewGeometry(box, cell)
}

// TestPartitionExactlyOnce: every input index appears in exactly one
// shard, in input order, including coordinates far outside the grid.
func TestPartitionExactlyOnce(t *testing.T) {
	g := testGeometry(100, 40, 57)
	r := rng.NewStream(3, 0xA11)
	for _, n := range []int{1, 2, 4, 7, 60} {
		p := MakePlan(g.NY, n)
		ys := make([]float64, 5000)
		for i := range ys {
			// Mostly in-grid, with a tail of off-grid strays.
			ys[i] = r.Float64()*8000 - 1000
		}
		parts, err := Partition(p, g, ys)
		if err != nil {
			t.Fatalf("Partition: %v", err)
		}
		if len(parts) != n {
			t.Fatalf("n=%d: %d parts", n, len(parts))
		}
		seen := make([]int, len(ys))
		for s, part := range parts {
			prev := -1
			for _, i := range part {
				if i <= prev {
					t.Fatalf("n=%d shard %d: indices out of input order", n, s)
				}
				prev = i
				seen[i]++
				// Spatial coherence: in-grid points live in their band.
				cy := RowOf(g, ys[i])
				if y0, y1 := p.Band(s); cy < y0 || cy >= y1 {
					t.Fatalf("n=%d: index %d (row %d) landed in band %d [%d, %d)", n, i, cy, s, y0, y1)
				}
			}
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: index %d assigned %d times", n, i, c)
			}
		}
	}
}

// TestPartitionRejectsMismatchedGrid: a plan built for another grid
// must refuse to partition rather than tear the assignment.
func TestPartitionRejectsMismatchedGrid(t *testing.T) {
	g := testGeometry(100, 10, 20)
	p := MakePlan(g.NY+1, 4)
	if _, err := Partition(p, g, []float64{1, 2, 3}); err == nil {
		t.Fatalf("mismatched partition succeeded")
	}
}

package shard

import (
	"math"
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

// TestPartitionExactlyOnce: every input index is assigned exactly one
// band, the band holding its row, and each band's count is the number
// of indices assigned to it, including coordinates far outside the
// grid; every assigned position lies in its band's YRange.
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
		// Row boundaries exactly, and one ulp to either side.
		for cy := 0; cy <= g.NY; cy++ {
			edge := g.MinY + float64(cy)*g.CellSize
			ys = append(ys, edge, math.Nextafter(edge, math.Inf(-1)), math.Nextafter(edge, math.Inf(1)))
		}
		of, counts, err := Partition(p, g, len(ys), func(i int) float64 { return ys[i] })
		if err != nil {
			t.Fatalf("Partition: %v", err)
		}
		if len(of) != len(ys) || len(counts) != n {
			t.Fatalf("n=%d: %d assignments, %d counts", n, len(of), len(counts))
		}
		seen := make([]int, n)
		for i, b := range of {
			if int(b) >= n {
				t.Fatalf("n=%d: index %d assigned band %d", n, i, b)
			}
			seen[b]++
			// Spatial coherence: every point lives in its band.
			cy := RowOf(g, ys[i])
			if y0, y1 := p.Band(int(b)); cy < y0 || cy >= y1 {
				t.Fatalf("n=%d: index %d (row %d) landed in band %d [%d, %d)", n, i, cy, b, y0, y1)
			}
			if lo, hi := p.YRange(g, int(b)); ys[i] < lo || ys[i] > hi {
				t.Fatalf("n=%d: index %d (y %v) outside band %d's range [%v, %v]", n, i, ys[i], b, lo, hi)
			}
		}
		total := 0
		for b, c := range counts {
			if c != seen[b] {
				t.Fatalf("n=%d: band %d counts %d, holds %d", n, b, c, seen[b])
			}
			total += c
		}
		if total != len(ys) {
			t.Fatalf("n=%d: counts sum to %d for %d indices", n, total, len(ys))
		}
	}
}

// TestYRangeBounds: inner bands are bounded one row beyond their rows;
// the bands holding the first and last rows, and one band alone, are
// unbounded on their outer sides.
func TestYRangeBounds(t *testing.T) {
	g := testGeometry(100, 10, 20)
	p := MakePlan(g.NY, 4) // rows [0,5) [5,10) [10,15) [15,20)
	for i, want := range [][2]float64{
		{math.Inf(-1), 600}, {400, 1100}, {900, 1600}, {1400, math.Inf(1)},
	} {
		if lo, hi := p.YRange(g, i); lo != want[0] || hi != want[1] {
			t.Errorf("band %d: YRange = [%v, %v], want %v", i, lo, hi, want)
		}
	}
	if lo, hi := MakePlan(g.NY, 1).YRange(g, 0); !math.IsInf(lo, -1) || !math.IsInf(hi, 1) {
		t.Errorf("one band: YRange = [%v, %v], want unbounded", lo, hi)
	}
}

// TestPartitionRejectsMismatchedGrid: a plan built for another grid, or
// with more bands than a band index holds, must refuse to partition
// rather than tear the assignment.
func TestPartitionRejectsMismatchedGrid(t *testing.T) {
	g := testGeometry(100, 10, 20)
	y := func(i int) float64 { return float64(i) }
	if _, _, err := Partition(MakePlan(g.NY+1, 4), g, 3, y); err == nil {
		t.Fatalf("mismatched partition succeeded")
	}
	if _, _, err := Partition(MakePlan(g.NY, maxBands+1), g, 3, y); err == nil {
		t.Fatalf("partition into %d bands succeeded", maxBands+1)
	}
}

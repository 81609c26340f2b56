package grid

import (
	"sort"
	"testing"
	"testing/quick"

	"fivealarms/internal/geom"
	"fivealarms/internal/rng"
)

func randomPoints(seed uint64, n int) []geom.Point {
	s := rng.New(seed)
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(s.Range(0, 500), s.Range(0, 300))
	}
	return pts
}

func bruteQuery(pts []geom.Point, box geom.BBox) []int {
	var out []int
	for i, p := range pts {
		if box.ContainsPoint(p) {
			out = append(out, i)
		}
	}
	return out
}

func sortedEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	sort.Ints(a)
	sort.Ints(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestEmptyIndex(t *testing.T) {
	idx := New(nil, 0)
	if idx.Len() != 0 {
		t.Error("Len")
	}
	if got := idx.Query(geom.NewBBox(geom.Pt(0, 0), geom.Pt(10, 10)), nil); len(got) != 0 {
		t.Error("Query on empty index")
	}
	if got := idx.QueryRadius(geom.Pt(0, 0), 10, nil); len(got) != 0 {
		t.Error("QueryRadius on empty index")
	}
}

func TestQueryMatchesBruteForce(t *testing.T) {
	pts := randomPoints(1, 5000)
	for _, cellSize := range []float64{0, 1, 10, 100, 1000} {
		idx := New(pts, cellSize)
		s := rng.New(2)
		for q := 0; q < 100; q++ {
			x, y := s.Range(-50, 500), s.Range(-50, 300)
			w, h := s.Range(0, 150), s.Range(0, 150)
			box := geom.NewBBox(geom.Pt(x, y), geom.Pt(x+w, y+h))
			got := idx.Query(box, nil)
			want := bruteQuery(pts, box)
			if !sortedEqual(got, want) {
				t.Fatalf("cell %v query %v: got %d, want %d", cellSize, box, len(got), len(want))
			}
		}
	}
}

func TestQueryRadiusMatchesBruteForce(t *testing.T) {
	pts := randomPoints(3, 3000)
	idx := New(pts, 0)
	s := rng.New(4)
	for q := 0; q < 100; q++ {
		c := geom.Pt(s.Range(0, 500), s.Range(0, 300))
		r := s.Range(0, 80)
		got := idx.QueryRadius(c, r, nil)
		var want []int
		for i, p := range pts {
			if p.DistanceTo(c) <= r {
				want = append(want, i)
			}
		}
		if !sortedEqual(got, want) {
			t.Fatalf("radius query c=%v r=%v: got %d, want %d", c, r, len(got), len(want))
		}
		if n := idx.CountRadius(c, r); n != len(want) {
			t.Fatalf("CountRadius = %d, want %d", n, len(want))
		}
	}
}

func TestQueryRadiusNegative(t *testing.T) {
	idx := New(randomPoints(5, 100), 0)
	if got := idx.QueryRadius(geom.Pt(250, 150), -1, nil); len(got) != 0 {
		t.Error("negative radius should return nothing")
	}
	if idx.CountRadius(geom.Pt(250, 150), -1) != 0 {
		t.Error("negative radius count should be 0")
	}
}

func TestVisitEarlyStop(t *testing.T) {
	pts := randomPoints(6, 1000)
	idx := New(pts, 0)
	count := 0
	idx.Visit(idx.Bounds(), func(int) bool {
		count++
		return count < 7
	})
	if count != 7 {
		t.Errorf("Visit count = %d, want 7", count)
	}
}

func TestPointAccessors(t *testing.T) {
	pts := []geom.Point{{X: 1, Y: 2}, {X: 3, Y: 4}}
	idx := New(pts, 0)
	if idx.Bounds() != geom.PointsBBox(pts) {
		t.Error("Bounds")
	}
	if idx.CellSize() <= 0 {
		t.Error("CellSize must be positive")
	}
}

func TestIdenticalPoints(t *testing.T) {
	// Degenerate extent: all points identical must not blow up.
	pts := make([]geom.Point, 100)
	for i := range pts {
		pts[i] = geom.Pt(7, 7)
	}
	idx := New(pts, 0)
	got := idx.Query(geom.NewBBox(geom.Pt(6, 6), geom.Pt(8, 8)), nil)
	if len(got) != 100 {
		t.Errorf("got %d points, want 100", len(got))
	}
}

func TestQueryProperty(t *testing.T) {
	pts := randomPoints(7, 800)
	idx := New(pts, 25)
	f := func(x, y, w, h uint16) bool {
		box := geom.NewBBox(
			geom.Pt(float64(x%600)-50, float64(y%400)-50),
			geom.Pt(float64(x%600)-50+float64(w%200), float64(y%400)-50+float64(h%200)),
		)
		return sortedEqual(idx.Query(box, nil), bruteQuery(pts, box))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkQuery100k(b *testing.B) {
	pts := randomPoints(8, 100000)
	idx := New(pts, 0)
	box := geom.NewBBox(geom.Pt(200, 100), geom.Pt(260, 160))
	buf := make([]int, 0, 8192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = idx.Query(box, buf[:0])
	}
}

func BenchmarkQueryRadius100k(b *testing.B) {
	pts := randomPoints(9, 100000)
	idx := New(pts, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = idx.CountRadius(geom.Pt(250, 150), 40)
	}
}

// BenchmarkNew500k builds the index over 500k points, the fleet of the
// perfbench fleet workload, at the fitted cell size (about one point
// per cell); -benchmem shows the index's bytes per build.
func BenchmarkNew500k(b *testing.B) {
	pts := randomPoints(10, 500_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if New(pts, 0).Len() != len(pts) {
			b.Fatal("index lost points")
		}
	}
}

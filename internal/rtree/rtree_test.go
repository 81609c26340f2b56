package rtree

import (
	"sort"
	"testing"
	"testing/quick"

	"fivealarms/internal/geom"
	"fivealarms/internal/rng"
)

func randomItems(seed uint64, n int) []Item {
	s := rng.New(seed)
	items := make([]Item, n)
	for i := range items {
		x := s.Range(0, 1000)
		y := s.Range(0, 1000)
		w := s.Range(0.1, 20)
		h := s.Range(0.1, 20)
		items[i] = Item{Box: geom.NewBBox(geom.Pt(x, y), geom.Pt(x+w, y+h)), ID: i}
	}
	return items
}

// bruteSearch is the oracle for Search.
func bruteSearch(items []Item, q geom.BBox) []int {
	var out []int
	for _, it := range items {
		if it.Box.Intersects(q) {
			out = append(out, it.ID)
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

func TestEmptyTree(t *testing.T) {
	tr := New(nil)
	if tr.Len() != 0 {
		t.Error("Len should be 0")
	}
	if !tr.Bounds().IsEmpty() {
		t.Error("Bounds should be empty")
	}
	if got := tr.Search(geom.NewBBox(geom.Pt(0, 0), geom.Pt(1, 1)), nil); len(got) != 0 {
		t.Error("Search on empty tree should return nothing")
	}
	if id, _ := tr.Nearest(geom.Pt(0, 0)); id != -1 {
		t.Error("Nearest on empty tree should return -1")
	}
}

func TestSingleItem(t *testing.T) {
	items := []Item{{Box: geom.NewBBox(geom.Pt(5, 5), geom.Pt(10, 10)), ID: 42}}
	tr := New(items)
	if got := tr.Search(geom.NewBBox(geom.Pt(0, 0), geom.Pt(6, 6)), nil); len(got) != 1 || got[0] != 42 {
		t.Errorf("Search = %v", got)
	}
	if got := tr.Search(geom.NewBBox(geom.Pt(20, 20), geom.Pt(30, 30)), nil); len(got) != 0 {
		t.Errorf("miss Search = %v", got)
	}
	id, d := tr.Nearest(geom.Pt(7, 7))
	if id != 42 || d != 0 {
		t.Errorf("Nearest inside box = (%d, %v)", id, d)
	}
	id, d = tr.Nearest(geom.Pt(13, 10))
	if id != 42 || d != 3 {
		t.Errorf("Nearest outside = (%d, %v), want (42, 3)", id, d)
	}
}

func TestSearchMatchesBruteForce(t *testing.T) {
	items := randomItems(1, 2000)
	tr := New(items)
	s := rng.New(2)
	for q := 0; q < 200; q++ {
		x := s.Range(0, 1000)
		y := s.Range(0, 1000)
		w := s.Range(1, 120)
		query := geom.NewBBox(geom.Pt(x, y), geom.Pt(x+w, y+w))
		got := tr.Search(query, nil)
		want := bruteSearch(items, query)
		if !sortedEqual(got, want) {
			t.Fatalf("query %v: got %d results, want %d", query, len(got), len(want))
		}
	}
}

func TestSearchPoint(t *testing.T) {
	items := randomItems(3, 500)
	tr := New(items)
	s := rng.New(4)
	for q := 0; q < 200; q++ {
		p := geom.Pt(s.Range(0, 1000), s.Range(0, 1000))
		got := tr.SearchPoint(p, nil)
		var want []int
		for _, it := range items {
			if it.Box.ContainsPoint(p) {
				want = append(want, it.ID)
			}
		}
		if !sortedEqual(got, want) {
			t.Fatalf("point %v: got %v want %v", p, got, want)
		}
	}
}

func TestNearestMatchesBruteForce(t *testing.T) {
	items := randomItems(5, 1000)
	tr := New(items)
	s := rng.New(6)
	for q := 0; q < 300; q++ {
		p := geom.Pt(s.Range(-100, 1100), s.Range(-100, 1100))
		_, gotD := tr.Nearest(p)
		bestD := 1e300
		for _, it := range items {
			if d := it.Box.DistanceTo(p); d < bestD {
				bestD = d
			}
		}
		if gotD != bestD {
			t.Fatalf("point %v: nearest dist %v, want %v", p, gotD, bestD)
		}
	}
}

func TestVisitEarlyStop(t *testing.T) {
	items := randomItems(7, 500)
	tr := New(items)
	count := 0
	tr.Visit(tr.Bounds(), func(Item) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Errorf("Visit visited %d, want early stop at 10", count)
	}
}

func TestVisitAll(t *testing.T) {
	items := randomItems(8, 300)
	tr := New(items)
	seen := map[int]bool{}
	tr.Visit(tr.Bounds(), func(it Item) bool {
		seen[it.ID] = true
		return true
	})
	if len(seen) != 300 {
		t.Errorf("Visit over bounds saw %d items, want 300", len(seen))
	}
}

func TestBounds(t *testing.T) {
	items := []Item{
		{Box: geom.NewBBox(geom.Pt(0, 0), geom.Pt(1, 1)), ID: 0},
		{Box: geom.NewBBox(geom.Pt(50, -10), geom.Pt(60, 5)), ID: 1},
	}
	b := New(items).Bounds()
	if b.MinX != 0 || b.MinY != -10 || b.MaxX != 60 || b.MaxY != 5 {
		t.Errorf("Bounds = %v", b)
	}
}

func TestFanoutVariants(t *testing.T) {
	items := randomItems(9, 777)
	query := geom.NewBBox(geom.Pt(100, 100), geom.Pt(400, 400))
	want := bruteSearch(items, query)
	for _, fanout := range []int{1, 2, 3, 8, 64, 1000} {
		tr := NewWithFanout(items, fanout)
		got := tr.Search(query, nil)
		if !sortedEqual(got, append([]int(nil), want...)) {
			t.Errorf("fanout %d: got %d results, want %d", fanout, len(got), len(want))
		}
		if tr.Len() != 777 {
			t.Errorf("fanout %d: Len = %d", fanout, tr.Len())
		}
	}
}

func TestSearchProperty(t *testing.T) {
	items := randomItems(10, 400)
	tr := New(items)
	f := func(x, y, w, h uint16) bool {
		fx, fy := float64(x%1000), float64(y%1000)
		q := geom.NewBBox(
			geom.Pt(fx, fy),
			geom.Pt(fx+float64(w%200), fy+float64(h%200)),
		)
		return sortedEqual(tr.Search(q, nil), bruteSearch(items, q))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDstReuse(t *testing.T) {
	items := randomItems(11, 100)
	tr := New(items)
	buf := make([]int, 0, 128)
	a := tr.Search(tr.Bounds(), buf)
	if len(a) != 100 {
		t.Errorf("full search = %d items", len(a))
	}
}

func BenchmarkBuild10k(b *testing.B) {
	items := randomItems(12, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = New(items)
	}
}

func BenchmarkSearch10k(b *testing.B) {
	items := randomItems(13, 10000)
	tr := New(items)
	q := geom.NewBBox(geom.Pt(400, 400), geom.Pt(450, 450))
	buf := make([]int, 0, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = tr.Search(q, buf[:0])
	}
}

func BenchmarkBruteForce10k(b *testing.B) {
	items := randomItems(13, 10000)
	q := geom.NewBBox(geom.Pt(400, 400), geom.Pt(450, 450))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cnt := 0
		for _, it := range items {
			if it.Box.Intersects(q) {
				cnt++
			}
		}
		_ = cnt
	}
}

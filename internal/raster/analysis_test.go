package raster

import (
	"testing"

	"fivealarms/internal/rng"
)

func TestLabelComponentsBasic(t *testing.T) {
	g := testGeom(10, 10, 1)
	mask := NewBitGrid(g)
	// Two blobs and an isolated cell.
	for cx := 1; cx <= 3; cx++ {
		mask.Set(cx, 1, true)
		mask.Set(cx, 2, true)
	}
	mask.Set(7, 7, true)
	mask.Set(7, 8, true)
	mask.Set(5, 5, true)
	l := LabelComponents(mask)
	if l.N != 3 {
		t.Fatalf("components = %d, want 3", l.N)
	}
	id, size := l.Largest()
	if size != 6 {
		t.Errorf("largest = %d cells, want 6", size)
	}
	labelled := 0
	for _, v := range l.Data {
		if int(v) == id {
			labelled++
		}
	}
	if labelled != 6 {
		t.Errorf("component %d labels %d cells, want 6", id, labelled)
	}
	total := 0
	for i := 1; i <= l.N; i++ {
		total += l.Sizes[i]
	}
	if total != mask.Count() {
		t.Errorf("sizes sum %d != mask %d", total, mask.Count())
	}
}

func TestLabelComponentsDiagonalSeparate(t *testing.T) {
	g := testGeom(5, 5, 1)
	mask := NewBitGrid(g)
	mask.Set(1, 1, true)
	mask.Set(2, 2, true)
	if l := LabelComponents(mask); l.N != 2 {
		t.Errorf("diagonal cells = %d components, want 2 (4-connectivity)", l.N)
	}
}

func TestLabelComponentsUShape(t *testing.T) {
	// A U shape forces a union between provisional labels.
	g := testGeom(7, 7, 1)
	mask := NewBitGrid(g)
	for cy := 1; cy <= 4; cy++ {
		mask.Set(1, cy, true)
		mask.Set(5, cy, true)
	}
	for cx := 1; cx <= 5; cx++ {
		mask.Set(cx, 5, true)
	}
	if l := LabelComponents(mask); l.N != 1 {
		t.Errorf("U shape = %d components, want 1", l.N)
	}
}

func TestLabelComponentsEmpty(t *testing.T) {
	l := LabelComponents(NewBitGrid(testGeom(4, 4, 1)))
	if l.N != 0 {
		t.Errorf("empty mask = %d components", l.N)
	}
	if id, size := l.Largest(); id != 0 || size != 0 {
		t.Error("Largest of empty should be zero")
	}
}

func TestLabelComponentsRandomAgainstFloodFill(t *testing.T) {
	s := rng.New(31)
	for trial := 0; trial < 10; trial++ {
		g := testGeom(30, 30, 1)
		mask := NewBitGrid(g)
		for i := 0; i < 250; i++ {
			mask.Set(s.Intn(30), s.Intn(30), true)
		}
		got := LabelComponents(mask).N
		want := floodFillCount(mask)
		if got != want {
			t.Fatalf("trial %d: components = %d, flood fill says %d", trial, got, want)
		}
	}
}

func floodFillCount(mask *BitGrid) int {
	g := mask.Geometry
	seen := make([]bool, g.Cells())
	count := 0
	var stack [][2]int
	for cy := 0; cy < g.NY; cy++ {
		for cx := 0; cx < g.NX; cx++ {
			if !mask.Get(cx, cy) || seen[cy*g.NX+cx] {
				continue
			}
			count++
			stack = stack[:0]
			stack = append(stack, [2]int{cx, cy})
			seen[cy*g.NX+cx] = true
			for len(stack) > 0 {
				c := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, d := range [][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
					nx, ny := c[0]+d[0], c[1]+d[1]
					if nx < 0 || ny < 0 || nx >= g.NX || ny >= g.NY {
						continue
					}
					if mask.Get(nx, ny) && !seen[ny*g.NX+nx] {
						seen[ny*g.NX+nx] = true
						stack = append(stack, [2]int{nx, ny})
					}
				}
			}
		}
	}
	return count
}

func BenchmarkLabelComponents(b *testing.B) {
	s := rng.New(5)
	g := testGeom(256, 256, 1)
	mask := NewBitGrid(g)
	for i := 0; i < 20000; i++ {
		mask.Set(s.Intn(256), s.Intn(256), true)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = LabelComponents(mask)
	}
}

package geom

import (
	"math"
	"math/rand"
	"testing"
)

// randomRing builds a star-shaped simple ring of n vertices around c:
// vertices at increasing angles with random radii never self-intersect.
// quantize snaps Y coordinates to a coarse lattice, forcing horizontal
// (and coincident-vertex-adjacent) edges, the degenerate shapes the
// scanline index must handle.
func randomRing(rng *rand.Rand, c Point, n int, quantize bool) Ring {
	r := make(Ring, 0, n)
	for i := 0; i < n; i++ {
		a := 2 * math.Pi * float64(i) / float64(n)
		rad := 1 + 9*rng.Float64()
		p := Point{c.X + rad*math.Cos(a), c.Y + rad*math.Sin(a)}
		if quantize {
			p.Y = math.Round(p.Y)
		}
		r = append(r, p)
	}
	return r
}

// TestPreparedRingMatchesNaive is the property test of the PR: prepared
// containment must agree with Ring.ContainsPoint on random rings —
// smooth and quantized (horizontal-edge) alike — for points sampled
// inside, around and far outside the bbox.
func TestPreparedRingMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 3 + rng.Intn(60)
		ring := randomRing(rng, Point{rng.Float64() * 100, rng.Float64() * 100}, n, trial%2 == 0)
		prep := PrepareRing(ring)
		bb := ring.BBox().Buffer(2)
		for q := 0; q < 200; q++ {
			p := Point{
				bb.MinX + rng.Float64()*bb.Width(),
				bb.MinY + rng.Float64()*bb.Height(),
			}
			if got, want := prep.Contains(p), ring.ContainsPoint(p); got != want {
				t.Fatalf("trial %d: prepared.Contains(%v) = %v, naive = %v (ring %v)", trial, p, got, want, ring)
			}
		}
		// Far-outside points exercise the bbox reject.
		if prep.Contains(Point{bb.MaxX + 1000, bb.MaxY + 1000}) {
			t.Fatalf("trial %d: contains far-outside point", trial)
		}
	}
}

// TestPreparedRingDegenerate covers rings the naive predicate rejects.
func TestPreparedRingDegenerate(t *testing.T) {
	cases := []Ring{
		nil,
		{},
		{Pt(0, 0)},
		{Pt(0, 0), Pt(1, 1)},
		{Pt(0, 0), Pt(1, 0), Pt(2, 0)}, // flat: zero height
		{Pt(0, 0), Pt(0, 1), Pt(0, 2)}, // flat: zero width
		{Pt(1, 1), Pt(1, 1), Pt(1, 1)}, // all coincident
		{Pt(0, 0), Pt(4, 0), Pt(4, 4), Pt(0, 4)},
	}
	probes := []Point{{0.5, 0.5}, {2, 2}, {1, 0}, {0, 0}, {5, 5}, {-1, 2}}
	for i, r := range cases {
		prep := PrepareRing(r)
		for _, p := range probes {
			if got, want := prep.Contains(p), r.ContainsPoint(p); got != want {
				t.Errorf("case %d: Contains(%v) = %v, naive = %v", i, p, got, want)
			}
		}
	}
}

// TestPreparedPolygonHoles asserts hole semantics match
// Polygon.ContainsPoint, including a hole large enough to swallow the
// exterior's interior fast-accept box.
func TestPreparedPolygonHoles(t *testing.T) {
	outer := NewRing(Pt(0, 0), Pt(20, 0), Pt(20, 20), Pt(0, 20))
	hole := NewRing(Pt(6, 6), Pt(14, 6), Pt(14, 14), Pt(6, 14))
	pg := NewPolygon(outer, hole)
	prep := PreparePolygon(pg)
	for x := -1.0; x <= 21; x += 0.5 {
		for y := -1.0; y <= 21; y += 0.5 {
			p := Pt(x+0.25, y+0.25) // off-lattice: avoid boundary ambiguity
			if got, want := prep.Contains(p), pg.ContainsPoint(p); got != want {
				t.Fatalf("Contains(%v) = %v, naive = %v", p, got, want)
			}
		}
	}
}

// TestPreparedMultiPolygonMatchesNaive covers disjoint members and the
// collection-level bbox reject.
func TestPreparedMultiPolygonMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mp := MultiPolygon{
		NewPolygon(randomRing(rng, Pt(0, 0), 24, false)),
		NewPolygon(randomRing(rng, Pt(50, 10), 17, true)),
		NewPolygon(
			NewRing(Pt(100, 100), Pt(130, 100), Pt(130, 130), Pt(100, 130)),
			NewRing(Pt(110, 110), Pt(120, 110), Pt(120, 120), Pt(110, 120)),
		),
	}
	prep := PrepareMultiPolygon(mp)
	if got, want := prep.BBox(), mp.BBox(); got != want {
		t.Fatalf("BBox = %v, want %v", got, want)
	}
	bb := mp.BBox().Buffer(3)
	for q := 0; q < 3000; q++ {
		p := Point{bb.MinX + rng.Float64()*bb.Width(), bb.MinY + rng.Float64()*bb.Height()}
		if got, want := prep.Contains(p), mp.ContainsPoint(p); got != want {
			t.Fatalf("Contains(%v) = %v, naive = %v", p, got, want)
		}
	}
	if PrepareMultiPolygon(nil).Contains(Pt(0, 0)) {
		t.Error("empty multipolygon contains a point")
	}
}

// TestPreparedRectilinearExact pins the bit-identical guarantee the
// overlay engine relies on: on rectilinear (fire-tracer style) rings the
// multiply-form crossing test is exact, so prepared and naive agree even
// for points sharing coordinates with the edge lattice.
func TestPreparedRectilinearExact(t *testing.T) {
	// A staircase ring on a 0.5-lattice.
	ring := NewRing(
		Pt(0, 0), Pt(3, 0), Pt(3, 1.5), Pt(4.5, 1.5), Pt(4.5, 4),
		Pt(1.5, 4), Pt(1.5, 2.5), Pt(0, 2.5),
	)
	prep := PrepareRing(ring)
	for x := -0.5; x <= 5.0; x += 0.25 {
		for y := -0.5; y <= 4.5; y += 0.25 {
			p := Pt(x, y)
			if got, want := prep.Contains(p), ring.ContainsPoint(p); got != want {
				t.Fatalf("lattice point %v: prepared %v, naive %v", p, got, want)
			}
		}
	}
}

package geom

import (
	"math/rand"
	"testing"
)

// BenchmarkPreparedContains compares the naive ray-cast against the
// prepared (banded) point-in-polygon on a 200-vertex ring. The committed BENCH_geom.json baseline is produced by
// `make bench-geom`.
func BenchmarkPreparedContains(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	ring := randomRing(rng, Pt(0, 0), 200, false)
	prep := PrepareRing(ring)
	pts := make([]Point, 1024)
	bb := ring.BBox().Buffer(1)
	for i := range pts {
		pts[i] = Point{bb.MinX + rng.Float64()*bb.Width(), bb.MinY + rng.Float64()*bb.Height()}
	}

	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		hits := 0
		for i := 0; i < b.N; i++ {
			if ring.ContainsPoint(pts[i&1023]) {
				hits++
			}
		}
		_ = hits
	})
	b.Run("prepared", func(b *testing.B) {
		b.ReportAllocs()
		hits := 0
		for i := 0; i < b.N; i++ {
			if prep.Contains(pts[i&1023]) {
				hits++
			}
		}
		_ = hits
	})
	b.Run("prepare-cost", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = PrepareRing(ring)
		}
	})
}

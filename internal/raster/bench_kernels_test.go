package raster

import "testing"

// conusGeometry approximates the paper's full-scale national raster:
// the CONUS window (~4.6M x 2.9M meters) at 2.7 km resolution,
// ~1.83M cells.
func conusGeometry() Geometry {
	return Geometry{MinX: -2.36e6, MinY: -1.5e6, CellSize: 2700, NX: 1704, NY: 1074}
}

// BenchmarkRasterKernels measures every banded kernel at full-scale
// CONUS dimensions, plus the contour tracer and the unfused (one call
// per fire) union. Band counts follow GOMAXPROCS, so `-cpu 1,2,4,8`
// sweeps the schedules.
func BenchmarkRasterKernels(b *testing.B) {
	g := conusGeometry()
	polys := syntheticPerimeters(g, 120, 13)
	mask := NewBitGrid(g)
	FillPolygonsInto(mask, polys)

	b.Run("fill", func(b *testing.B) {
		out := NewBitGrid(g)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out.Clear()
			FillPolygonsInto(out, polys)
		}
	})
	b.Run("union", func(b *testing.B) {
		// The pre-fusion call pattern: one fill pass per fire.
		out := NewBitGrid(g)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out.Clear()
			for pi := range polys {
				FillPolygonsInto(out, polys[pi:pi+1])
			}
		}
	})
	b.Run("distance", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			DistanceTransform(mask)
		}
	})
	b.Run("dilate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			DilateByDistance(mask, 5*g.CellSize)
		}
	})
	b.Run("contour", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			TraceContours(mask)
		}
	})
}

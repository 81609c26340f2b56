package conus

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"fivealarms/internal/geom"
	"fivealarms/internal/rng"
)

// roadIndexGolden pins RoadDistAt and NearestRoadPoint on the 10 km and
// 20 km worlds.
var roadIndexGolden = map[float64]uint64{
	10000: 0xa927e33e3d031bed,
	20000: 0xe19732a596c50c29,
}

// TestRoadIndexGolden pins RoadDistAt, and NearestRoadPoint's point and
// whether it found one, at every cell centre of the 10 km and 20 km
// worlds and at four seeded points jittered within each cell.
func TestRoadIndexGolden(t *testing.T) {
	for _, cell := range []float64{10000, 20000} {
		w := Build(Config{Seed: 7, CellSizeM: cell})
		if got := roadHash(w, 11); got != roadIndexGolden[cell] {
			t.Errorf("%v m world: road hash = %#x, want %#x", cell, got, roadIndexGolden[cell])
		}
	}
}

// roadHash folds RoadDistAt and NearestRoadPoint at every cell centre
// of w and at four points per cell drawn from seed into one FNV-64a
// hash.
func roadHash(w *World, seed uint64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	f := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	probe := func(p geom.Point) {
		f(w.RoadDistAt(p))
		q, ok := w.NearestRoadPoint(p)
		f(q.X)
		f(q.Y)
		if ok {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	src := rng.New(seed)
	g := w.Grid
	for cy := 0; cy < g.NY; cy++ {
		for cx := 0; cx < g.NX; cx++ {
			c := g.Center(cx, cy)
			probe(c)
			for k := 0; k < 4; k++ {
				probe(geom.Point{
					X: c.X + src.Range(-g.CellSize/2, g.CellSize/2),
					Y: c.Y + src.Range(-g.CellSize/2, g.CellSize/2),
				})
			}
		}
	}
	return h.Sum64()
}

package whp

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"fivealarms/internal/conus"
	"fivealarms/internal/geom"
)

// whpGolden pins whp.Build's Hazard (by float bits) and Classes: the
// national raster of the 20 km and 40 km worlds at seeds 1 and 7, then
// the 1 km metro window whpmap -layer metro builds around Los Angeles
// on the 20 km seed-7 world.
var whpGolden = []uint64{
	0x8a521a81c7725707, 0x7494b44ebc2104ff, 0xae258b28f098d32c, 0x5f7ee6d598e88744,
	0x604974782987936b,
}

// TestWHPGolden pins the WHP raster, hazard and class, cell by cell.
func TestWHPGolden(t *testing.T) {
	var maps []*Map
	for _, cell := range []float64{20000, 40000} {
		for _, seed := range []uint64{1, 7} {
			w := conus.Build(conus.Config{Seed: seed, CellSizeM: cell})
			maps = append(maps, Build(w, w.Grid, Config{}))
		}
	}
	// The metro layer's window: 150 km around (-118, 34) at 1 km cells,
	// the national calibration with a 400 m road corridor.
	w := conus.Build(conus.Config{Seed: 7, CellSizeM: 20000})
	g := WindowAround(w, geom.Point{X: -118, Y: 34}, 150*1000, 1000)
	maps = append(maps, Build(w, g, FineConfig))
	if len(maps) != len(whpGolden) {
		t.Fatalf("%d maps, %d golden hashes", len(maps), len(whpGolden))
	}
	for i, m := range maps {
		if got := mapHash(m); got != whpGolden[i] {
			t.Errorf("map %d (%dx%d at %v m): hash = %#x, want %#x",
				i, m.Classes.NX, m.Classes.NY, m.Classes.CellSize, got, whpGolden[i])
		}
	}
}

// mapHash folds the geometry, every hazard value's bits and every class
// into one FNV-64a hash.
func mapHash(m *Map) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	u := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	g := m.Classes.Geometry
	u(uint64(g.NX))
	u(uint64(g.NY))
	u(math.Float64bits(g.CellSize))
	for _, v := range m.Hazard.Data {
		u(math.Float64bits(v))
	}
	h.Write(m.Classes.Data)
	return h.Sum64()
}

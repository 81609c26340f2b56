package risk

import (
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"math"
	"testing"

	"fivealarms/internal/powergrid"
	"fivealarms/internal/raster"
	"fivealarms/internal/wildfire"
)

// TestPSPSGolden pins the §3.2 case study and the §3.10 analyses built on
// it — the battery sweep, the emergency crossing, the hardening plan — and
// the coverage and WUI analyses that share their population surface, as
// FNV-64a hashes of each result's JSON on the test analyzer, plus a hash
// of every field of the California power network at two seeds.
func TestPSPSGolden(t *testing.T) {
	season := wildfire.Simulate2019(testSim, 7, 15)
	cases := []struct {
		name string
		got  func() uint64
		want uint64
	}{
		{"casestudy", func() uint64 {
			return jsonHash(t, testAnalyzer.CaseStudyFall2019(season, powergrid.NetConfig{Seed: 7}, 7))
		}, 0xa344db52a1995cb6},
		{"mitigation/7", func() uint64 {
			return jsonHash(t, testAnalyzer.MitigationSweep(season, []float64{4, 6, 8, 24, 48, 72}, 7))
		}, 0xab3ae6b53db080a7},
		{"mitigation/11", func() uint64 {
			return jsonHash(t, testAnalyzer.MitigationSweep(season, []float64{4, 72}, 11))
		}, 0x54b16c762071256e},
		{"emergency/0", func() uint64 {
			return jsonHash(t, testAnalyzer.EmergencyAnalysis(season, powergrid.NetConfig{Seed: 7}, 7, 0))
		}, 0x169ed9a25e8894f3},
		{"emergency/0.5", func() uint64 {
			return jsonHash(t, testAnalyzer.EmergencyAnalysis(season, powergrid.NetConfig{Seed: 7}, 7, 0.5))
		}, 0x7392c9b1a53626fe},
		{"harden/15", func() uint64 { return jsonHash(t, testAnalyzer.HardeningPlan(15, 0)) }, 0x48f487675fd9005},
		{"harden/5@5000", func() uint64 { return jsonHash(t, testAnalyzer.HardeningPlan(5, 5000)) }, 0x296e820080b3e73a},
		{"coverage/0", func() uint64 { return jsonHash(t, testAnalyzer.Coverage(0)) }, 0xa0874d4437efa3d1},
		{"coverage/5000", func() uint64 { return jsonHash(t, testAnalyzer.Coverage(5000)) }, 0x32cf669ed5aca21},
		{"wui", func() uint64 { return jsonHash(t, testAnalyzer.WUIAnalysis()) }, 0x124759ae4a63ad02},
		{"network/1", func() uint64 { return networkHash(caNetwork(1)) }, 0xa64ddf84760cc406},
		{"network/7", func() uint64 { return networkHash(caNetwork(7)) }, 0x4ae44c7d148018b4},
	}
	for _, c := range cases {
		if got := c.got(); got != c.want {
			t.Errorf("%s hash = %#x, want %#x", c.name, got, c.want)
		}
	}
}

// TestPSPSAnalysesShareMemos requires the PSPS analyses to leave the
// California topology in the analyzer's memo, and the coverage analyses
// the population surface, so that neither is built again.
func TestPSPSAnalysesShareMemos(t *testing.T) {
	a := New(testWorld, testWHP, testData, testCounties)
	season := wildfire.Simulate2019(testSim, 7, 15)
	a.CaseStudyFall2019(season, powergrid.NetConfig{Seed: 7}, 7)
	a.MitigationSweep(season, []float64{4, 72}, 7)
	a.EmergencyAnalysis(season, powergrid.NetConfig{Seed: 7}, 7, 0)
	a.Coverage(0)
	a.HardeningPlan(3, 0)
	a.WUIAnalysis()
	a.networks.Get(7, func() *powergrid.Network {
		t.Error("topology built again")
		return nil
	})
	a.population.Get(func() *raster.FloatGrid {
		t.Error("population surface built again")
		return nil
	})
}

// caNetwork is a fresh build of the test analyzer's California network.
func caNetwork(seed uint64) *powergrid.Network {
	return powergrid.BuildNetwork(testAnalyzer.Data, testAnalyzer.WHP, testAnalyzer.CaliforniaRegion(),
		powergrid.NetConfig{Seed: seed})
}

// jsonHash is the FNV-64a hash of v's JSON encoding.
func jsonHash(t *testing.T, v any) uint64 {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// networkHash folds every site and substation field of n into one
// FNV-64a hash, floats by their bits.
func networkHash(n *powergrid.Network) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putF := func(f float64) { put(math.Float64bits(f)) }
	put(uint64(len(n.Sites)))
	for _, s := range n.Sites {
		put(uint64(s.ID))
		putF(s.XY.X)
		putF(s.XY.Y)
		put(uint64(s.Transceivers))
		putF(s.BatteryHours)
		put(uint64(s.SubstationID))
		putF(s.Backhaul.X)
		putF(s.Backhaul.Y)
	}
	put(uint64(len(n.Substations)))
	for i, p := range n.Substations {
		putF(p.X)
		putF(p.Y)
		putF(n.SubstationHazard[i])
	}
	return h.Sum64()
}

package fivealarms

// Band-count conformance sweep: the band pass promises the same
// products at any band count and any GOMAXPROCS. Per seed, a one-band
// reference (Shards 0) is compared with twins at every swept band count
// under both schedules — reflect.DeepEqual tables and validation (no
// ulp allowance), fingerprint-equal union masks, and a ShardStats shape
// that matches the plan.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"fivealarms/internal/cellnet"
	"fivealarms/internal/faults"
	"fivealarms/internal/geom"
	"fivealarms/internal/risk"
	"fivealarms/internal/shard"
	"fivealarms/internal/wildfire"
)

// sweepBands deliberately includes 1 (the pass with no partition
// effect, which must equal Shards 0), counts that leave empty coastal
// bands at tiny fleets, 7 (bands that never divide the grid evenly)
// and 300 (more bands than grid rows, so most are empty).
var sweepBands = []int{1, 2, 4, 7, 300}

// genShardConfig derives one small study configuration from the seed.
// Scales stay tiny — the value of the sweep is in band-count coverage,
// not fleet size.
func genShardConfig(seed int64) Config {
	rng := rand.New(rand.NewSource(seed ^ 0x5a4ded))
	return Config{
		Seed:                 uint64(seed*2 + 7),
		CellSizeM:            []float64{40000, 60000, 90000}[rng.Intn(3)],
		Transceivers:         2500 + rng.Intn(3)*1250,
		MappedFiresPerSeason: 3 + rng.Intn(3),
	}
}

// bandProducts is everything the sweep compares between twins.
type bandProducts struct {
	table1   any
	table2   any
	table3   any
	validate any
	hist     uint64
	s2019    uint64
	rows     []int
	peak     int64
}

// bandProductsAt builds cfg with n bands at GOMAXPROCS=procs and reads
// its products under the same setting.
func bandProductsAt(t *testing.T, cfg Config, n, procs int) (p bandProducts) {
	t.Helper()
	faults.WithGOMAXPROCS(procs, func() {
		s, err := NewStudyWithOptions(WithConfig(cfg), WithShards(n))
		if err != nil {
			t.Fatalf("shards=%d GOMAXPROCS=%d build: %v", n, procs, err)
		}
		p = bandProducts{
			table1:   s.Table1(),
			table2:   s.Table2(),
			table3:   s.Table3(),
			validate: s.Validate(),
			hist:     s.HistoryUnionMask().Fingerprint(),
			s2019:    s.Season2019UnionMask().Fingerprint(),
		}
		p.rows, p.peak = s.ShardStats()
	})
	return p
}

// TestShardedDiffcheckSweep runs the band-count sweep: per seed, one
// Shards 0 reference at GOMAXPROCS=1 against every (band count,
// schedule) twin, byte-identical tables and validation and
// fingerprint-identical masks.
func TestShardedDiffcheckSweep(t *testing.T) {
	seeds := int64(3)
	if testing.Short() {
		seeds = 1
	}
	for seed := int64(0); seed < seeds; seed++ {
		cfg := genShardConfig(seed)
		ref := bandProductsAt(t, cfg, 0, schedules[0])
		fleet := 0
		for _, r := range ref.rows {
			fleet += r
		}
		if len(ref.rows) != 1 || ref.peak != 0 {
			t.Fatalf("seed %d: one-band ShardStats = (%v, %d), want one band and 0 bytes", seed, ref.rows, ref.peak)
		}
		for _, procs := range schedules {
			for _, n := range sweepBands {
				at := fmt.Sprintf("seed %d shards=%d GOMAXPROCS=%d", seed, n, procs)
				got := bandProductsAt(t, cfg, n, procs)
				for _, c := range []struct {
					name      string
					got, want any
				}{
					{"table1", got.table1, ref.table1},
					{"table2", got.table2, ref.table2},
					{"table3", got.table3, ref.table3},
					{"validate", got.validate, ref.validate},
					{"history mask", got.hist, ref.hist},
					{"2019 mask", got.s2019, ref.s2019},
				} {
					if !reflect.DeepEqual(c.got, c.want) {
						t.Errorf("%s: %s differs from the one-band reference", at, c.name)
					}
				}
				total := 0
				for _, r := range got.rows {
					total += r
				}
				if len(got.rows) != n || total != fleet {
					t.Errorf("%s: ShardStats reports %d bands holding %d rows, want %d holding %d", at, len(got.rows), total, n, fleet)
				}
				if got.peak != 0 {
					t.Errorf("%s: peak footprint %d, want 0: bands copy nothing", at, got.peak)
				}
			}
		}
	}
}

// edgeStudy returns a Study over base's layers whose fleet is rows,
// with nothing memoized, at n bands.
func edgeStudy(base *Study, rows []cellnet.Transceiver, n int) *Study {
	d := cellnet.NewDataset(base.World, rows)
	cfg := base.Cfg
	cfg.Shards = n
	return &Study{
		Cfg: cfg, World: base.World, WHP: base.WHP, Data: d, Counties: base.Counties,
		Analyzer: risk.New(base.World, base.WHP, d, base.Counties), Sim: base.Sim,
	}
}

// edgeFleet places transceivers where a band's row assignment and its
// clipped query boxes meet: on the lower edge of the first row of every
// band at each of bands, and one ulp to either side, along every fire
// whose perimeter's box spans that edge; and below and above the grid.
func edgeFleet(base *Study, bands []int) []cellnet.Transceiver {
	g := base.World.Grid
	top := g.MinY + float64(g.NY)*g.CellSize
	edges := []float64{g.MinY, top}
	for _, n := range bands {
		plan := shard.MakePlan(g.NY, n)
		for i := 1; i < n; i++ {
			y0, _ := plan.Band(i)
			edges = append(edges, g.MinY+float64(y0)*g.CellSize)
		}
	}
	var rows []cellnet.Transceiver
	add := func(x, y float64) {
		tr := base.Data.T[0]
		tr.XY = geom.Pt(x, y)
		rows = append(rows, tr)
	}
	fires := []*wildfire.Fire{}
	for _, s := range append(base.History(), base.Season2019()) {
		for fi := range s.Mapped {
			fires = append(fires, &s.Mapped[fi])
		}
	}
	for _, f := range fires {
		bb := f.Perimeter.BBox()
		for _, e := range edges {
			if e < bb.MinY || e > bb.MaxY {
				continue
			}
			for k := 1; k < 32; k++ {
				x := bb.MinX + bb.Width()*float64(k)/32
				add(x, e)
				add(x, math.Nextafter(e, math.Inf(-1)))
				add(x, math.Nextafter(e, math.Inf(1)))
			}
		}
	}
	for k := 0; k < 16; k++ {
		x := g.MinX + float64(g.NX)*g.CellSize*float64(k)/16
		add(x, g.MinY-g.CellSize/2)
		add(x, g.MinY-1e6)
		add(x, top+g.CellSize/2)
		add(x, top+1e6)
	}
	return rows
}

// TestBandEdgeTransceivers: transceivers on band-boundary rows, one ulp
// to either side of them, and below and above the grid each count in
// exactly one band. At 2, 4 and 7 bands and at GOMAXPROCS 1 and 4, the
// band pass gives the one-band Table 1 and validation, and its row
// counts sum to the fleet.
func TestBandEdgeTransceivers(t *testing.T) {
	bands := []int{2, 4, 7}
	base := mustStudy(stressCfg)
	rows := edgeFleet(base, bands)
	ref := edgeStudy(base, rows, 0)
	wantT1, wantV := ref.Table1(), ref.Validate()
	if risk.TotalInPerimeters(wantT1) == 0 {
		t.Fatalf("none of the %d edge transceivers is inside a perimeter", len(rows))
	}
	for _, procs := range schedules {
		for _, n := range bands {
			at := fmt.Sprintf("shards=%d GOMAXPROCS=%d", n, procs)
			var got []risk.YearOverlay
			var gotV *risk.ValidationResult
			var counts []int
			faults.WithGOMAXPROCS(procs, func() {
				s := edgeStudy(base, rows, n)
				got, gotV = s.Table1(), s.Validate()
				counts, _ = s.ShardStats()
			})
			if !reflect.DeepEqual(got, wantT1) {
				t.Errorf("%s: Table 1 differs from one band:\n got %+v\nwant %+v", at, got, wantT1)
			}
			if !reflect.DeepEqual(gotV, wantV) {
				t.Errorf("%s: validation %+v, one band %+v", at, gotV, wantV)
			}
			total := 0
			for _, c := range counts {
				total += c
			}
			if len(counts) != n || total != len(rows) {
				t.Errorf("%s: %d bands holding %d rows, want %d holding %d", at, len(counts), total, n, len(rows))
			}
		}
	}
}

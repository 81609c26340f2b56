package risk

import (
	"reflect"
	"testing"

	"fivealarms/internal/geom"
	"fivealarms/internal/powergrid"
	"fivealarms/internal/whp"
	"fivealarms/internal/wildfire"
)

// naiveOverlay is the pre-prepared-geometry overlay join, kept as the
// reference implementation: raw Ring ray-casts through
// MultiPolygon.ContainsPoint, map-free visited dedup, serial over
// seasons. The engine's results must stay byte-identical to it.
func naiveOverlay(a *Analyzer, seasons []*wildfire.Season) []YearOverlay {
	out := make([]YearOverlay, len(seasons))
	visited := make([]bool, a.Data.Len())
	var buf, touched []int
	for si, s := range seasons {
		count := 0
		touched = touched[:0]
		for fi := range s.Mapped {
			f := &s.Mapped[fi]
			buf = a.Data.Index.Query(f.Perimeter.BBox(), buf[:0])
			for _, ti := range buf {
				if visited[ti] {
					continue
				}
				if f.Perimeter.ContainsPoint(a.Data.T[ti].XY) {
					visited[ti] = true
					touched = append(touched, ti)
					count++
				}
			}
		}
		for _, ti := range touched {
			visited[ti] = false
		}
		perM := 0.0
		if s.TotalAcres > 0 {
			perM = float64(count) / (s.TotalAcres / 1e6)
		}
		out[si] = YearOverlay{
			Year:            s.Year,
			Fires:           s.TotalFires,
			AcresBurned:     s.TotalAcres,
			TransceiversIn:  count,
			PerMillionAcres: perM,
		}
	}
	return out
}

// naiveValidate mirrors ValidateFor with raw ray-casts.
func naiveValidate(a *Analyzer, season *wildfire.Season, classOf []whp.Class) *ValidationResult {
	res := &ValidationResult{}
	seen := make(map[int]bool)
	inRoad := make(map[int]bool)
	var buf []int
	for fi := range season.Mapped {
		f := &season.Mapped[fi]
		buf = a.Data.Index.Query(f.Perimeter.BBox(), buf[:0])
		for _, ti := range buf {
			if !f.Perimeter.ContainsPoint(a.Data.T[ti].XY) {
				continue
			}
			seen[ti] = true
			if f.RoadCorridor {
				inRoad[ti] = true
			}
		}
	}
	for ti := range seen {
		res.InPerimeter++
		predicted := classOf[ti].AtRisk()
		if predicted {
			res.Predicted++
		}
		if inRoad[ti] {
			res.RoadFireTotal++
			if !predicted {
				res.MissesInRoadFires++
			}
		}
	}
	return res
}

// TestPreparedJoinPointwiseIdentical is the foundation of the joins'
// bit-identity claim: on real simulated perimeters (rectilinear contour
// traces) the fire's burned-cell predicate agrees with the naive
// ray-cast at every index candidate of every fire — and the fire's bbox
// is the exact MultiPolygon bbox, so the candidate sets are identical
// too.
func TestPreparedJoinPointwiseIdentical(t *testing.T) {
	season := testSim.Season(wildfire.SeasonConfig{
		Seed: 5, Year: 2018, TotalFires: 58083, TotalAcres: 8.8e6, MappedFires: 30,
	})
	var buf []int
	checked := 0
	for fi := range season.Mapped {
		f := &season.Mapped[fi]
		if f.BBox() != f.Perimeter.BBox() {
			t.Fatalf("fire %d: fire bbox %v != perimeter bbox %v", fi, f.BBox(), f.Perimeter.BBox())
		}
		buf = testAnalyzer.Data.Index.Query(f.BBox(), buf[:0])
		for _, ti := range buf {
			xy := testData.T[ti].XY
			if got, want := f.Contains(xy), f.Perimeter.ContainsPoint(xy); got != want {
				t.Fatalf("fire %d transceiver %d at %v: cells %v, naive %v", fi, ti, xy, got, want)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no candidates checked; fixture degenerate")
	}
}

// TestHistoricalOverlayMatchesNaive asserts the full Table 1 pipeline —
// serial at GOMAXPROCS=1 and parallel above it — reproduces the naive
// reference exactly (not approximately: identical structs, floats
// included).
func TestHistoricalOverlayMatchesNaive(t *testing.T) {
	seasons := simulateHistory(t, testSim, 7, 10)
	want := naiveOverlay(testAnalyzer, seasons)
	for _, procs := range []int{1, 3, 4} {
		if got := overlayAt(procs, seasons); !reflect.DeepEqual(got, want) {
			t.Fatalf("overlay at GOMAXPROCS=%d diverges from naive:\n got %+v\nwant %+v", procs, got, want)
		}
	}
}

// TestValidateMatchesNaive pins the validation join to the reference.
func TestValidateMatchesNaive(t *testing.T) {
	season := wildfire.Simulate2019(testSim, 7, 40)
	want := naiveValidate(testAnalyzer, season, testAnalyzer.classOf)
	got := testAnalyzer.Validate(season)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Validate diverges from naive: got %+v, want %+v", got, want)
	}
}

// TestTransceiversInFireMatchesNaive pins the single-fire join.
func TestTransceiversInFireMatchesNaive(t *testing.T) {
	season := testSim.Season(wildfire.SeasonConfig{
		Seed: 9, Year: 2017, TotalFires: 66131, TotalAcres: 9.8e6, MappedFires: 12,
	})
	for fi := range season.Mapped {
		f := &season.Mapped[fi]
		got := testAnalyzer.TransceiversInFire(f)
		var want []int
		for _, ti := range testAnalyzer.Data.Index.Query(f.Perimeter.BBox(), nil) {
			if f.Perimeter.ContainsPoint(testData.T[ti].XY) {
				want = append(want, ti)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("fire %d: cell join %v != naive %v", fi, got, want)
		}
	}
}

// TestCaseStudyJoinPointwiseIdentical proves the PSPS case study is
// byte-identical to the naive path. The outage simulation consumes its
// rng stream conditioned on per-(site, fire) containment and on
// backhaul-segment sample probes; the old code evaluated
// BBox().ContainsPoint && Perimeter.ContainsPoint at exactly these
// points. If the fire's predicate agrees at every one of them, the
// rng draws, damage rolls, and therefore the full Outcome and
// CaseStudyResult are unchanged (the serial-vs-parallel half is covered
// by the pipeline fingerprint tests).
func TestCaseStudyJoinPointwiseIdentical(t *testing.T) {
	season := wildfire.Simulate2019(testSim, 7, 15)
	region := testAnalyzer.CaliforniaRegion()
	net := powergrid.BuildNetwork(testAnalyzer.Data, testAnalyzer.WHP, region, powergrid.NetConfig{Seed: 7})
	var fires []*wildfire.Fire
	for i := range season.Mapped {
		if region.Intersects(season.Mapped[i].BBox()) {
			fires = append(fires, &season.Mapped[i])
		}
	}
	if len(fires) == 0 || len(net.Sites) == 0 {
		t.Fatal("case-study fixture degenerate")
	}
	naive := func(f *wildfire.Fire, p geom.Point) bool {
		return f.BBox().ContainsPoint(p) && f.Perimeter.ContainsPoint(p)
	}
	checked := 0
	for _, f := range fires {
		for si := range net.Sites {
			s := &net.Sites[si]
			if got, want := f.Contains(s.XY), naive(f, s.XY); got != want {
				t.Fatalf("site %d vs fire %q: cells %v, naive %v", si, f.Name, got, want)
			}
			// The same sample lattice segmentCrossesPerimeter probes.
			// Strided: the naive reference walk dominates the test's cost,
			// and universal ring-level equivalence is already covered by
			// the geom property tests.
			if si%13 != 0 {
				continue
			}
			d := s.Backhaul.Sub(s.XY)
			steps := int(d.Norm()/200) + 1
			if steps > 4000 {
				steps = 4000
			}
			for k := 0; k <= steps; k++ {
				p := s.XY.Add(d.Scale(float64(k) / float64(steps)))
				if got, want := f.Contains(p), naive(f, p); got != want {
					t.Fatalf("segment sample %v vs fire %q: cells %v, naive %v", p, f.Name, got, want)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no probe points checked")
	}
}

// BenchmarkHistoricalOverlay compares the naive serial join against the
// engine's burned-cell join over a 19-season history (the Table 1
// workload). The engine fans out over GOMAXPROCS, so `make bench-geom`
// records it at -cpu 1,2 in BENCH_geom.json.
func BenchmarkHistoricalOverlay(b *testing.B) {
	seasons := simulateHistory(b, testSim, 7, 20)
	b.Run("naive-serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = naiveOverlay(testAnalyzer, seasons)
		}
	})
	b.Run("cells", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = testAnalyzer.HistoricalOverlay(seasons)
		}
	})
}

package fivealarms

// Study-level conformance: seed determinism across repeated builds at
// GOMAXPROCS 1 and 4, and the metamorphic properties that tie the
// headline analyses back to the refimpl reference twins (see DESIGN.md
// §5, "Testing conventions").

import (
	"math"
	"testing"

	"fivealarms/internal/geom"
	"fivealarms/internal/raster"
	"fivealarms/internal/refimpl"
)

// TestSeedDeterminismRepeatedBuilds builds the same seed three times
// through NewStudyWithOptions — alternating GOMAXPROCS=4 and the serial
// GOMAXPROCS=1 schedule — and requires byte-identical rendered report
// output every time. This is the contract every "seed N reproduces the
// run" claim in the repo rests on.
func TestSeedDeterminismRepeatedBuilds(t *testing.T) {
	want := fingerprintsAt(t, schedules[1], WithSeed(stressCfg.Seed))
	for rep := 0; rep < 3; rep++ {
		for _, procs := range schedules {
			got := fingerprintsAt(t, procs, WithSeed(stressCfg.Seed))
			for name, w := range want {
				if got[name] != w {
					t.Fatalf("rep %d GOMAXPROCS=%d: %s drifted:\nfirst build:\n%s\nthis build:\n%s",
						rep, procs, name, w, got[name])
				}
			}
		}
	}
}

// studyForConformance builds one small study shared by the metamorphic
// properties below.
func studyForConformance(t *testing.T) *Study {
	t.Helper()
	s, err := NewStudyWithOptions(WithConfig(stressCfg))
	if err != nil {
		t.Fatalf("build failed: %v", err)
	}
	return s
}

// TestMetamorphicTable1Recount (property 1): every Table 1 row recounted
// with the refimpl full scan — no spatial index, no prepared geometry,
// no visited mask — must match the pipeline's count exactly.
func TestMetamorphicTable1Recount(t *testing.T) {
	s := studyForConformance(t)
	rows := s.Table1()
	history := s.History()
	if len(rows) != len(history) {
		t.Fatalf("Table 1 has %d rows for %d seasons", len(rows), len(history))
	}
	for i, season := range history {
		count := 0
		for ti := 0; ti < s.Data.Len(); ti++ {
			p := s.Data.T[ti].XY
			for fi := range season.Mapped {
				if refimpl.MultiPolygonContains(season.Mapped[fi].Perimeter, p) {
					count++
					break
				}
			}
		}
		if rows[i].TransceiversIn != count {
			t.Errorf("year %d: Table 1 counts %d transceivers, refimpl full scan %d",
				rows[i].Year, rows[i].TransceiversIn, count)
		}
	}
}

// TestMetamorphicUnionMask (property 2): the memoized history union mask
// must equal, cell for cell, the bitwise OR of independent refimpl fills
// of every mapped perimeter — and by inclusion-exclusion its count can
// never exceed the sum of the per-fire counts.
func TestMetamorphicUnionMask(t *testing.T) {
	s := studyForConformance(t)
	union := s.HistoryUnionMask()
	g := s.World.Grid
	ref := raster.NewBitGrid(g)
	perFireSum := 0
	for _, season := range s.History() {
		for fi := range season.Mapped {
			one := refimpl.FillMultiPolygon(g, season.Mapped[fi].Perimeter)
			perFireSum += one.Count()
			for cy := 0; cy < g.NY; cy++ {
				for cx := 0; cx < g.NX; cx++ {
					if one.Get(cx, cy) {
						ref.Set(cx, cy, true)
					}
				}
			}
		}
	}
	for cy := 0; cy < g.NY; cy++ {
		for cx := 0; cx < g.NX; cx++ {
			if union.Get(cx, cy) != ref.Get(cx, cy) {
				t.Fatalf("cell (%d,%d): union mask %v, OR of refimpl fills %v",
					cx, cy, union.Get(cx, cy), ref.Get(cx, cy))
			}
		}
	}
	if got := union.Count(); got > perFireSum || got == 0 {
		t.Fatalf("union count %d outside (0, per-fire sum %d]", got, perFireSum)
	}
}

// TestMetamorphicProjectionRoundTrip (property 3): every perimeter
// vertex of the 2019 season, pulled back to lon/lat through the study's
// own projection and pushed forward again, must land within a
// millimeter. The refimpl twin must agree with the study projection on
// the pulled-back coordinates to <= 1e-9°.
func TestMetamorphicProjectionRoundTrip(t *testing.T) {
	s := studyForConformance(t)
	ref := refimpl.Albers{Phi1: 29.5, Phi2: 45.5, Phi0: 23, Lon0: -96}
	vertices := 0
	for fi := range s.Season2019().Mapped {
		for _, pg := range s.Season2019().Mapped[fi].Perimeter {
			for _, r := range append([]geom.Ring{pg.Exterior}, pg.Holes...) {
				for _, v := range r {
					ll := s.World.Proj.Inverse(v)
					back := s.World.Proj.Forward(ll)
					if math.Abs(back.X-v.X) > 1e-3 || math.Abs(back.Y-v.Y) > 1e-3 {
						t.Fatalf("vertex %v round-trips to %v (drift %v m)",
							v, back, math.Hypot(back.X-v.X, back.Y-v.Y))
					}
					rll := ref.Inverse(v)
					if math.Abs(rll.X-ll.X) > 1e-9 || math.Abs(rll.Y-ll.Y) > 1e-9 {
						t.Fatalf("vertex %v: study inverse %v, refimpl inverse %v", v, ll, rll)
					}
					vertices++
				}
			}
		}
	}
	if vertices == 0 {
		t.Fatal("2019 season has no perimeter vertices")
	}
}

// TestMetamorphicTranslationInvariance (property 4): containment is
// translation-invariant. Shifting a fire perimeter and the transceiver
// snapshot by the same offset must reproduce the member set of the
// original indexed join, transceiver for transceiver.
func TestMetamorphicTranslationInvariance(t *testing.T) {
	s := studyForConformance(t)
	season := s.Season2019()
	if len(season.Mapped) == 0 {
		t.Fatal("2019 season has no mapped fires")
	}
	const dx, dy = 123456.25, -98765.5
	for fi := range season.Mapped {
		f := &season.Mapped[fi]
		want := s.Analyzer.TransceiversInFire(f)
		inWant := make(map[int]bool, len(want))
		for _, ti := range want {
			inWant[ti] = true
		}
		shifted := make(geom.MultiPolygon, len(f.Perimeter))
		for pi, pg := range f.Perimeter {
			shifted[pi] = geom.Polygon{Exterior: translateRing(pg.Exterior, dx, dy)}
			for _, h := range pg.Holes {
				shifted[pi].Holes = append(shifted[pi].Holes, translateRing(h, dx, dy))
			}
		}
		for ti := 0; ti < s.Data.Len(); ti++ {
			p := s.Data.T[ti].XY
			got := refimpl.MultiPolygonContains(shifted, geom.Pt(p.X+dx, p.Y+dy))
			if got != inWant[ti] {
				t.Fatalf("fire %d transceiver %d: translated containment %v, original join %v",
					fi, ti, got, inWant[ti])
			}
		}
	}
}

func translateRing(r geom.Ring, dx, dy float64) geom.Ring {
	out := make(geom.Ring, len(r))
	for i, v := range r {
		out[i] = geom.Pt(v.X+dx, v.Y+dy)
	}
	return out
}

package risk

import (
	"context"
	"testing"

	"fivealarms/internal/cellnet"
	"fivealarms/internal/census"
	"fivealarms/internal/conus"
	"fivealarms/internal/faults"
	"fivealarms/internal/geodata"
	"fivealarms/internal/geom"
	"fivealarms/internal/powergrid"
	"fivealarms/internal/whp"
	"fivealarms/internal/wildfire"
)

// Shared test fixtures: one world, one dataset, one analyzer. Scale keeps
// the full suite under a few seconds.
var (
	testWorld    = conus.Build(conus.Config{Seed: 7, CellSizeM: 20000})
	testWHP      = whp.Build(testWorld, testWorld.Grid, whp.Config{})
	testData     = cellnet.Generate(testWorld, cellnet.GenConfig{Seed: 7, Total: 60000})
	testCounties = census.Synthesize(testWorld, 7)
	testAnalyzer = New(testWorld, testWHP, testData, testCounties)
	testSim      = wildfire.NewSimulator(testWorld, testWHP)
)

// simulateHistory is wildfire.SimulateHistory under a context that
// never cancels.
func simulateHistory(tb testing.TB, sim *wildfire.Simulator, seed uint64, mappedPerSeason int) []*wildfire.Season {
	tb.Helper()
	seasons, err := wildfire.SimulateHistory(context.Background(), sim, seed, mappedPerSeason)
	if err != nil {
		tb.Fatal(err)
	}
	return seasons
}

// overlayAt runs the test analyzer's historical overlay at GOMAXPROCS
// procs.
func overlayAt(procs int, seasons []*wildfire.Season) (rows []YearOverlay) {
	faults.WithGOMAXPROCS(procs, func() { rows = testAnalyzer.HistoricalOverlay(seasons) })
	return rows
}

func TestClassCacheMatchesDirectSampling(t *testing.T) {
	for i := 0; i < testData.Len(); i += 997 {
		want := testWHP.ClassAt(testData.T[i].XY)
		if got := testAnalyzer.Class(i); got != want {
			t.Fatalf("transceiver %d: cached class %v != %v", i, got, want)
		}
	}
}

func TestWHPOverlayNesting(t *testing.T) {
	res := testAnalyzer.WHPOverlay()
	m := res.ByClass[whp.Moderate]
	h := res.ByClass[whp.High]
	vh := res.ByClass[whp.VeryHigh]
	// The paper's structural finding (Figure 7): 261k > 142k > 26k.
	if !(m > h && h > vh && vh > 0) {
		t.Errorf("class nesting violated: M=%d H=%d VH=%d", m, h, vh)
	}
	if res.AtRisk() != m+h+vh {
		t.Error("AtRisk sum wrong")
	}
	// Paper scale: 430,844 / 5,364,949 = 8.0% of the fleet at risk. The
	// synthetic world should land in the same regime (3-20%).
	frac := float64(res.AtRisk()) / float64(res.Total)
	if frac < 0.03 || frac > 0.25 {
		t.Errorf("at-risk fraction = %.3f, want 0.03..0.25", frac)
	}
	if got := testAnalyzer.AtRiskCount(); got != res.AtRisk() {
		t.Errorf("AtRiskCount %d != overlay %d", got, res.AtRisk())
	}
}

func TestCaliforniaTopsStateRanking(t *testing.T) {
	res := testAnalyzer.WHPOverlay()
	top := res.TopStatesAtRisk()
	if len(top) < 10 {
		t.Fatalf("only %d states have at-risk transceivers", len(top))
	}
	if top[0].Abbrev != "CA" {
		t.Errorf("top at-risk state = %s, want CA (paper Figure 8)", top[0].Abbrev)
	}
	// FL and TX must rank in the top handful (paper: CA, FL, TX lead).
	rank := map[string]int{}
	for i, sc := range top {
		rank[sc.Abbrev] = i
	}
	if rank["FL"] > 6 {
		t.Errorf("FL rank = %d, want top 7", rank["FL"])
	}
	if rank["TX"] > 8 {
		t.Errorf("TX rank = %d, want top 9", rank["TX"])
	}
}

func TestTopStatesByClassSorted(t *testing.T) {
	res := testAnalyzer.WHPOverlay()
	for _, c := range []whp.Class{whp.Moderate, whp.High, whp.VeryHigh} {
		rows := res.TopStates(c)
		for i := 1; i < len(rows); i++ {
			if rows[i].Count > rows[i-1].Count {
				t.Fatalf("class %v ranking not sorted", c)
			}
		}
	}
	if res.TopStates(whp.Low) != nil {
		t.Error("non-risk class should return nil")
	}
}

func TestPerCapitaElevatesSmallWesternStates(t *testing.T) {
	res := testAnalyzer.WHPOverlay()
	// Very-high is sparse (paper: 0.49% of the fleet), so the per-capita
	// reordering effect of Figure 9 is tested on the denser moderate
	// class: small western states must climb the ranking relative to
	// their absolute counts.
	pc := res.PerCapita(whp.Moderate)
	if len(pc) < 10 {
		t.Fatalf("per-capita rows = %d", len(pc))
	}
	// Figure 9's structural claim: normalizing by population promotes the
	// small western states relative to the absolute ranking (the paper:
	// "New Mexico replaces Texas"). Check the rank improvement for every
	// small western state present in both lists.
	abs := res.TopStates(whp.Moderate)
	absRank := map[string]int{}
	for i, sc := range abs {
		absRank[sc.Abbrev] = i
	}
	small := map[string]bool{
		"UT": true, "NV": true, "NM": true, "MT": true,
		"ID": true, "WY": true, "OR": true,
	}
	improved, present := 0, 0
	for i, sc := range pc {
		if !small[sc.Abbrev] {
			continue
		}
		if ar, ok := absRank[sc.Abbrev]; ok {
			present++
			if i < ar {
				improved++
			}
		}
	}
	if present == 0 {
		t.Fatal("no small western states have moderate-class transceivers")
	}
	if improved*2 < present {
		t.Errorf("per-capita ranking promoted only %d/%d small western states", improved, present)
	}
	// The very-high per-capita list exists and is sorted.
	vhpc := res.PerCapita(whp.VeryHigh)
	for i := 1; i < len(vhpc); i++ {
		if vhpc[i].PerThousand > vhpc[i-1].PerThousand {
			t.Fatal("very-high per-capita not sorted")
		}
	}
}

func TestProviderRiskShape(t *testing.T) {
	rows := testAnalyzer.ProviderRisk()
	if len(rows) != 5 {
		t.Fatalf("provider rows = %d, want 5", len(rows))
	}
	byName := map[string]ProviderRow{}
	for _, r := range rows {
		byName[r.Provider] = r
		if r.Fleet == 0 {
			t.Errorf("provider %s has no fleet", r.Provider)
		}
		if r.Moderate < r.High || r.High < r.VHigh {
			t.Errorf("%s: class nesting violated (M=%d H=%d VH=%d)", r.Provider, r.Moderate, r.High, r.VHigh)
		}
		if r.PctM < r.PctH || r.PctH < r.PctVH {
			t.Errorf("%s: percentage nesting violated", r.Provider)
		}
	}
	att := byName[geodata.ProviderATT]
	sprint := byName[geodata.ProviderSprint]
	// Paper Table 2: AT&T carries the most at-risk infrastructure.
	for _, r := range rows {
		if r.Provider == geodata.ProviderATT {
			continue
		}
		if r.Moderate+r.High+r.VHigh > att.Moderate+att.High+att.VHigh {
			t.Errorf("%s exceeds AT&T in at-risk infrastructure", r.Provider)
		}
	}
	// Sprint's urban-heavy fleet has the lowest at-risk share among the
	// big four (3.90% vs 5.44% in Table 2).
	if sprint.PctM >= att.PctM {
		t.Errorf("Sprint PctM %.2f should be below AT&T %.2f", sprint.PctM, att.PctM)
	}
}

func TestRegionalProvidersAtRisk(t *testing.T) {
	regional := testAnalyzer.RegionalProvidersAtRisk()
	// Paper footnote: 46 smaller providers operate at-risk infrastructure.
	if len(regional) < 25 {
		t.Errorf("regional providers at risk = %d, want tens", len(regional))
	}
	for _, p := range regional {
		if geodata.IsMajorProvider(p) {
			t.Errorf("major provider %s in regional list", p)
		}
	}
}

func TestRadioTypeRisk(t *testing.T) {
	rows := testAnalyzer.RadioTypeRisk()
	if len(rows) != 4 {
		t.Fatalf("radio rows = %d", len(rows))
	}
	byRadio := map[cellnet.Radio]RadioRow{}
	for _, r := range rows {
		byRadio[r.Radio] = r
		if r.Total != r.VHigh+r.High+r.Moderate {
			t.Errorf("%v: total mismatch", r.Radio)
		}
	}
	// Paper Table 3: LTE leads every class; UMTS second overall.
	if byRadio[cellnet.LTE].Total <= byRadio[cellnet.UMTS].Total {
		t.Error("LTE should lead UMTS in at-risk transceivers")
	}
	if byRadio[cellnet.UMTS].Total <= byRadio[cellnet.GSM].Total {
		t.Error("UMTS should lead GSM")
	}
	if byRadio[cellnet.LTE].Moderate <= byRadio[cellnet.CDMA].Moderate {
		t.Error("LTE should lead CDMA in moderate")
	}
}

func TestHistoricalOverlayTable1(t *testing.T) {
	seasons := simulateHistory(t, testSim, 7, 10)
	rows := testAnalyzer.HistoricalOverlay(seasons)
	if len(rows) != 19 {
		t.Fatalf("rows = %d", len(rows))
	}
	nonzero := 0
	for _, r := range rows {
		if r.Fires <= 0 || r.AcresBurned <= 0 {
			t.Errorf("%d: missing marginals", r.Year)
		}
		if r.TransceiversIn > 0 {
			nonzero++
			if r.PerMillionAcres <= 0 {
				t.Errorf("%d: rate not computed", r.Year)
			}
		}
	}
	// Paper: every year has at least 180; at small scale most years must
	// still catch some infrastructure.
	if nonzero < 12 {
		t.Errorf("only %d/19 years caught transceivers", nonzero)
	}
	// Paper: wide variability with no simple acreage relationship. Check
	// that the per-million-acre rate varies by at least 3x across years
	// with nonzero counts.
	var lo, hi float64
	for _, r := range rows {
		if r.TransceiversIn == 0 {
			continue
		}
		if lo == 0 || r.PerMillionAcres < lo {
			lo = r.PerMillionAcres
		}
		if r.PerMillionAcres > hi {
			hi = r.PerMillionAcres
		}
	}
	if hi < 3*lo {
		t.Errorf("per-acre rate range [%.1f, %.1f] too narrow: no Table 1 variability", lo, hi)
	}
	if TotalInPerimeters(rows) == 0 {
		t.Error("no transceivers in perimeters across 19 years")
	}
}

// TestEmptyFleet runs the fanned-out analyses over a fleet of no
// transceivers at GOMAXPROCS 1 and 4: each fan-out still runs one band,
// over the empty range, and every count is zero.
func TestEmptyFleet(t *testing.T) {
	season := wildfire.Simulate2019(testSim, 7, 4)
	for _, procs := range []int{1, 4} {
		faults.WithGOMAXPROCS(procs, func() {
			a := New(testWorld, testWHP, cellnet.NewDataset(testWorld, nil), testCounties)
			if rows := a.HistoricalOverlay([]*wildfire.Season{season}); rows[0].TransceiversIn != 0 {
				t.Errorf("GOMAXPROCS=%d: Table 1 row %+v, want no transceivers", procs, rows[0])
			}
			if v := a.Validate(season); *v != (ValidationResult{}) {
				t.Errorf("GOMAXPROCS=%d: validation %+v, want zero", procs, *v)
			}
			if f := a.ExtendAndValidateFine(season, 4000, 0); f.WindowTransceivers != 0 || f.InPerimeter != 0 || f.VHAfter != 0 {
				t.Errorf("GOMAXPROCS=%d: fine extension %+v, want zero counts", procs, *f)
			}
		})
	}
}

func TestTransceiversInFire(t *testing.T) {
	season := testSim.Season(wildfire.SeasonConfig{
		Seed: 5, Year: 2018, TotalFires: 58083, TotalAcres: 8.8e6, MappedFires: 30,
	})
	total := 0
	for i := range season.Mapped {
		ids := testAnalyzer.TransceiversInFire(&season.Mapped[i])
		total += len(ids)
		for _, ti := range ids {
			if !season.Mapped[i].Perimeter.ContainsPoint(testData.T[ti].XY) {
				t.Fatal("returned transceiver outside perimeter")
			}
		}
	}
	if total == 0 {
		t.Error("no transceivers in any fire; overlay join broken")
	}
}

func TestFireUnionMask(t *testing.T) {
	seasons := []*wildfire.Season{testSim.Season(wildfire.SeasonConfig{
		Seed: 5, Year: 2018, TotalFires: 58083, TotalAcres: 8.8e6, MappedFires: 10,
	})}
	mask := testAnalyzer.FireUnionMask(seasons)
	if mask.Count() == 0 {
		t.Error("union mask empty")
	}
}

func TestValidation2019(t *testing.T) {
	season := wildfire.Simulate2019(testSim, 7, 40)
	v := testAnalyzer.Validate(season)
	if v.InPerimeter == 0 {
		t.Fatal("validation season caught no transceivers")
	}
	acc := v.AccuracyPct()
	// Paper: 46%. Structurally the WHP must predict some but not all
	// (roads/urban edges are nonburnable).
	if acc <= 5 || acc >= 98 {
		t.Errorf("validation accuracy = %.1f%%, want an intermediate value", acc)
	}
	if v.Predicted > v.InPerimeter {
		t.Error("predicted exceeds in-perimeter")
	}
	if v.MissesInRoadFires > v.InPerimeter-v.Predicted {
		t.Error("road misses exceed total misses")
	}
	if v.AccuracyExclRoadPct() < acc {
		t.Error("excluding road-fire misses cannot reduce accuracy")
	}
}

func TestExtendAndValidate(t *testing.T) {
	season := wildfire.Simulate2019(testSim, 7, 40)
	// Buffer by 2.5 cells so the coarse test raster can actually grow.
	dist := 2.5 * testWorld.Grid.CellSize
	res := testAnalyzer.ExtendAndValidate(season, dist)
	if res.VHAfter <= res.VHBefore {
		t.Errorf("extension did not grow very-high: %d -> %d", res.VHBefore, res.VHAfter)
	}
	if res.TotalAfter < res.TotalBefore {
		t.Errorf("extension shrank the at-risk total: %d -> %d", res.TotalBefore, res.TotalAfter)
	}
	if res.After.AccuracyPct() < res.Before.AccuracyPct() {
		t.Errorf("extension reduced accuracy: %.1f%% -> %.1f%% (paper: 46%% -> 62%%)",
			res.Before.AccuracyPct(), res.After.AccuracyPct())
	}
	// The analyzer must be restored.
	again := testAnalyzer.WHPOverlay()
	if again.ByClass[whp.VeryHigh] != res.VHBefore {
		t.Error("analyzer classes not restored after extension experiment")
	}
}

func TestPopulationImpact(t *testing.T) {
	m := testAnalyzer.PopulationImpact()
	var total int
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			total += m.Counts[r][c]
		}
	}
	if total == 0 {
		t.Fatal("impact matrix empty")
	}
	if m.VeryDenseTotal() == 0 {
		t.Error("no at-risk transceivers in very-dense counties (paper: 57,504)")
	}
	if m.PopulousTotal() < m.VeryDenseTotal() {
		t.Error("populous total must include very-dense")
	}
	// Consistency with the overlay: matrix + rural == all at-risk.
	res := testAnalyzer.WHPOverlay()
	withRural := m.PopulousTotal() + m.Rural[0] + m.Rural[1] + m.Rural[2]
	// Off-CONUS at-risk transceivers (none expected) would break equality;
	// allow tiny slack for county-resolution failures.
	if diff := res.AtRisk() - withRural; diff < 0 || diff > res.AtRisk()/50 {
		t.Errorf("matrix total %d vs overlay at-risk %d", withRural, res.AtRisk())
	}
}

func TestMetroImpact(t *testing.T) {
	rows := testAnalyzer.MetroImpact()
	if len(rows) != len(geodata.PaperMetros) {
		t.Fatalf("metro rows = %d", len(rows))
	}
	byName := map[string]MetroRow{}
	for i := 1; i < len(rows); i++ {
		if rows[i].Total() > rows[i-1].Total() {
			t.Fatal("metros not sorted by total")
		}
	}
	for _, r := range rows {
		byName[r.Metro] = r
	}
	// Paper §3.6/§3.7: LA leads; the LA/SD/SF/Miami cluster dominates.
	// At the 60k test scale LA and Miami run within sampling noise of
	// each other (full-scale runs put LA clearly first), so require LA
	// in the top two and leading the very-high column outright.
	if rows[0].Metro != "Los Angeles" && rows[1].Metro != "Los Angeles" {
		t.Errorf("LA not in top two: %s, %s", rows[0].Metro, rows[1].Metro)
	}
	// The Southern California metros dominate very-high exposure.
	socal := byName["Los Angeles"].VHigh + byName["San Diego"].VHigh
	for _, r := range rows {
		if r.Metro != "Los Angeles" && r.Metro != "San Diego" && r.VHigh > socal {
			t.Errorf("%s exceeds the SoCal metros in very-high exposure", r.Metro)
		}
	}
	if byName["Los Angeles"].VHVeryDense == 0 {
		t.Error("LA should have very-high transceivers in very-dense counties (paper: 3,547)")
	}
	// LA outranks New York in very-high exposure (3,547 vs 81).
	if byName["Los Angeles"].VHigh <= byName["New York"].VHigh {
		t.Errorf("LA VH (%d) should far exceed NYC VH (%d)",
			byName["Los Angeles"].VHigh, byName["New York"].VHigh)
	}
}

func TestMetroWindowCount(t *testing.T) {
	counts := testAnalyzer.MetroWindowCount(geom.Point{X: -118.0, Y: 34.0}, 110000)
	var total int
	for _, n := range counts {
		total += n
	}
	if total == 0 {
		t.Fatal("LA window sees no transceivers")
	}
	if counts[whp.NonBurnable] == 0 {
		t.Error("urban LA should have nonburnable-classified transceivers")
	}
}

func TestFutureRiskCorridor(t *testing.T) {
	c := corridorFixture()
	res := testAnalyzer.FutureRisk(c)
	if res.CorridorTransceivers == 0 {
		t.Fatal("corridor sees no transceivers")
	}
	meanGrew := false
	for _, r := range res.Rows {
		if r.Transceivers == 0 {
			continue
		}
		// Monotonicity: positive deltas cannot reduce exposure, negative
		// deltas cannot increase it (per-point scaling guarantees this).
		if r.DeltaPct > 0 && r.AtRiskFuture < r.AtRiskNow {
			t.Errorf("%s: positive delta shrank at-risk count", r.Ecoregion)
		}
		if r.DeltaPct < 0 && r.AtRiskFuture > r.AtRiskNow {
			t.Errorf("%s: negative delta grew at-risk count", r.Ecoregion)
		}
		if r.DeltaPct > 0 && r.MeanHazardFuture > r.MeanHazardNow {
			meanGrew = true
		}
		if r.DeltaPct > 0 && r.MeanHazardFuture < r.MeanHazardNow {
			t.Errorf("%s: mean hazard fell under a positive delta", r.Ecoregion)
		}
	}
	if !meanGrew {
		t.Error("no positive-delta ecoregion raised its mean hazard")
	}
	counts := testAnalyzer.CorridorWHPCounts(c)
	if len(counts) == 0 {
		t.Error("corridor WHP counts empty")
	}
}

func TestCaseStudyFall2019(t *testing.T) {
	season := wildfire.Simulate2019(testSim, 7, 15)
	res := testAnalyzer.CaseStudyFall2019(season, powergrid.NetConfig{Seed: 7}, 7)
	if res.Sites == 0 || res.Substations == 0 {
		t.Fatal("case-study network empty")
	}
	if res.PeakDay != 3 {
		t.Errorf("peak day = %d (%s), want Oct 28", res.PeakDay, res.Series.Labels[res.PeakDay])
	}
	if res.PeakOut == 0 {
		t.Fatal("no outages at peak")
	}
	// Paper: 80% of peak outages from power loss.
	if res.PeakPowerShare < 0.6 {
		t.Errorf("peak power share = %.2f, want > 0.6", res.PeakPowerShare)
	}
	if res.FinalOut >= res.PeakOut {
		t.Error("outages should decline from the peak by Nov 1")
	}
	if res.Counties < 10 {
		t.Errorf("counties reporting = %d", res.Counties)
	}
}

func TestMitigationSweep(t *testing.T) {
	season := wildfire.Simulate2019(testSim, 7, 15)
	pts := testAnalyzer.MitigationSweep(season, []float64{4, 24, 72}, 7)
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	// More battery -> fewer peak power outages (the §3.10 lever).
	if pts[2].PeakPowerOut > pts[0].PeakPowerOut {
		t.Errorf("72h batteries (%d power outages) should beat 4h (%d)",
			pts[2].PeakPowerOut, pts[0].PeakPowerOut)
	}
}

func BenchmarkWHPOverlay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = testAnalyzer.WHPOverlay()
	}
}

func BenchmarkHistoricalOverlaySeason(b *testing.B) {
	seasons := []*wildfire.Season{testSim.Season(wildfire.SeasonConfig{
		Seed: 5, Year: 2018, TotalFires: 58083, TotalAcres: 8.8e6, MappedFires: 20,
	})}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = testAnalyzer.HistoricalOverlay(seasons)
	}
}

func BenchmarkAnalyzerNew(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = New(testWorld, testWHP, testData, testCounties)
	}
}

package geodata

import "testing"

func TestStatesComplete(t *testing.T) {
	if len(States) != 49 {
		t.Fatalf("expected 48 conterminous states + DC, got %d", len(States))
	}
	seen := map[string]bool{}
	for _, s := range States {
		if len(s.Abbrev) != 2 {
			t.Errorf("bad abbreviation %q", s.Abbrev)
		}
		if seen[s.Abbrev] {
			t.Errorf("duplicate state %s", s.Abbrev)
		}
		seen[s.Abbrev] = true
		if s.Pop <= 0 || s.AreaKM2 <= 0 || s.Counties <= 0 {
			t.Errorf("%s: non-positive pop/area/counties", s.Abbrev)
		}
		if s.Hazard < 0 || s.Hazard > 1 {
			t.Errorf("%s: hazard weight %v out of [0,1]", s.Abbrev, s.Hazard)
		}
		if s.Lon > -66 || s.Lon < -125 || s.Lat < 24 || s.Lat > 50 {
			t.Errorf("%s: centroid (%v,%v) outside CONUS", s.Abbrev, s.Lon, s.Lat)
		}
	}
	for _, want := range []string{"CA", "FL", "TX", "NM", "UT", "DC"} {
		if !seen[want] {
			t.Errorf("missing state %s", want)
		}
	}
}

func TestStateLookups(t *testing.T) {
	ca, ok := StateByAbbrev("CA")
	if !ok || ca.Name != "California" {
		t.Errorf("StateByAbbrev(CA) = %v, %v", ca, ok)
	}
	if _, ok := StateByAbbrev("ZZ"); ok {
		t.Error("unknown state should not resolve")
	}
	if StateIndex("CA") < 0 || StateIndex("ZZ") != -1 {
		t.Error("StateIndex")
	}
}

func TestHazardCalibrationShape(t *testing.T) {
	// The generator relies on western/southeastern states having higher
	// hazard weights than the farm belt — the structure behind the paper's
	// state ranking (CA, FL, TX top).
	get := func(ab string) float64 {
		s, _ := StateByAbbrev(ab)
		return s.Hazard
	}
	if get("CA") <= get("IL") || get("FL") <= get("OH") || get("NM") <= get("IA") {
		t.Error("hazard weights do not follow west/southeast > midwest")
	}
	if get("CA") < 0.9 {
		t.Error("California must carry the top hazard weight")
	}
}

func TestTotalPopulation(t *testing.T) {
	p := TotalPopulation()
	// Conterminous US 2018: ~325M.
	if p < 300e6 || p > 340e6 {
		t.Errorf("total population = %d, want ~325M", p)
	}
}

func TestConusOutline(t *testing.T) {
	if len(ConusOutline) < 30 {
		t.Fatalf("outline too coarse: %d vertices", len(ConusOutline))
	}
	for _, v := range ConusOutline {
		if v.Lon > -60 || v.Lon < -130 || v.Lat < 24 || v.Lat > 50 {
			t.Errorf("outline vertex (%v,%v) outside CONUS box", v.Lon, v.Lat)
		}
	}
}

func TestCitiesValid(t *testing.T) {
	if len(Cities) < 70 {
		t.Fatalf("gazetteer too small: %d", len(Cities))
	}
	for _, c := range Cities {
		if _, ok := StateByAbbrev(c.State); !ok {
			t.Errorf("city %s references unknown state %s", c.Name, c.State)
		}
		if c.MetroPop <= 0 {
			t.Errorf("city %s has no population", c.Name)
		}
	}
	inCA := 0
	for _, c := range Cities {
		if c.State == "CA" {
			inCA++
		}
	}
	if inCA < 5 {
		t.Errorf("California should have several gazetteer cities, got %d", inCA)
	}
}

func TestPaperMetrosAnchored(t *testing.T) {
	for _, m := range PaperMetros {
		if m.RadiusKM <= 0 {
			t.Errorf("metro %s: non-positive radius", m.Name)
		}
	}
	names := map[string]bool{}
	for _, m := range PaperMetros {
		names[m.Name] = true
	}
	for _, want := range []string{"Los Angeles", "Miami", "San Diego", "Phoenix", "Orlando"} {
		if !names[want] {
			t.Errorf("missing paper metro %s", want)
		}
	}
}

func TestBigCounties(t *testing.T) {
	if len(BigCounties) < 20 {
		t.Fatalf("need the 23 most populous counties, got %d", len(BigCounties))
	}
	over15 := 0
	for _, c := range BigCounties {
		if _, ok := StateByAbbrev(c.State); !ok {
			t.Errorf("county %s references unknown state %s", c.Name, c.State)
		}
		if c.Pop > 1500000 {
			over15++
		}
	}
	if over15 < 20 {
		t.Errorf("only %d counties over 1.5M; paper identifies 23", over15)
	}
}

func TestRegionalProvidersCount(t *testing.T) {
	// The paper footnotes 46 smaller providers operating at-risk
	// infrastructure; the table must carry a comparable long tail.
	n := len(RegionalProviders())
	if n < 46 {
		t.Errorf("regional providers = %d, want >= 46", n)
	}
}

func TestCodesForProvider(t *testing.T) {
	att := CodesForProvider(ProviderATT)
	if len(att) < 10 {
		t.Errorf("AT&T should hold many MNCs, got %d", len(att))
	}
	if len(CodesForProvider("NoSuchCarrier")) != 0 {
		t.Error("unknown carrier should have no codes")
	}
}

func TestSharesSumToOne(t *testing.T) {
	var tot float64
	for _, v := range NationalShare {
		tot += v
	}
	if tot < 0.99 || tot > 1.01 {
		t.Errorf("NationalShare sums to %v", tot)
	}
}

func TestPaperTable1(t *testing.T) {
	if len(PaperTable1) != 19 {
		t.Fatalf("Table 1 should have 19 years, got %d", len(PaperTable1))
	}
	years := map[int]bool{}
	for _, r := range PaperTable1 {
		if r.Year < 2000 || r.Year > 2018 {
			t.Errorf("year %d out of range", r.Year)
		}
		years[r.Year] = true
		if r.Fires < 40000 || r.AcresBurnedM < 3 {
			t.Errorf("%d: implausible row %+v", r.Year, r)
		}
	}
	if len(years) != 19 {
		t.Error("duplicate years in Table 1")
	}
	r, ok := PaperTable1ByYear(2007)
	if !ok || r.TransceiversIn != 4978 {
		t.Errorf("2007 lookup = %+v, %v", r, ok)
	}
	if _, ok := PaperTable1ByYear(1999); ok {
		t.Error("1999 should not exist")
	}
}

func TestPaperWHPTotalsConsistent(t *testing.T) {
	if PaperWHPModerate+PaperWHPHigh+PaperWHPVeryHigh != PaperWHPTotal {
		t.Error("WHP class totals do not sum to the reported total")
	}
}

func TestPaperTable2Consistent(t *testing.T) {
	var m, h, vh int
	for _, r := range PaperTable2 {
		m += r.Moderate
		h += r.High
		vh += r.VHigh
	}
	// Table 2 sums should match the Figure 7 class totals within rounding.
	if m != PaperWHPModerate || h != PaperWHPHigh || vh != PaperWHPVeryHigh {
		t.Errorf("Table 2 sums (%d,%d,%d) vs class totals (%d,%d,%d)",
			m, h, vh, PaperWHPModerate, PaperWHPHigh, PaperWHPVeryHigh)
	}
}

func TestPaperTable3RowsSum(t *testing.T) {
	for _, r := range PaperTable3 {
		if r.VHigh+r.High+r.Moderate != r.Total {
			t.Errorf("%s: row does not sum to total", r.Radio)
		}
	}
}

func TestEcoregionDeltas(t *testing.T) {
	if len(PaperEcoregions) != 13 {
		t.Fatalf("corridor has 13 ecoregions, got %d", len(PaperEcoregions))
	}
	var has240, hasNeg bool
	for _, e := range PaperEcoregions {
		if e.DeltaPct == 240 {
			has240 = true
		}
		if e.DeltaPct < 0 {
			hasNeg = true
		}
	}
	if !has240 || !hasNeg {
		t.Error("corridor must include the +240% and the negative-delta bands")
	}
}

func TestPaperFires2019(t *testing.T) {
	roadFires := 0
	for _, f := range PaperFires2019 {
		if f.Acres <= 0 {
			t.Errorf("%s: no acreage", f.Name)
		}
		if f.RoadCorridor {
			roadFires++
		}
	}
	if roadFires != 2 {
		t.Errorf("road-corridor fires = %d, want 2 (Saddle Ridge, Tick)", roadFires)
	}
}

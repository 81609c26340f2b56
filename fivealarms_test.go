package fivealarms

import (
	"testing"

	"fivealarms/internal/whp"
)

// sharedStudy is the package-level fixture: small but large enough for
// every experiment to produce nonzero results.
var sharedStudy = mustStudy(Config{Seed: 7, CellSizeM: 20000, Transceivers: 60000, MappedFiresPerSeason: 12})

// mustStudy builds a fixture study through the validating constructor.
// Fixture configurations are valid by construction, so an error means a
// broken test setup; it panics because package-level fixtures have no
// *testing.T to fail.
func mustStudy(cfg Config) *Study {
	s, err := NewStudyWithOptions(WithConfig(cfg))
	if err != nil {
		panic(err)
	}
	return s
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Seed != 1 || cfg.CellSizeM != 10000 || cfg.Transceivers != 150000 {
		t.Errorf("defaults = %+v", cfg)
	}
	ps := PaperScale(3)
	if ps.Transceivers != 5364949 || ps.CellSizeM != 2700 || ps.Seed != 3 {
		t.Errorf("paper scale = %+v", ps)
	}
}

func TestStudyLayersWired(t *testing.T) {
	s := sharedStudy
	if s.World == nil || s.WHP == nil || s.Data == nil || s.Counties == nil ||
		s.Analyzer == nil || s.Sim == nil {
		t.Fatal("study layers missing")
	}
	if s.Data.Len() < 55000 {
		t.Errorf("dataset = %d", s.Data.Len())
	}
}

func TestEndToEndTable1(t *testing.T) {
	rows := sharedStudy.Table1()
	if len(rows) != 19 {
		t.Fatalf("years = %d", len(rows))
	}
	any := 0
	for _, r := range rows {
		any += r.TransceiversIn
	}
	if any == 0 {
		t.Error("no transceivers in any perimeter across 19 seasons")
	}
}

func TestEndToEndOverlayAndTables(t *testing.T) {
	overlay := sharedStudy.WHPOverlay()
	if overlay.AtRisk() == 0 {
		t.Fatal("no at-risk transceivers")
	}
	if got := overlay.TopStatesAtRisk()[0].Abbrev; got != "CA" {
		t.Errorf("top state = %s", got)
	}
	t2 := sharedStudy.Table2()
	if len(t2) != 5 || t2[0].Provider != "AT&T" {
		t.Errorf("table2 = %v", t2)
	}
	t3 := sharedStudy.Table3()
	if len(t3) != 4 {
		t.Errorf("table3 rows = %d", len(t3))
	}
}

func TestEndToEndCaseStudy(t *testing.T) {
	cs := sharedStudy.CaseStudy()
	if cs.PeakOut == 0 {
		t.Fatal("case study produced no outages")
	}
	if cs.PeakPowerShare < 0.5 {
		t.Errorf("power share = %v", cs.PeakPowerShare)
	}
}

func TestEndToEndValidationAndExtension(t *testing.T) {
	v := sharedStudy.Validate()
	if v.InPerimeter == 0 {
		t.Fatal("validation empty")
	}
	ext := sharedStudy.ExtendWith(ExtendOptions{DistM: 2.5 * sharedStudy.World.Grid.CellSize})
	if ext.VHAfter <= ext.VHBefore {
		t.Error("extension did not grow")
	}
}

func TestEndToEndImpactAndMetros(t *testing.T) {
	if sharedStudy.Impact().PopulousTotal() == 0 {
		t.Error("impact matrix empty")
	}
	metros := sharedStudy.Metros()
	if len(metros) == 0 {
		t.Fatal("no metros")
	}
	// LA and Miami trade the top spot within test-scale noise; full-scale
	// runs put LA first (see EXPERIMENTS.md).
	if metros[0].Metro != "Los Angeles" && metros[1].Metro != "Los Angeles" {
		t.Errorf("LA not in top two: %v", metros[:2])
	}
}

func TestEndToEndFuture(t *testing.T) {
	f := sharedStudy.Future()
	if f.CorridorTransceivers == 0 {
		t.Error("corridor empty")
	}
	if len(f.Rows) != 13 {
		t.Errorf("ecoregions = %d", len(f.Rows))
	}
}

func TestDeterministicStudies(t *testing.T) {
	a := mustStudy(Config{Seed: 11, CellSizeM: 40000, Transceivers: 5000, MappedFiresPerSeason: 4})
	b := mustStudy(Config{Seed: 11, CellSizeM: 40000, Transceivers: 5000, MappedFiresPerSeason: 4})
	if a.Data.Len() != b.Data.Len() {
		t.Fatal("dataset sizes differ")
	}
	ra := a.WHPOverlay()
	rb := b.WHPOverlay()
	for c := whp.Water; c <= whp.VeryHigh; c++ {
		if ra.ByClass[c] != rb.ByClass[c] {
			t.Fatalf("class %v differs: %d vs %d", c, ra.ByClass[c], rb.ByClass[c])
		}
	}
}

func TestEndToEndEscapeAndEmergency(t *testing.T) {
	esc := sharedStudy.Escape(0)
	if len(esc) == 0 {
		t.Fatal("no state escape probabilities")
	}
	for _, se := range esc {
		if se.Escape < 0 || se.Escape > 1 {
			t.Fatalf("state %s escape probability %v outside [0, 1]", se.Abbrev, se.Escape)
		}
	}
	em := sharedStudy.Emergency()
	if em == nil || len(em.DayLabels) == 0 {
		t.Fatal("emergency analysis empty")
	}
}

package report

import (
	"strings"
	"testing"

	"fivealarms/internal/dirs"
	"fivealarms/internal/geodata"
	"fivealarms/internal/risk"
	"fivealarms/internal/serve/api"
	"fivealarms/internal/whp"
)

// requireCells fails unless the rendered table contains every cell.
func requireCells(t *testing.T, tb *Table, cells ...string) {
	t.Helper()
	s := tb.String()
	for _, c := range cells {
		if !strings.Contains(s, c) {
			t.Errorf("%s: missing %q in\n%s", tb.Title, c, s)
		}
	}
}

func TestTable2Rendering(t *testing.T) {
	tb := Table2(api.Table2{Rows: []api.Table2Row{
		{Provider: geodata.ProviderATT, Moderate: 1200, High: 34, VeryHigh: 5, PctModerate: 1.5},
		{Provider: "Nobody", Moderate: 1},
	}})
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tb.Rows))
	}
	// AT&T carries the paper's Table 2 shares; an unknown provider
	// renders placeholders.
	requireCells(t, tb, "1,200", "1.50", "5.44", "2.87", "0.59")
	if got := tb.Rows[1][7:]; strings.Join(got, " ") != "- - -" {
		t.Errorf("unknown provider paper cells = %q", got)
	}
}

func TestTable3Rendering(t *testing.T) {
	tb := Table3(api.Table3{Rows: []api.Table3Row{
		{Radio: "LTE", VeryHigh: 1, High: 2, Moderate: 3, Total: 6},
		{Radio: "5G", Total: 1},
	}})
	requireCells(t, tb, "LTE", "228,418")
	if got := tb.Rows[1][5]; got != "-" {
		t.Errorf("unknown radio paper total = %q", got)
	}
}

func TestFig5Rendering(t *testing.T) {
	s := &dirs.Series{
		Labels:   []string{"Oct 25", "Oct 26"},
		Damage:   []int{1, 2},
		Power:    []int{3, 0},
		Backhaul: []int{0, 2},
	}
	tb := Fig5(s)
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d, want one per day", len(tb.Rows))
	}
	if got := strings.Join(tb.Rows[0], " "); got != "Oct 25 1 3 0 4 75.0%" {
		t.Errorf("day 0 = %q", got)
	}
}

func TestFig7Rendering(t *testing.T) {
	tb := Fig7(api.WHPOverlay{AtRisk: 60, ByClass: map[string]int{
		whp.Moderate.String(): 30, whp.High.String(): 20, whp.VeryHigh.String(): 10,
	}})
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d, want 3 classes and a total", len(tb.Rows))
	}
	requireCells(t, tb, "261,569", "26,307", "430,844")
	if got := tb.Rows[3][1]; got != "60" {
		t.Errorf("total at risk = %q, want 60", got)
	}
}

func TestFig8And9Rendering(t *testing.T) {
	byState := make([][3]int, len(geodata.States))
	byState[geodata.StateIndex("CA")] = [3]int{500, 40, 9}
	byState[geodata.StateIndex("WY")] = [3]int{700, 0, 0}
	res := &risk.WHPResult{ByState: byState}

	top := Fig8(res, 3)
	if len(top.Rows) != 3 {
		t.Fatalf("Fig8 rows = %d, want topN", len(top.Rows))
	}
	if got := strings.Join(top.Rows[0], " "); got != "1 WY 700 CA 40 CA 9" {
		t.Errorf("Fig8 rank 1 = %q", got)
	}
	if got := strings.Join(top.Rows[1], " "); got != "2 CA 500 - - - -" {
		t.Errorf("Fig8 rank 2 = %q", got)
	}

	perCapita := Fig9(res, 2)
	// Wyoming's small population puts it first per capita.
	if got := perCapita.Rows[0][1]; got != "WY" {
		t.Errorf("Fig9 rank 1 moderate = %q, want WY", got)
	}
	if got := perCapita.Rows[1][5]; got != "-" {
		t.Errorf("Fig9 rank 2 very high = %q, want -", got)
	}
}

func TestFig10Rendering(t *testing.T) {
	m := &risk.ImpactMatrix{
		Counts: [3][3]int{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}},
		Rural:  [3]int{10, 20, 30},
	}
	tb := Fig10(m)
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d, want 3 classes and a total", len(tb.Rows))
	}
	if got := strings.Join(tb.Rows[3], " "); got != "total 12 15 18 60" {
		t.Errorf("total row = %q", got)
	}
}

func TestFig12Rendering(t *testing.T) {
	tb := Fig12([]risk.MetroRow{
		{Metro: "San Diego", Moderate: 1, High: 2, VHigh: 3, VHVeryDense: 2},
		{Metro: "Nowhere"},
	})
	if got := strings.Join(tb.Rows[0], " "); got != "San Diego 1 2 3 6 2 1,082" {
		t.Errorf("San Diego row = %q", got)
	}
	if got := tb.Rows[1][6]; got != "-" {
		t.Errorf("unknown metro paper cell = %q", got)
	}
}

func TestFig14Rendering(t *testing.T) {
	tb := Fig14(&risk.FutureResult{Rows: []risk.FutureRow{{
		Ecoregion: "Wyoming Basin", DeltaPct: 150, Transceivers: 1234,
		AtRiskNow: 10, AtRiskFuture: 25, MeanHazardNow: 0.1, MeanHazardFuture: 0.25,
	}}})
	if got := strings.Join(tb.Rows[0], " "); got != "Wyoming Basin +150% 1,234 10 25 0.100 0.250" {
		t.Errorf("row = %q", got)
	}
}

func TestExtensionRendering(t *testing.T) {
	tb := Extension(api.Extend{
		DistM: 804.672, VHBefore: 10, VHAfter: 25,
		TotalAtRiskBefore: 100, TotalAtRiskAfter: 120,
		AccuracyBeforePct: 46, AccuracyAfterPct: 62.5,
	})
	if len(tb.Rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(tb.Rows))
	}
	requireCells(t, tb, "805", "176,275", "509,693", "62.5%", "62%")
}

func TestCaseStudyRendering(t *testing.T) {
	tb := CaseStudy(&risk.CaseStudyResult{
		Series:  &dirs.Series{Labels: []string{"Oct 27", "Oct 28"}},
		Sites:   2000,
		PeakDay: 1, PeakOut: 900, PeakPowerShare: 0.8,
		FinalOut: 100, FinalDamaged: 20, Counties: 30,
	})
	if len(tb.Rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(tb.Rows))
	}
	if got := strings.Join(tb.Rows[1], " "); got != "peak day Oct 28 Oct 28" {
		t.Errorf("peak day row = %q", got)
	}
	requireCells(t, tb, "2,000", "80.0%", "874", "37")
}

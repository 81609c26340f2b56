package risk

import "testing"

func TestEscapeProbabilities(t *testing.T) {
	rows := testAnalyzer.EscapeProbabilities(0)
	if len(rows) < 40 {
		t.Fatalf("states with escape estimates = %d", len(rows))
	}
	byState := map[string]StateEscape{}
	for i, r := range rows {
		byState[r.Abbrev] = r
		if r.Escape < 0 || r.Escape > 1 {
			t.Fatalf("escape out of range: %+v", r)
		}
		if i > 0 && rows[i].Escape > rows[i-1].Escape {
			t.Fatal("not sorted descending")
		}
	}
	// Heterogeneous hazard fields (the west) escape more than the flat
	// farm belt.
	if byState["CA"].Escape <= byState["IL"].Escape {
		t.Errorf("CA escape %.3f should exceed IL %.3f",
			byState["CA"].Escape, byState["IL"].Escape)
	}
	if byState["CA"].AtRiskTransceivers == 0 {
		t.Error("CA at-risk join missing")
	}
}

func TestEscapeThresholdMonotone(t *testing.T) {
	low := testAnalyzer.EscapeProbabilities(100)
	high := testAnalyzer.EscapeProbabilities(100000)
	lm := map[string]float64{}
	for _, r := range low {
		lm[r.Abbrev] = r.Escape
	}
	for _, r := range high {
		if r.Escape > lm[r.Abbrev]+1e-12 {
			t.Fatalf("%s: escape grew with threshold", r.Abbrev)
		}
	}
}

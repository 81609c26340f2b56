package risk

import "testing"

func TestWUIAnalysis(t *testing.T) {
	res := testAnalyzer.WUIAnalysis()
	if res.AtRiskTotal == 0 || res.AllTotal == 0 {
		t.Fatal("empty analysis")
	}
	if res.AtRiskInWUI == 0 {
		t.Fatal("no at-risk transceivers in the WUI")
	}
	if res.AtRiskInWUI > res.AtRiskTotal || res.AllInWUI > res.AllTotal {
		t.Fatal("counts inconsistent")
	}
	// §3.7's key finding: at-risk infrastructure is over-represented in
	// the WUI relative to the fleet at large.
	if c := res.Concentration(); c <= 1 {
		t.Errorf("WUI concentration = %.2f, want > 1", c)
	}
	if res.WUIPopulation <= 0 {
		t.Error("WUI population missing")
	}
	// The LA metro should carry WUI-exposed at-risk transceivers.
	if res.MetroWUI["Los Angeles"] == 0 {
		t.Error("no WUI at-risk transceivers in the LA window")
	}
}

func TestWUISharesOrdering(t *testing.T) {
	res := testAnalyzer.WUIAnalysis()
	if res.AtRiskWUIShare() < 0 || res.AtRiskWUIShare() > 1 {
		t.Error("share out of range")
	}
	if res.BaselineWUIShare() < 0 || res.BaselineWUIShare() > 1 {
		t.Error("baseline out of range")
	}
}

func BenchmarkWUIAnalysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = testAnalyzer.WUIAnalysis()
	}
}

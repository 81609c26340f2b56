package risk

import "testing"

func TestCoverage(t *testing.T) {
	res := testAnalyzer.Coverage(0)
	if res.TotalPopulation < 2.9e8 || res.TotalPopulation > 3.5e8 {
		t.Fatalf("total population = %.3g", res.TotalPopulation)
	}
	if res.ServedPopulation <= 0 || res.ServedPopulation > res.TotalPopulation*1.001 {
		t.Errorf("served = %.3g", res.ServedPopulation)
	}
	if res.AtRiskServedPopulation <= 0 {
		t.Fatal("no population served by at-risk transceivers")
	}
	if res.AtRiskServedPopulation > res.ServedPopulation {
		t.Error("at-risk-served cannot exceed served")
	}
	if res.StrandedPopulation > res.AtRiskServedPopulation {
		t.Error("stranded cannot exceed at-risk-served")
	}
	// The paper: 85M of ~327M (26%) live in areas served by at-risk
	// transceivers. The synthetic analog should be a sizeable minority.
	frac := res.AtRiskServedPopulation / res.TotalPopulation
	if frac < 0.02 || frac > 0.7 {
		t.Errorf("at-risk-served share = %.3f, want an intermediate share", frac)
	}
	// Redundancy needs a radius coarser than the test grid's 20 km cells
	// to be visible: with a 30 km serving radius most exposed population
	// has a surviving site in reach, so stranded < exposed.
	wide := testAnalyzer.Coverage(30000)
	if wide.StrandedPopulation >= wide.AtRiskServedPopulation {
		t.Errorf("redundancy should leave stranded (%.0f) below exposed (%.0f)",
			wide.StrandedPopulation, wide.AtRiskServedPopulation)
	}
}

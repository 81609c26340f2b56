package cellnet

import (
	"math"
	"testing"

	"fivealarms/internal/conus"
	"fivealarms/internal/geodata"
	"fivealarms/internal/geom"
)

var (
	testWorld = conus.Build(conus.Config{Seed: 7, CellSizeM: 20000})
	testData  = Generate(testWorld, GenConfig{Seed: 7, Total: 40000})
)

func TestRadioStrings(t *testing.T) {
	want := []string{"GSM", "CDMA", "UMTS", "LTE"}
	if len(Radios()) != len(want) {
		t.Fatalf("Radios() = %v, want %v", Radios(), want)
	}
	for i, r := range Radios() {
		if r.String() != want[i] {
			t.Errorf("Radio(%d).String() = %q, want %q", r, r.String(), want[i])
		}
	}
	if Radio(99).String() != "UNKNOWN" {
		t.Error("invalid radio string")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(testWorld, GenConfig{Seed: 9, Total: 5000})
	b := Generate(testWorld, GenConfig{Seed: 9, Total: 5000})
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.T {
		if a.T[i] != b.T[i] {
			t.Fatalf("record %d differs", i)
		}
	}
	c := Generate(testWorld, GenConfig{Seed: 10, Total: 5000})
	same := 0
	for i := 0; i < min(a.Len(), c.Len()); i++ {
		if a.T[i].XY == c.T[i].XY {
			same++
		}
	}
	if same > a.Len()/100 {
		t.Errorf("different seeds produced %d identical positions", same)
	}
}

func TestGenerateTotalApprox(t *testing.T) {
	// Per-state rounding loses at most one state's worth each.
	if testData.Len() < 39000 || testData.Len() > 40000 {
		t.Errorf("generated %d, want ~40000", testData.Len())
	}
}

func TestStateAllocationFollowsPopulation(t *testing.T) {
	counts := testData.CountByState()
	ca := counts[geodata.StateIndex("CA")]
	wy := counts[geodata.StateIndex("WY")]
	tx := counts[geodata.StateIndex("TX")]
	if ca <= tx {
		t.Errorf("CA (%d) should exceed TX (%d)", ca, tx)
	}
	if wy >= ca/20 {
		t.Errorf("WY (%d) should be far below CA (%d)", wy, ca)
	}
	// CA share should be near its population share (~12%).
	frac := float64(ca) / float64(testData.Len())
	if frac < 0.09 || frac > 0.16 {
		t.Errorf("CA share = %v, want ~0.12", frac)
	}
}

func TestPositionsInsideConus(t *testing.T) {
	outside := 0
	for i := range testData.T {
		if testData.T[i].StateIdx < 0 {
			outside++
		}
	}
	// Crowdsourced jitter may push a handful of points across the coarse
	// outline; the bulk must be inside.
	if frac := float64(outside) / float64(testData.Len()); frac > 0.02 {
		t.Errorf("outside fraction = %v", frac)
	}
}

func TestRadioMixMatchesTable3Shape(t *testing.T) {
	byRadio := map[Radio]int{}
	for i := range testData.T {
		byRadio[testData.T[i].Radio]++
	}
	lte, umts, cdma, gsm := byRadio[LTE], byRadio[UMTS], byRadio[CDMA], byRadio[GSM]
	if !(lte > umts && umts > cdma && cdma > gsm) {
		t.Errorf("radio ordering violated: LTE=%d UMTS=%d CDMA=%d GSM=%d", lte, umts, cdma, gsm)
	}
	lteFrac := float64(lte) / float64(testData.Len())
	if lteFrac < 0.45 || lteFrac < 0.3 {
		if lteFrac < 0.45 {
			t.Errorf("LTE share = %v, want > 0.45", lteFrac)
		}
	}
}

func TestProviderSharesMatchTable2Scale(t *testing.T) {
	r := NewResolver()
	byGroup := map[string]int{}
	for i := range testData.T {
		byGroup[r.ProviderGroup(&testData.T[i])]++
	}
	att := float64(byGroup[geodata.ProviderATT]) / float64(testData.Len())
	if math.Abs(att-0.349) > 0.03 {
		t.Errorf("AT&T share = %v, want ~0.349", att)
	}
	if byGroup[geodata.ProviderATT] <= byGroup[geodata.ProviderVerizon] {
		t.Error("AT&T fleet should exceed Verizon in the OpenCelliD snapshot")
	}
	if byGroup[geodata.ProviderOthersAg] == 0 {
		t.Error("regional providers missing")
	}
	if unknown := byGroup[geodata.ProviderUnknown]; unknown != 0 {
		t.Errorf("%d transceivers resolve to unknown provider", unknown)
	}
}

func TestManyDistinctRegionalProviders(t *testing.T) {
	r := NewResolver()
	providers := map[string]bool{}
	for i := range testData.T {
		providers[r.Provider(&testData.T[i])] = true
	}
	regional := 0
	for p := range providers {
		if !geodata.IsMajorProvider(p) {
			regional++
		}
	}
	// The paper footnotes 46 smaller providers with at-risk infrastructure.
	if regional < 30 {
		t.Errorf("distinct regional providers = %d, want >= 30", regional)
	}
}

func TestSitesGrouping(t *testing.T) {
	sites := testData.Sites()
	if sites == 0 {
		t.Fatal("no sites")
	}
	mean := float64(testData.Len()) / float64(sites)
	if mean < 2 || mean > 8 {
		t.Errorf("mean transceivers per site = %v, want ~4", mean)
	}
}

func TestUrbanClustering(t *testing.T) {
	// Density within 40 km of LA must far exceed density in rural Nevada.
	la := testWorld.ToXY(geom.Point{X: -118.2437, Y: 34.0522})
	rural := testWorld.ToXY(geom.Point{X: -117.0, Y: 41.0})
	nearLA := testData.Index.CountRadius(la, 40000)
	nearRural := testData.Index.CountRadius(rural, 40000)
	if nearLA < 20*nearRural+20 {
		t.Errorf("LA 40km count %d vs rural %d: urban clustering too weak", nearLA, nearRural)
	}
}

func TestCreatedUpdatedYears(t *testing.T) {
	for i := range testData.T {
		tr := &testData.T[i]
		if tr.Created < 2005 || tr.Created > 2019 {
			t.Fatalf("created year %d out of range", tr.Created)
		}
		if tr.Updated < tr.Created || tr.Updated > 2019 {
			t.Fatalf("updated %d before created %d", tr.Updated, tr.Created)
		}
	}
}

func TestResolver(t *testing.T) {
	r := NewResolver()
	tr := Transceiver{MCC: 310, MNC: 410}
	if got := r.Provider(&tr); got != geodata.ProviderATT {
		t.Errorf("provider = %q", got)
	}
	if got := r.ProviderGroup(&tr); got != geodata.ProviderATT {
		t.Errorf("group = %q", got)
	}
	reg := Transceiver{MCC: 311, MNC: 580}
	if got := r.ProviderGroup(&reg); got != geodata.ProviderOthersAg {
		t.Errorf("regional group = %q", got)
	}
	bad := Transceiver{MCC: 1, MNC: 1}
	if got := r.Provider(&bad); got != geodata.ProviderUnknown {
		t.Errorf("unknown = %q", got)
	}
	for _, tc := range []struct {
		mcc, mnc uint16
		want     string
	}{
		{310, 410, geodata.ProviderATT},
		{310, 260, geodata.ProviderTMobile},
		{310, 120, geodata.ProviderSprint},
		{311, 480, geodata.ProviderVerizon},
		{311, 580, "U.S. Cellular"},
		{999, 99, geodata.ProviderUnknown},
	} {
		tr := Transceiver{MCC: tc.mcc, MNC: tc.mnc}
		if got := r.Provider(&tr); got != tc.want {
			t.Errorf("Provider(%d,%d) = %q, want %q", tc.mcc, tc.mnc, got, tc.want)
		}
	}
}

func BenchmarkGenerate40k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Generate(testWorld, GenConfig{Seed: 1, Total: 40000})
	}
}

var dataSink *Dataset

// BenchmarkGenerate500k generates a 500k-row snapshot over the 2.7 km
// world, built once: the cellnet task of a fleet-scale study.
func BenchmarkGenerate500k(b *testing.B) {
	w := conus.Build(conus.Config{Seed: 7, CellSizeM: 2700})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dataSink = Generate(w, GenConfig{Seed: 1, Total: 500000})
	}
}

func BenchmarkResolver(b *testing.B) {
	r := NewResolver()
	tr := Transceiver{MCC: 310, MNC: 410}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.ProviderGroup(&tr)
	}
}

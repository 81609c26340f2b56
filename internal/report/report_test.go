package report

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"fivealarms/internal/risk"
	"fivealarms/internal/serve/api"
)

func TestTableString(t *testing.T) {
	tb := &Table{Title: "T", Header: []string{"name", "value"}}
	tb.AddRow("alpha", "1")
	tb.AddRow("bb", "22,000")
	s := tb.String()
	if !strings.Contains(s, "T\n=\n") {
		t.Errorf("title not rendered: %q", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 6 {
		t.Fatalf("lines = %d: %q", len(lines), s)
	}
	// Numeric cells right-align: "22,000" wider than header "value".
	if !strings.HasSuffix(lines[4], "     1") {
		t.Errorf("numeric right-alignment missing: %q", lines[4])
	}
}

func TestTableCSVAndJSON(t *testing.T) {
	tb := &Table{Header: []string{"a", "b"}}
	tb.AddRow("x", "1")
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "a,b\nx,1\n" {
		t.Errorf("CSV = %q", got)
	}
	buf.Reset()
	if err := tb.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out []map[string]string
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0]["a"] != "x" || out[0]["b"] != "1" {
		t.Errorf("JSON = %v", out)
	}
}

func TestItoa(t *testing.T) {
	tests := []struct {
		n    int
		want string
	}{
		{0, "0"}, {7, "7"}, {999, "999"}, {1000, "1,000"},
		{5364949, "5,364,949"}, {-1234, "-1,234"},
	}
	for _, tc := range tests {
		if got := Itoa(tc.n); got != tc.want {
			t.Errorf("Itoa(%d) = %q, want %q", tc.n, got, tc.want)
		}
	}
}

func TestFormatHelpers(t *testing.T) {
	if F1(1.25) != "1.2" && F1(1.25) != "1.3" {
		t.Errorf("F1 = %q", F1(1.25))
	}
	if F2(3.14159) != "3.14" {
		t.Errorf("F2 = %q", F2(3.14159))
	}
	if Pct(46.2) != "46.2%" {
		t.Errorf("Pct = %q", Pct(46.2))
	}
}

func TestLooksNumeric(t *testing.T) {
	for _, s := range []string{"123", "1,234", "-5.2", "46.2%", "3.4x"} {
		if !looksNumeric(s) {
			t.Errorf("%q should look numeric", s)
		}
	}
	for _, s := range []string{"", "CA", "Oct 28", "12a"} {
		if looksNumeric(s) {
			t.Errorf("%q should not look numeric", s)
		}
	}
}

func TestBarChart(t *testing.T) {
	s := BarChart("outages", []string{"Oct 25", "Oct 26"}, []int{5, 10}, 20)
	if !strings.Contains(s, "outages") {
		t.Error("title missing")
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	if strings.Count(lines[2], "#") != 20 {
		t.Errorf("max bar should be 20 wide: %q", lines[2])
	}
	if strings.Count(lines[1], "#") != 10 {
		t.Errorf("half bar should be 10 wide: %q", lines[1])
	}
}

func TestBarChartZeroValues(t *testing.T) {
	s := BarChart("", []string{"a"}, []int{0}, 10)
	if strings.Contains(s, "#") {
		t.Error("zero value should have no bar")
	}
}

func TestTable1Rendering(t *testing.T) {
	// HistoricalOverlay produces oldest-first; Table1 prints newest-first.
	rows := api.Table1From([]risk.YearOverlay{
		{Year: 2017, Fires: 71499, AcresBurned: 10.026e6, TransceiversIn: 10, PerMillionAcres: 1.0},
		{Year: 2018, Fires: 58083, AcresBurned: 8.767e6, TransceiversIn: 42, PerMillionAcres: 4.8},
	})
	s := Table1(rows).String()
	if !strings.Contains(s, "2018") || !strings.Contains(s, "58,083") {
		t.Errorf("Table1 missing data: %s", s)
	}
	// Paper comparison column present (2018 paper value 3,099).
	if !strings.Contains(s, "3,099") {
		t.Errorf("Table1 missing paper reference: %s", s)
	}
	// Newest year first.
	if strings.Index(s, "2018") > strings.Index(s, "2017") {
		t.Error("years not newest-first")
	}
}

func TestValidationRendering(t *testing.T) {
	v := api.ValidationFrom(&risk.ValidationResult{InPerimeter: 100, Predicted: 46, MissesInRoadFires: 40, RoadFireTotal: 50})
	s := Validation(v).String()
	if !strings.Contains(s, "46.0%") {
		t.Errorf("accuracy missing: %s", s)
	}
	if !strings.Contains(s, "656") {
		t.Errorf("paper reference missing: %s", s)
	}
}

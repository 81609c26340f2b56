package cli

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"fivealarms"
)

// cliStudy is a minimal study: the CLI tests exercise dispatch and
// rendering, not statistical shape.
var cliStudy = mustStudy(fivealarms.Config{
	Seed: 7, CellSizeM: 40000, Transceivers: 10000, MappedFiresPerSeason: 5,
})

// mustStudy builds a fixture study through the validating constructor.
// Fixture configurations are valid by construction, so an error means
// a broken test setup and panics at package initialization.
func mustStudy(cfg fivealarms.Config) *fivealarms.Study {
	s, err := fivealarms.NewStudyWithOptions(fivealarms.WithConfig(cfg))
	if err != nil {
		panic(err)
	}
	return s
}

func TestRunEveryExperiment(t *testing.T) {
	for _, exp := range Experiments {
		tables, err := Run(cliStudy, exp)
		if err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
		if len(tables) == 0 {
			t.Fatalf("%s: no tables", exp)
		}
		for _, tb := range tables {
			if tb.Title == "" {
				t.Errorf("%s: table missing title", exp)
			}
			if len(tb.Rows) == 0 {
				t.Errorf("%s: table %q has no rows", exp, tb.Title)
			}
		}
	}
}

func TestRunAliases(t *testing.T) {
	a, err := Run(cliStudy, "casestudy")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cliStudy, "FIG5")
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Error("casestudy and fig5 should be equivalent")
	}
}

func TestRunAll(t *testing.T) {
	tables, err := Run(cliStudy, "all")
	if err != nil {
		t.Fatal(err)
	}
	// "all" includes fig5 which emits two tables.
	if len(tables) < len(Experiments) {
		t.Errorf("all produced %d tables, want >= %d", len(tables), len(Experiments))
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run(cliStudy, "fig99"); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestEmitFormats(t *testing.T) {
	tables, err := Run(cliStudy, "fig7")
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]

	var buf bytes.Buffer
	if err := Emit(&buf, tb, "text"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "moderate") {
		t.Error("text output missing data")
	}

	buf.Reset()
	if err := Emit(&buf, tb, "csv"); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines < 4 {
		t.Errorf("csv lines = %d", lines)
	}

	buf.Reset()
	if err := Emit(&buf, tb, "json"); err != nil {
		t.Fatal(err)
	}
	var arr []map[string]string
	if err := json.Unmarshal(buf.Bytes(), &arr); err != nil {
		t.Fatalf("json output invalid: %v", err)
	}

	if err := Emit(&buf, tb, "xml"); err == nil {
		t.Error("unknown format should error")
	}
}

func TestUsageListsEverything(t *testing.T) {
	u := Usage()
	for _, exp := range Experiments {
		if !strings.Contains(u, exp) {
			t.Errorf("usage missing %s", exp)
		}
	}
	if !strings.Contains(u, "all") {
		t.Error("usage missing all")
	}
}

func TestDescriptionsComplete(t *testing.T) {
	for _, exp := range Experiments {
		if Descriptions[exp] == "" {
			t.Errorf("no description for %s", exp)
		}
	}
}

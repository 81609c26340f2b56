package api_test

// Golden-fixture tests for the v1 wire contract: every response DTO is
// rendered from a seed-42 study and compared byte for byte against
// testdata/*.golden.json. The fixtures ARE the contract — a diff here
// means the wire format changed, which under the v1 compatibility
// policy is only allowed for additive fields (regenerate deliberately
// with `go test ./internal/serve/api -run Golden -update`).
//
// The same DTOs are rendered from a study built at GOMAXPROCS=4 and one
// built at GOMAXPROCS=1 (the serial schedule) and must be bit-identical,
// extending the repo's schedule-independence contract across the wire
// format.

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"fivealarms"
	"fivealarms/internal/faults"
	"fivealarms/internal/serve/api"
)

var update = flag.Bool("update", false, "rewrite the golden fixtures")

// goldenCfg is the fixture scale: fast enough for CI (<100 ms build),
// rich enough that every DTO has non-trivial content — at this scale
// the 2019 validation season actually catches transceivers, so the
// validate fixture pins non-zero accuracy math.
var goldenCfg = fivealarms.Config{
	Seed: 42, CellSizeM: 30000, Transceivers: 20000, MappedFiresPerSeason: 12,
}

var (
	studyOnce            sync.Once
	studyParallel        *fivealarms.Study
	studySerial          *fivealarms.Study
	studyErrP, studyErrS error
)

// goldenStudies builds the fixture study twice, at GOMAXPROCS=4 and at
// GOMAXPROCS=1. Each study's derived layers compute lazily, so dtos
// renders each one under the GOMAXPROCS it was built with.
func goldenStudies(t *testing.T) (*fivealarms.Study, *fivealarms.Study) {
	t.Helper()
	studyOnce.Do(func() {
		faults.WithGOMAXPROCS(4, func() {
			studyParallel, studyErrP = fivealarms.NewStudyWithOptions(fivealarms.WithConfig(goldenCfg))
		})
		faults.WithGOMAXPROCS(1, func() {
			studySerial, studyErrS = fivealarms.NewStudyWithOptions(fivealarms.WithConfig(goldenCfg))
		})
	})
	if studyErrP != nil || studyErrS != nil {
		t.Fatalf("building golden studies: parallel=%v serial=%v", studyErrP, studyErrS)
	}
	return studyParallel, studySerial
}

// encode renders a DTO exactly as the server does: two-space indent,
// trailing newline.
func encode(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatalf("encoding %T: %v", v, err)
	}
	return append(b, '\n')
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden.json")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from its golden fixture.\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

// dtos builds every study-derived v1 response body from one study.
func dtos(s *fivealarms.Study) map[string][]byte {
	out := map[string]any{
		"table1":      api.Table1From(s.Table1()),
		"table2":      api.Table2From(s.Table2()),
		"table3":      api.Table3From(s.Table3()),
		"overlay_whp": api.WHPOverlayFrom(s.WHPOverlay()),
		"validate":    api.ValidationFrom(s.Validate()),
		"extend":      api.ExtendFrom(s.ExtendWith(fivealarms.ExtendOptions{})),
		"extend_fine": api.ExtendFrom(s.ExtendWith(fivealarms.ExtendOptions{CellSizeM: 800})),
	}
	enc := make(map[string][]byte, len(out))
	for name, v := range out {
		b, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			panic(err)
		}
		enc[name] = append(b, '\n')
	}
	return enc
}

func TestGoldenResponses(t *testing.T) {
	parallel, serial := goldenStudies(t)
	var p, s map[string][]byte
	faults.WithGOMAXPROCS(4, func() { p = dtos(parallel) })
	faults.WithGOMAXPROCS(1, func() { s = dtos(serial) })
	for name, body := range p {
		checkGolden(t, name, body)
		if !bytes.Equal(body, s[name]) {
			t.Errorf("%s differs between parallel and serial schedules:\nparallel:\n%s\nserial:\n%s",
				name, body, s[name])
		}
	}
}

// TestGoldenStatic pins the study-independent bodies: health, error
// and the empty-metrics shape.
func TestGoldenStatic(t *testing.T) {
	checkGolden(t, "health", encode(t, api.Health{
		Meta: api.NewMeta(), Status: "ok", StudiesCached: 1, DefaultSeed: 42,
	}))
	checkGolden(t, "error", encode(t, api.Error{
		Meta: api.NewMeta(), Status: 400, Message: "lon: want a finite number, got \"x\"",
	}))
	checkGolden(t, "metrics", encode(t, api.Metrics{
		Meta: api.NewMeta(),
		Endpoints: []api.EndpointMetrics{
			{Endpoint: "healthz", Requests: 2, Errors: 0, P50Ms: 0.05, P99Ms: 0.1},
			{Endpoint: "risk_point", Requests: 0, Errors: 0, P50Ms: -1, P99Ms: -1},
		},
	}))
}

func TestVersionStamp(t *testing.T) {
	if api.Version != "v1" {
		t.Fatalf("Version = %q; bumping it is a breaking change — add a new version alongside instead", api.Version)
	}
	body := encode(t, api.Table1From(nil))
	var m struct {
		Version string `json:"version"`
	}
	if err := json.Unmarshal(body, &m); err != nil || m.Version != "v1" {
		t.Errorf("every DTO must carry the version stamp, got %s (err %v)", body, err)
	}
}

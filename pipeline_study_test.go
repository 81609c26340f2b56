package fivealarms

// Tests for the parallel study pipeline: a study built at GOMAXPROCS=1
// must be bit-identical to one built at GOMAXPROCS=4, the memoized
// accessors must compute each derived layer exactly once, and a Study
// must survive many goroutines running every analysis concurrently (run
// under `go test -race` / `make race`).

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"fivealarms/internal/cellnet"
	"fivealarms/internal/faults"
	"fivealarms/internal/powergrid"
	"fivealarms/internal/risk"
)

// stressCfg is small enough that the -race stress test stays fast.
var stressCfg = Config{Seed: 7, CellSizeM: 40000, Transceivers: 5000, MappedFiresPerSeason: 4}

// schedules are the GOMAXPROCS settings every schedule twin compares:
// 1, where the build graph, the season fan-outs and the raster kernels
// all run serially, and 4, where they fan out.
var schedules = []int{1, 4}

// fingerprintsAt builds the stress-scale study with opts at
// GOMAXPROCS=procs and fingerprints its analyses under the same
// setting (the derived layers compute lazily, on first use).
func fingerprintsAt(t *testing.T, procs int, opts ...Option) (fp map[string]string) {
	t.Helper()
	faults.WithGOMAXPROCS(procs, func() {
		s, err := NewStudyWithOptions(append([]Option{WithConfig(stressCfg)}, opts...)...)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d build: %v", procs, err)
		}
		fp = analysisFingerprints(s)
	})
	return fp
}

// analysisFingerprints serializes the headline analyses into strings;
// two studies with the same configuration must agree byte for byte.
// JSON over the raw risk results (maps marshal key-sorted, pointers
// dereference) is stricter than rendered tables: every exported field
// participates, not just the printed columns.
func analysisFingerprints(s *Study) map[string]string {
	return map[string]string{
		"table1":   asJSON(s.Table1()),
		"table2":   asJSON(s.Table2()),
		"table3":   asJSON(s.Table3()),
		"fig7":     asJSON(s.WHPOverlay()),
		"validate": asJSON(s.Validate()),
		"extend":   asJSON(s.ExtendWith(ExtendOptions{}).Coarse),
		"fig14":    asJSON(s.Future()),
		"casestudy": fmt.Sprintf("peak=%d out=%d powershare=%.6f",
			s.CaseStudy().PeakDay, s.CaseStudy().PeakOut, s.CaseStudy().PeakPowerShare),
		"mask": fmt.Sprintf("hist=%d s2019=%d",
			s.HistoryUnionMask().Count(), s.Season2019UnionMask().Count()),
		"emergency": asJSON(s.Emergency()),
		"harden":    asJSON(s.Harden(15)),
		"coverage":  asJSON(s.Coverage(0)),
		"wui":       asJSON(s.WUI()),
		"mitigation": asJSON(s.Analyzer.MitigationSweep(s.Season2019(),
			[]float64{4, 8, 24, 48, 72}, s.Cfg.Seed)),
	}
}

// asJSON marshals an analysis result for fingerprint comparison.
// Marshaling these fully-exported result structs cannot fail; a panic
// here means a result type grew an unmarshalable field.
func asJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// TestSerialPipelineIdentical is the schedule twin: a Study built and
// analysed at GOMAXPROCS=1, where every stage runs serially, produces
// byte-identical analysis rows to one built at GOMAXPROCS=4, both with
// one band and with three.
func TestSerialPipelineIdentical(t *testing.T) {
	for _, shards := range []int{0, 3} {
		serial := fingerprintsAt(t, schedules[0], WithShards(shards))
		parallel := fingerprintsAt(t, schedules[1], WithShards(shards))
		for name, want := range serial {
			if got := parallel[name]; got != want {
				t.Errorf("shards=%d: %s differs between GOMAXPROCS=1 and 4:\nserial:\n%s\nparallel:\n%s", shards, name, want, got)
			}
		}
	}
}

// TestMemoizedAccessors asserts the warm-path contract: repeated calls
// return the first call's result without recomputation (pointer
// identity), so a second Table1/Validate/CaseStudy triggers zero new
// fire-season simulations.
func TestMemoizedAccessors(t *testing.T) {
	s := mustStudy(stressCfg)
	h1, h2 := s.History(), s.History()
	if len(h1) == 0 || &h1[0] != &h2[0] {
		t.Error("History not memoized")
	}
	if s.Season2019() != s.Season2019() {
		t.Error("Season2019 not memoized")
	}
	if s.Corridor() != s.Corridor() {
		t.Error("Corridor not memoized")
	}
	if s.WHPOverlay() != s.WHPOverlay() {
		t.Error("WHPOverlay not memoized")
	}
	if s.HistoryUnionMask() != s.HistoryUnionMask() {
		t.Error("HistoryUnionMask not memoized")
	}
	if s.Season2019UnionMask() != s.Season2019UnionMask() {
		t.Error("Season2019UnionMask not memoized")
	}
	coarse := func(d float64) *risk.ExtensionResult { return s.ExtendWith(ExtendOptions{DistM: d}).Coarse }
	d := 2.5 * s.World.Grid.CellSize
	if coarse(d) != coarse(d) {
		t.Error("coarse extension not memoized per distance")
	}
	if coarse(d) == coarse(2*d) {
		t.Error("coarse extension conflates distinct distances")
	}
	fine := ExtendOptions{CellSizeM: 800}
	if s.ExtendWith(fine).Window != s.ExtendWith(fine).Window {
		t.Error("fine extension not memoized per parameter pair")
	}
	// The PSPS analyses share one network topology per seed, whatever
	// their battery means, and the surface analyses one population grid.
	s.CaseStudy()
	s.Analyzer.MitigationSweep(s.Season2019(), []float64{4, 72}, s.Cfg.Seed)
	s.Emergency()
	short := s.Analyzer.CaliforniaNetwork(powergrid.NetConfig{Seed: s.Cfg.Seed})
	long := s.Analyzer.CaliforniaNetwork(powergrid.NetConfig{Seed: s.Cfg.Seed, MeanBatteryHours: 72})
	if len(short.Substations) == 0 || &short.Substations[0] != &long.Substations[0] {
		t.Error("California network topology not shared across battery means")
	}
	if s.Analyzer.Population() != s.Analyzer.Population() {
		t.Error("population surface not memoized")
	}
}

// TestConcurrentAnalysesIdentical is the -race stress test: at
// GOMAXPROCS=4, N goroutines run every analysis concurrently on one
// freshly built Study and each must observe exactly the results of the
// GOMAXPROCS=1 reference.
func TestConcurrentAnalysesIdentical(t *testing.T) {
	want := fingerprintsAt(t, schedules[0])

	const goroutines = 8
	errs := make(chan string, goroutines*len(want))
	faults.WithGOMAXPROCS(schedules[1], func() {
		s := mustStudy(stressCfg)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				got := analysisFingerprints(s)
				for name, w := range want {
					if got[name] != w {
						errs <- fmt.Sprintf("goroutine %d: %s diverged under concurrency", g, name)
					}
				}
			}(g)
		}
		wg.Wait()
	})
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

func TestConfigValidate(t *testing.T) {
	valid := []Config{
		{},
		{Seed: 9},
		{CellSizeM: 2700, Transceivers: 100000, MappedFiresPerSeason: 50},
		PaperScale(3),
		{Transceivers: cellnet.MaxRows}, // the largest snapshot ReadSnapshot accepts
	}
	for i, c := range valid {
		if err := c.Validate(); err != nil {
			t.Errorf("valid config %d rejected: %v", i, err)
		}
	}
	invalid := []Config{
		{CellSizeM: math.NaN()},
		{CellSizeM: math.Inf(1)},
		{CellSizeM: -10},
		{CellSizeM: 1},    // absurdly fine national raster
		{CellSizeM: 1e12}, // coarser than the continent
		{Transceivers: -1},
		{Transceivers: 2_000_000_000},
		{Transceivers: cellnet.MaxRows + 1}, // would save a snapshot no reader loads
		{MappedFiresPerSeason: -5},
		{MappedFiresPerSeason: 10_000_000},
	}
	for i, c := range invalid {
		if err := c.Validate(); err == nil {
			t.Errorf("invalid config %d accepted: %+v", i, c)
		}
	}
}

// TestConfigValidateMultiError asserts that Validate reports every
// offending field at once (errors.Join), not just the first one, and
// that each violation stays individually addressable with errors.Is
// over the joined tree.
func TestConfigValidateMultiError(t *testing.T) {
	c := Config{CellSizeM: -10, Transceivers: -1, MappedFiresPerSeason: -5}
	err := c.Validate()
	if err == nil {
		t.Fatal("three-violation config accepted")
	}
	joined, ok := err.(interface{ Unwrap() []error })
	if !ok {
		t.Fatalf("Validate error does not unwrap to a list: %T", err)
	}
	if n := len(joined.Unwrap()); n != 3 {
		t.Fatalf("violations reported = %d, want 3: %v", n, err)
	}
	for _, want := range []string{"CellSizeM", "Transceivers", "MappedFiresPerSeason"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error does not mention %s: %v", want, err)
		}
	}

	// A single violation still reads as one plain error.
	one := Config{Transceivers: -1}
	if err := one.Validate(); err == nil || strings.Contains(err.Error(), "\n") {
		t.Errorf("single violation should yield one line, got %v", err)
	}
}

// TestWithPaperScale asserts the whole-config option semantics: it
// replaces everything (like WithConfig), and later field options
// shrink it back down to a buildable test scale.
func TestWithPaperScale(t *testing.T) {
	// Option-composition check without a build: the assembled config is
	// paper scale except the overridden fields.
	var cfg Config
	for _, opt := range []Option{
		WithSeed(99), // overwritten by the whole-config option
		WithPaperScale(3),
		WithTransceivers(5000),
		WithCellSizeM(40000),
		WithFiresPerSeason(4),
	} {
		opt(&cfg)
	}
	want := PaperScale(3)
	want.Transceivers = 5000
	want.CellSizeM = 40000
	want.MappedFiresPerSeason = 4
	if cfg != want {
		t.Fatalf("assembled config = %+v, want %+v", cfg, want)
	}
	if cfg.Seed != 3 {
		t.Errorf("WithPaperScale should carry its own seed, got %d", cfg.Seed)
	}

	// The same option list builds a real (cheap) study.
	s, err := NewStudyWithOptions(WithPaperScale(3),
		WithTransceivers(5000), WithCellSizeM(40000), WithFiresPerSeason(4))
	if err != nil {
		t.Fatal(err)
	}
	if s.Cfg != want {
		t.Errorf("built Cfg = %+v, want %+v", s.Cfg, want)
	}
}

func TestNewStudyWithOptions(t *testing.T) {
	s, err := NewStudyWithOptions(
		WithSeed(11),
		WithCellSizeM(40000),
		WithTransceivers(5000),
		WithFiresPerSeason(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	want := Config{Seed: 11, CellSizeM: 40000, Transceivers: 5000, MappedFiresPerSeason: 4}
	if s.Cfg != want {
		t.Errorf("Cfg = %+v, want %+v", s.Cfg, want)
	}

	if _, err := NewStudyWithOptions(WithCellSizeM(-1)); err == nil {
		t.Error("negative CellSizeM accepted")
	}
	if _, err := NewStudyWithOptions(WithTransceivers(-7)); err == nil {
		t.Error("negative Transceivers accepted")
	}

	// WithConfig seeds the whole struct; later options override fields.
	s2, err := NewStudyWithOptions(WithConfig(want), WithSeed(12), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	if s2.Cfg.Seed != 12 || s2.Cfg.Shards != 2 || s2.Cfg.CellSizeM != 40000 {
		t.Errorf("option composition: %+v", s2.Cfg)
	}
}

func TestExtendWithSelectionRule(t *testing.T) {
	s := mustStudy(stressCfg)

	coarse := s.ExtendWith(ExtendOptions{})
	if coarse.Fine || coarse.Coarse == nil || coarse.Window != nil {
		t.Fatalf("zero options should take the coarse path: %+v", coarse)
	}
	// Default coarse buffer: max(half mile, one cell) = one 40 km cell.
	if coarse.DistM != s.World.Grid.CellSize {
		t.Errorf("coarse DistM = %v, want one cell (%v)", coarse.DistM, s.World.Grid.CellSize)
	}

	fine := s.ExtendWith(ExtendOptions{CellSizeM: 800})
	if !fine.Fine || fine.Window == nil || fine.Coarse != nil {
		t.Fatalf("sub-raster CellSizeM should take the fine path: %+v", fine)
	}
	// The fine default buffer is the exact half mile (0.5 x 1609.344 m).
	if fine.CellSizeM != 800 || fine.DistM != 804.672 {
		t.Errorf("fine resolved params = (%v, %v)", fine.CellSizeM, fine.DistM)
	}

	// A requested cell at or above the national raster stays coarse.
	if r := s.ExtendWith(ExtendOptions{CellSizeM: s.World.Grid.CellSize}); r.Fine {
		t.Error("CellSizeM == national raster should stay coarse")
	}

	// An explicit distance equal to the resolved default shares its memo.
	if coarse.Coarse != s.ExtendWith(ExtendOptions{DistM: coarse.DistM}).Coarse {
		t.Error("explicit default distance does not share the coarse memo")
	}
	if fine.Window != s.ExtendWith(ExtendOptions{CellSizeM: 800}).Window {
		t.Error("repeated fine call does not share the fine memo")
	}
}

// Package fivealarms reproduces "Five Alarms: Assessing the Vulnerability
// of US Cellular Communication Infrastructure to Wildfires" (Anderson,
// Barford & Barford, IMC 2020) as a self-contained Go library.
//
// The package builds a deterministic synthetic analog of the paper's three
// data layers — an OpenCelliD-style transceiver database, a GeoMAC-style
// historical fire catalog produced by a fire-spread simulator, and a USFS
// Wildfire-Hazard-Potential-style raster — over a shared "digital CONUS"
// (real city locations, state geography and provider identities; synthetic
// geometry). It then runs the paper's overlay analyses: the historical
// perimeter join (Table 1), the provider and radio-technology breakdowns
// (Tables 2-3), the WHP exposure and per-capita rankings (Figures 6-9),
// the population-impact and metro analyses (Figures 10-13), the 2019
// hold-out validation and half-mile extension (§3.4, §3.8), the
// fall-2019 PSPS case study (Figure 5), and the ecoregion future-risk
// projection (Figures 14-15).
//
// # Quick start
//
//	study, err := fivealarms.NewStudyWithOptions(fivealarms.WithSeed(42))
//	if err != nil { ... }
//	overlay := study.WHPOverlay()
//	fmt.Println(overlay.AtRisk(), "transceivers in moderate+ hazard")
//
// Everything is deterministic in Config: identical configurations produce
// identical worlds, datasets, fires and results at any GOMAXPROCS.
//
// # Concurrency
//
// GOMAXPROCS is the only parallelism setting: the layer pipeline, the
// season simulations and joins, and the banded raster kernels each fan
// out to at most GOMAXPROCS goroutines, all joined before the call that
// started them returns.
//
// A Study is safe for concurrent use: any number of goroutines may run
// any mix of analysis methods on one Study at the same time. The
// expensive derived products — the simulated fire seasons, the
// SLC-Denver corridor, the WHP overlay, the perimeter union masks, the
// band pass behind Table 1 and the validation, the extension
// experiments — are computed once per Study on first use
// (singleflight) and shared by every caller; see the README's
// "Performance & concurrency" section for the cold/warm cost model.
package fivealarms

import (
	"context"
	"errors"
	"fmt"
	"math"

	"fivealarms/internal/cellnet"
	"fivealarms/internal/census"
	"fivealarms/internal/conus"
	"fivealarms/internal/ecoregion"
	"fivealarms/internal/pipeline"
	"fivealarms/internal/powergrid"
	"fivealarms/internal/raster"
	"fivealarms/internal/risk"
	"fivealarms/internal/whp"
	"fivealarms/internal/wildfire"
)

// Config sizes and seeds a study. The zero value is a usable
// laptop-scale configuration; Full-scale reproduction settings are
// documented per field.
type Config struct {
	// Seed drives every stochastic choice. Defaults to 1.
	Seed uint64
	// CellSizeM is the world raster resolution in meters. Defaults to
	// 10_000 (10 km). The USFS WHP ships at 270 m; 2_700 is a practical
	// full-scale setting.
	CellSizeM float64
	// Transceivers is the synthetic OpenCelliD snapshot size. Defaults to
	// 150_000. The real snapshot has 5,364,949.
	Transceivers int
	// MappedFiresPerSeason bounds fire-simulation cost. Defaults to 40.
	MappedFiresPerSeason int
	// Shards is the number of CONUS row bands the band pass splits the
	// fleet into for the products that join simulated perimeters
	// against it (Table 1 and the hold-out validation): each band joins
	// its own rows in a pipeline task and the partial counts merge in
	// band order. Every band joins the Study's own Analyzer in place
	// and copies nothing. Results are bit-identical at any band count
	// (see DESIGN.md §10). 0 or 1 (the default) is one band.
	Shards int
	// SnapshotPath, when non-empty, warm-loads the transceiver layer
	// from a columnar snapshot file (cellnet's "FA5C" format, written by
	// Study.WriteSnapshot or `fivealarms -save-snapshot`) instead of
	// generating it. The snapshot stores projected positions bit-for-
	// bit, so a warm load of a snapshot written from the same Config is
	// bit-identical to the cold build it replaces. Transceivers is
	// ignored for sizing when a snapshot loads (the file's row count
	// wins).
	SnapshotPath string

	// ctx, when set via WithContext, governs cancellation of the layer
	// build. It is consulted only during NewStudyWithOptions and never
	// retained by the returned Study.
	ctx context.Context
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.CellSizeM <= 0 {
		c.CellSizeM = 10000
	}
	if c.Transceivers <= 0 {
		c.Transceivers = 150000
	}
	if c.MappedFiresPerSeason <= 0 {
		c.MappedFiresPerSeason = 40
	}
	return c
}

// Validation bounds: a national raster finer than minCellSizeM exhausts
// memory (the CONUS window is ~4.6M x 2.9M meters), one coarser than
// maxCellSizeM degenerates below state scale. Transceivers is capped at
// cellnet.MaxRows, the largest snapshot the reader accepts, so every
// Study that builds can be saved with WriteSnapshot and loaded again.
const (
	minCellSizeM   = 100
	maxCellSizeM   = 1e6
	maxMappedFires = 100_000
	maxShards      = 4096
)

// Validate rejects configurations that withDefaults would otherwise
// accept silently: NaN/Inf or negative dimensions, and absurd sizes that
// would exhaust memory or degenerate the analysis. Zero values are valid
// (they select the documented defaults). Every offending field is
// reported — the returned error joins one error per violation
// (errors.Join), so a caller fixing a rejected configuration sees the
// whole list at once instead of one field per attempt.
// NewStudyWithOptions and the command-line binaries surface these
// errors.
func (c Config) Validate() error {
	var errs []error
	switch {
	case math.IsNaN(c.CellSizeM) || math.IsInf(c.CellSizeM, 0):
		errs = append(errs, fmt.Errorf("fivealarms: CellSizeM must be finite, got %v", c.CellSizeM))
	case c.CellSizeM < 0:
		errs = append(errs, fmt.Errorf("fivealarms: CellSizeM must be >= 0, got %v", c.CellSizeM))
	case c.CellSizeM > 0 && c.CellSizeM < minCellSizeM:
		errs = append(errs, fmt.Errorf("fivealarms: CellSizeM %v below the %v m national-raster minimum (use ExtendWith / metro windows for finer analysis)", c.CellSizeM, float64(minCellSizeM)))
	case c.CellSizeM > maxCellSizeM:
		errs = append(errs, fmt.Errorf("fivealarms: CellSizeM %v above the %v m maximum", c.CellSizeM, float64(maxCellSizeM)))
	}
	switch {
	case c.Transceivers < 0:
		errs = append(errs, fmt.Errorf("fivealarms: Transceivers must be >= 0, got %d", c.Transceivers))
	case c.Transceivers > cellnet.MaxRows:
		errs = append(errs, fmt.Errorf("fivealarms: Transceivers %d above the %d maximum", c.Transceivers, cellnet.MaxRows))
	}
	switch {
	case c.MappedFiresPerSeason < 0:
		errs = append(errs, fmt.Errorf("fivealarms: MappedFiresPerSeason must be >= 0, got %d", c.MappedFiresPerSeason))
	case c.MappedFiresPerSeason > maxMappedFires:
		errs = append(errs, fmt.Errorf("fivealarms: MappedFiresPerSeason %d above the %d maximum", c.MappedFiresPerSeason, maxMappedFires))
	}
	switch {
	case c.Shards < 0:
		errs = append(errs, fmt.Errorf("fivealarms: Shards must be >= 0, got %d", c.Shards))
	case c.Shards > maxShards:
		errs = append(errs, fmt.Errorf("fivealarms: Shards %d above the %d maximum", c.Shards, maxShards))
	}
	return errors.Join(errs...)
}

// PaperScale returns the configuration approximating the paper's actual
// data volumes: a 5.36M-transceiver snapshot on a 2.7 km national raster.
// Expect several GB of memory and minutes of generation time.
func PaperScale(seed uint64) Config {
	return Config{
		Seed:                 seed,
		CellSizeM:            2700,
		Transceivers:         5364949,
		MappedFiresPerSeason: 400,
	}
}

// Study bundles the generated world, data layers and the risk engine.
//
// A Study is safe for concurrent use by multiple goroutines and must not
// be copied after creation. The derived-layer accessors (History,
// Season2019, Corridor, WHPOverlay, the union masks, Table1, Validate,
// ExtendWith) memoize their results: the first caller computes,
// concurrent callers during that computation block and share it, and
// every later call is a cache hit.
type Study struct {
	Cfg      Config
	World    *conus.World
	WHP      *whp.Map
	Data     *cellnet.Dataset
	Counties *census.Counties
	Analyzer *risk.Analyzer
	Sim      *wildfire.Simulator

	// Memoized derived layers (see the type comment).
	mem struct {
		history    pipeline.Cell[[]*wildfire.Season]
		season2019 pipeline.Cell[*wildfire.Season]
		corridor   pipeline.Cell[*ecoregion.Corridor]
		overlay    pipeline.Cell[*risk.WHPResult]
		unionHist  pipeline.Cell[*raster.BitGrid]
		union2019  pipeline.Cell[*raster.BitGrid]
		bands      pipeline.Cell[*bandResults]
		caseStudy  pipeline.Cell[*risk.CaseStudyResult]
		extend     pipeline.Keyed[float64, *risk.ExtensionResult]
		extendFine pipeline.Keyed[[2]float64, *risk.FineExtension]
	}
}

// buildFaultHook, when non-nil, is installed as the chaos-injection
// hook on every study build graph and band-pass graph. It exists solely
// for the fault-containment tests in this package and must stay nil in
// production paths (nothing outside _test files assigns it).
var buildFaultHook func(task string) error

// build constructs the study layers over the dependency-graph executor,
// with the same six tasks for every Config: once the shared world
// exists, the WHP raster, the transceiver snapshot and the county
// synthesis build concurrently; the fire simulator and the risk engine
// follow as their inputs complete. Each layer is a pure function of
// its declared inputs, so every schedule — one task at a time at
// GOMAXPROCS=1, or fanned out — produces the same Study bit for bit.
//
// A non-nil error means no usable Study exists: cancellation of cfg.ctx,
// a contained panic (pipeline.PanicError) or an injected fault. The
// partially built value never escapes.
func build(cfg Config) (*Study, error) {
	ctx := cfg.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	s := &Study{Cfg: cfg}
	s.Cfg.ctx = nil // the Study must not retain the build context
	g := pipeline.New()
	if buildFaultHook != nil {
		g.SetInjectionHook(buildFaultHook)
	}
	g.Add("world", func() error {
		s.World = conus.Build(conus.Config{Seed: cfg.Seed, CellSizeM: cfg.CellSizeM})
		return nil
	})
	g.Add("whp", func() error {
		s.WHP = whp.Build(s.World, s.World.Grid, whp.Config{})
		return nil
	}, "world")
	g.Add("cellnet", func() error {
		if cfg.SnapshotPath != "" {
			data, err := loadSnapshotDataset(cfg.SnapshotPath, s.World)
			if err != nil {
				return err
			}
			s.Data = data
			return nil
		}
		s.Data = cellnet.Generate(s.World, cellnet.GenConfig{Seed: cfg.Seed, Total: cfg.Transceivers})
		return nil
	}, "world")
	g.Add("census", func() error {
		s.Counties = census.Synthesize(s.World, cfg.Seed)
		return nil
	}, "world")
	g.Add("sim", func() error {
		s.Sim = wildfire.NewSimulator(s.World, s.WHP)
		return nil
	}, "whp")
	g.Add("analyzer", func() error {
		s.Analyzer = risk.New(s.World, s.WHP, s.Data, s.Counties)
		return nil
	}, "whp", "cellnet", "census")

	if err := g.RunContext(ctx); err != nil {
		return nil, fmt.Errorf("fivealarms: building study: %w", err)
	}
	return s, nil
}

// History simulates the calibrated 2000-2018 fire seasons. The seasons
// are simulated once per Study, in parallel (each season draws from an
// independent rng stream, so the result is identical at any
// GOMAXPROCS), and cached for every later caller.
func (s *Study) History() []*wildfire.Season {
	return s.mem.history.Get(func() []*wildfire.Season {
		// context.Background never cancels, so the error is unreachable.
		seasons, _ := wildfire.SimulateHistory(context.Background(), s.Sim, s.Cfg.Seed, s.Cfg.MappedFiresPerSeason) //fivealarms:allow(errflow) context.Background never cancels, so the error is unreachable
		return seasons
	})
}

// Season2019 simulates the hold-out validation season with the named
// anchor fires (Kincade, Getty, Saddle Ridge, Tick), once per Study.
func (s *Study) Season2019() *wildfire.Season {
	return s.mem.season2019.Get(func() *wildfire.Season {
		return wildfire.Simulate2019(s.Sim, s.Cfg.Seed, s.Cfg.MappedFiresPerSeason)
	})
}

// Table1 runs the historical overlay over the 2000-2018 seasons, once
// per Study, in the band pass (see ShardStats). The seasons join in
// parallel — each season is an independent join over read-only layers,
// so the result is identical at any GOMAXPROCS and any band count. The
// returned slice is shared between callers: read-only.
//
// Table1 panics with the band pass's error — a *pipeline.PanicError or
// a wrapped task error — if a pass task fails, which only a bug or an
// injected fault can cause; the pass is not memoized then, so the next
// call retries.
func (s *Study) Table1() []risk.YearOverlay {
	return s.bands().table1
}

// Table2 computes the provider risk breakdown.
func (s *Study) Table2() []risk.ProviderRow {
	return s.Analyzer.ProviderRisk()
}

// Table3 computes the radio-technology risk breakdown.
func (s *Study) Table3() []risk.RadioRow {
	return s.Analyzer.RadioTypeRisk()
}

// WHPOverlay computes the Figure 7-9 class/state/per-capita exposure,
// once per Study.
func (s *Study) WHPOverlay() *risk.WHPResult {
	return s.mem.overlay.Get(s.Analyzer.WHPOverlay)
}

// HistoryUnionMask rasterizes the union of the 2000-2018 perimeters onto
// the world grid (the data behind Figure 3), once per Study.
func (s *Study) HistoryUnionMask() *raster.BitGrid {
	return s.mem.unionHist.Get(func() *raster.BitGrid {
		return s.Analyzer.FireUnionMask(s.History())
	})
}

// Season2019UnionMask rasterizes the union of the validation season's
// perimeters onto the world grid, once per Study.
func (s *Study) Season2019UnionMask() *raster.BitGrid {
	return s.mem.union2019.Get(func() *raster.BitGrid {
		return s.Analyzer.FireUnionMask([]*wildfire.Season{s.Season2019()})
	})
}

// CaseStudy runs the fall-2019 PSPS simulation (Figure 5), once per
// Study. The result is shared between callers: read-only.
func (s *Study) CaseStudy() *risk.CaseStudyResult {
	return s.mem.caseStudy.Get(func() *risk.CaseStudyResult {
		return s.Analyzer.CaseStudyFall2019(s.Season2019(), powergrid.NetConfig{Seed: s.Cfg.Seed}, s.Cfg.Seed)
	})
}

// Validate runs the §3.4 hold-out validation, once per Study, in the
// band pass (see ShardStats). The result is shared between callers:
// read-only.
//
// Validate panics like Table1 if a band-pass task fails.
func (s *Study) Validate() *risk.ValidationResult {
	return s.bands().validation
}

// extendCoarse is ExtendWith's memoized coarse-path extension. distM
// passes through to the analyzer unresolved: ExtendWith owns
// defaulting.
func (s *Study) extendCoarse(distM float64) *risk.ExtensionResult {
	return s.mem.extend.Get(distM, func() *risk.ExtensionResult {
		return s.Analyzer.ExtendAndValidate(s.Season2019(), distM)
	})
}

// extendFine is ExtendWith's memoized fine-path extension (distM 0 ->
// 804.67 m, resolved by the analyzer). Memoized per (cellSize, distM)
// pair as passed.
func (s *Study) extendFine(cellSize, distM float64) *risk.FineExtension {
	return s.mem.extendFine.Get([2]float64{cellSize, distM}, func() *risk.FineExtension {
		return s.Analyzer.ExtendAndValidateFine(s.Season2019(), cellSize, distM)
	})
}

// Impact computes the Figure 10 population matrix.
func (s *Study) Impact() *risk.ImpactMatrix { return s.Analyzer.PopulationImpact() }

// Metros computes the Figure 12 metro comparison.
func (s *Study) Metros() []risk.MetroRow { return s.Analyzer.MetroImpact() }

// Future computes the Figure 14 corridor projection.
func (s *Study) Future() *risk.FutureResult {
	return s.Analyzer.FutureRisk(s.Corridor())
}

// Corridor exposes the SLC-Denver corridor for rendering, built once per
// Study.
func (s *Study) Corridor() *ecoregion.Corridor {
	return s.mem.corridor.Get(func() *ecoregion.Corridor {
		return ecoregion.BuildCorridor(s.World)
	})
}

// Coverage computes the population-coverage exposure of the at-risk
// transceiver set (the abstract's "over 85 million" analog). radiusM 0
// selects the default serving radius.
func (s *Study) Coverage(radiusM float64) *risk.CoverageResult {
	return s.Analyzer.Coverage(radiusM)
}

// Escape computes the per-state HOT escape probabilities (the §3.11
// extension). thresholdAcres 0 selects the 300-acre default.
func (s *Study) Escape(thresholdAcres float64) []risk.StateEscape {
	return s.Analyzer.EscapeProbabilities(thresholdAcres)
}

// WUI measures the concentration of at-risk infrastructure in the
// Wildland-Urban Interface (§3.7's key finding).
func (s *Study) WUI() *risk.WUIResult {
	return s.Analyzer.WUIAnalysis()
}

// Harden computes a §3.10 mitigation-prioritization plan: the budget
// at-risk sites whose hardening protects the most people.
func (s *Study) Harden(budget int) *risk.HardeningResult {
	return s.Analyzer.HardeningPlan(budget, 0)
}

// Emergency crosses the PSPS simulation with the coverage model: the
// population left without any in-service cell site per event day, and
// the wireless-911 exposure that implies (§3.10's motivation).
func (s *Study) Emergency() *risk.EmergencyImpact {
	return s.Analyzer.EmergencyAnalysis(s.Season2019(), powergrid.NetConfig{Seed: s.Cfg.Seed}, s.Cfg.Seed, 0)
}

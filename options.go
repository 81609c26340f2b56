package fivealarms

import "context"

// Option mutates a Config under NewStudyWithOptions.
//
// Ordering semantics (the single source of truth for every option):
// options apply strictly left to right. A field option (WithSeed,
// WithCellSizeM, WithTransceivers, WithFiresPerSeason, WithShards,
// WithSnapshot, WithContext) overrides that one field of whatever the
// earlier options assembled. A whole-config option
// (WithConfig, WithPaperScale) replaces the entire configuration —
// including clearing a context installed by an earlier WithContext —
// so place it first and adjust individual fields after it:
//
//	NewStudyWithOptions(fivealarms.WithPaperScale(42),
//	    fivealarms.WithTransceivers(1_000_000)) // paper scale, smaller snapshot
type Option func(*Config)

// WithContext attaches ctx to the study build. Cancelling it (or hitting
// its deadline) stops the layer pipeline from scheduling new build tasks,
// drains the tasks already in flight, and makes NewStudyWithOptions
// return an error wrapping ctx.Err() together with how far the build
// got. The context governs only the build: the returned Study never
// retains it, and a Study that builds successfully is unaffected by a
// later cancellation. WithConfig placed after this option clears it.
func WithContext(ctx context.Context) Option {
	return func(c *Config) { c.ctx = ctx }
}

// WithSeed sets the master random seed (Config.Seed).
func WithSeed(seed uint64) Option {
	return func(c *Config) { c.Seed = seed }
}

// WithCellSizeM sets the world raster resolution in meters
// (Config.CellSizeM).
func WithCellSizeM(m float64) Option {
	return func(c *Config) { c.CellSizeM = m }
}

// WithTransceivers sets the synthetic OpenCelliD snapshot size
// (Config.Transceivers).
func WithTransceivers(n int) Option {
	return func(c *Config) { c.Transceivers = n }
}

// WithFiresPerSeason sets the mapped-fire simulation budget per season
// (Config.MappedFiresPerSeason).
func WithFiresPerSeason(n int) Option {
	return func(c *Config) { c.MappedFiresPerSeason = n }
}

// WithConfig replaces the whole configuration at once; options placed
// after it adjust individual fields (see Option for the ordering
// semantics).
func WithConfig(cfg Config) Option {
	return func(c *Config) { *c = cfg }
}

// WithPaperScale replaces the whole configuration with PaperScale(seed)
// — the paper's actual data volumes: a 5.36M-transceiver snapshot on a
// 2.7 km national raster (several GB of memory, minutes of generation).
// Like WithConfig it is a whole-config option: place it first and
// adjust individual fields with later options (see Option).
func WithPaperScale(seed uint64) Option {
	return func(c *Config) { *c = PaperScale(seed) }
}

// WithShards sets the band pass's band count (Config.Shards): Table 1
// and the hold-out validation join the fleet over n CONUS row bands,
// each joining the Study's own Analyzer in place for its own rows
// without copying them, and merge in band order. Results are
// bit-identical at any band count (see DESIGN.md §10);
// Study.ShardStats reports the shape. n of 0 or 1 is one band.
func WithShards(n int) Option {
	return func(c *Config) { c.Shards = n }
}

// WithSnapshot warm-loads the transceiver layer from the columnar
// snapshot file at path (Config.SnapshotPath) instead of generating it.
// Write one with Study.WriteSnapshot or `fivealarms -save-snapshot`. A
// study warm-loaded from a snapshot written by the same configuration is
// bit-identical to the cold build it replaces.
func WithSnapshot(path string) Option {
	return func(c *Config) { c.SnapshotPath = path }
}

// NewStudyWithOptions validates the assembled configuration and builds
// all layers through the parallel pipeline, which fans out to at most
// GOMAXPROCS goroutines (at GOMAXPROCS=1 every stage runs serially, with
// bit-identical results). It rejects malformed configurations —
// negative or non-finite dimensions, absurd sizes — instead of silently
// clamping them, and it surfaces build-pipeline failures (cancellation
// via WithContext, contained task panics, snapshot I/O) as errors
// rather than crashing. On error the returned Study is nil: partially
// built state never escapes.
func NewStudyWithOptions(opts ...Option) (*Study, error) {
	var cfg Config
	for _, opt := range opts {
		opt(&cfg)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return build(cfg.withDefaults())
}

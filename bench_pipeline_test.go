package fivealarms

// BenchmarkStudyColdWarm measures the memoization contract of the study
// pipeline (see README "Performance & concurrency"): the cold path
// builds a Study and runs Table1 + Validate + CaseStudy from scratch
// (layer builds plus 20 fire-season simulations); the warm path re-runs
// the same three analyses on an already-primed Study, where every
// simulated season is a cache hit. The acceptance bar for the pipeline
// is warm >= 10x faster than cold; `make bench-pipeline` records both
// into BENCH_pipeline.json.

import "testing"

// benchPipelineCfg mirrors the shared bench fixture scale.
var benchPipelineCfg = Config{Seed: 7, CellSizeM: 20000, Transceivers: 60000, MappedFiresPerSeason: 12}

// runHeadlineAnalyses is the cold/warm workload: the three analyses the
// paper's pre-pipeline code paid three fire-simulation passes for.
func runHeadlineAnalyses(b *testing.B, s *Study) {
	if rows := s.Table1(); len(rows) != 19 {
		b.Fatalf("table1 years = %d", len(rows))
	}
	if v := s.Validate(); v.InPerimeter == 0 {
		b.Fatal("validation empty")
	}
	if cs := s.CaseStudy(); cs.PeakOut == 0 {
		b.Fatal("case study empty")
	}
}

func BenchmarkStudyColdWarm(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runHeadlineAnalyses(b, mustStudy(benchPipelineCfg))
		}
	})
	b.Run("warm", func(b *testing.B) {
		s := mustStudy(benchPipelineCfg)
		runHeadlineAnalyses(b, s) // prime every memo cell
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runHeadlineAnalyses(b, s)
		}
	})
}

// BenchmarkStudyBuild isolates the layer-build pipeline itself. Run it
// with -cpu 1,2 (as `make bench-pipeline` does) to compare the serial
// schedule with the parallel dependency-graph build.
func BenchmarkStudyBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if s := mustStudy(benchPipelineCfg); s.Analyzer == nil {
			b.Fatal("analyzer missing")
		}
	}
}

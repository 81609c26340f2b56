# Developer conveniences; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test vet lint lint-sarif lint-debt apilock race chaos chaos-serve load-smoke diffcheck cover bench bench-pipeline bench-geom bench-raster bench-race bench-serve bench-shard shard-smoke serve-smoke fuzz experiments maps clean

all: vet lint test build

build:
	$(GO) build ./...

# -shuffle=on randomizes test order so accidental inter-test state
# dependence surfaces in CI instead of lurking.
test:
	$(GO) test -shuffle=on ./...

vet:
	$(GO) vet ./...

# Run the fivealarms static-analysis suite (internal/lint): the
# determinism, failure-model, float-equality, context-flow,
# copy-safety, test-only-import, map-order, wire-freeze,
# goroutine-leak, and error-flow contracts. Nonzero exit on any
# unsuppressed finding; see DESIGN.md §6 for the annotation grammar.
lint:
	$(GO) run ./cmd/fivealarmsvet ./...

# Same findings as `make lint`, rendered as a SARIF 2.1.0 document
# (fivealarmsvet.sarif) for GitHub code scanning; the CI Lint job
# uploads it as an artifact.
lint-sarif:
	$(GO) run ./cmd/fivealarmsvet -sarif ./... > fivealarmsvet.sarif || [ $$? -eq 1 ]

# Audit live //fivealarms:allow suppressions: position, rule, age
# (git blame), and the mandatory reason, plus a per-rule tally.
lint-debt:
	$(GO) run ./cmd/fivealarmsvet -debt

# Regenerate the v1 wire-contract lockfile after an additive DTO
# change; the resulting internal/serve/api/api.lock diff is part of
# the change (CI fails on silent drift).
apilock:
	$(GO) run ./cmd/fivealarmsvet -write-apilock

race:
	$(GO) test -race -shuffle=on ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate the study-pipeline baseline (cold build vs. warm re-query)
# as test2json events, so later PRs can track the trajectory. -cpu 1,2
# records each benchmark under the serial schedule (GOMAXPROCS=1) and
# the parallel one.
bench-pipeline:
	$(GO) test -run '^$$' -bench 'BenchmarkStudyColdWarm|BenchmarkStudyBuild' -cpu 1,2 -benchmem -json . > BENCH_pipeline.json

# Regenerate the join baseline: the overlay join (naive-serial vs the
# fires' burned-cell join) and the end-to-end Table 1 join. -cpu 1,2
# records each under the serial schedule (GOMAXPROCS=1) and the
# parallel one.
bench-geom:
	$(GO) test -run '^$$' -bench 'BenchmarkHistoricalOverlay|BenchmarkTable1$$' \
		-cpu 1,2 -benchmem -json . ./internal/risk > BENCH_geom.json

# Regenerate the raster-kernel baseline: the banded fill / distance /
# dilate kernels, the serial contour tracer and the unfused per-fire
# union (one fill call per polygon) at GOMAXPROCS 1/2/4/8 (band counts
# follow GOMAXPROCS), at full-scale CONUS dimensions.
bench-raster:
	$(GO) test -run '^$$' -bench 'BenchmarkRasterKernels' \
		-cpu 1,2,4,8 -benchmem -json ./internal/raster > BENCH_raster.json

# Regenerate the fire-race baseline: one simulated season on the 20 km
# test world (BenchmarkSeason: 20 fires' races and traces), the contour
# tracer alone on that season's burned masks (BenchmarkTraceContours),
# one 10,000-acre fire (BenchmarkGrowFire10k), and the §3.8 fine
# extension (BenchmarkExtendFine), whose hazard evaluator rebinds the
# same noise table. -cpu 1,2 records each at GOMAXPROCS 1 and 2.
bench-race:
	$(GO) test -run '^$$' -bench 'BenchmarkSeason$$|BenchmarkTraceContours$$|BenchmarkGrowFire10k$$|BenchmarkExtendFine$$' \
		-cpu 1,2 -benchmem -json ./internal/wildfire ./internal/risk > BENCH_race.json

# Regenerate the full-paper-scale baseline: one cold build of the
# 5,364,949-transceiver fleet on the 2.7 km national raster, plus the
# band pass (all 19 seasons and the 2019 hold-out joined over 16 CONUS
# row bands) and the history union mask. Records wall time and the
# measured peak of the heap's object bytes, sampled every 2 ms
# (peak-heap-B), in BENCH_shard.json. Expect under a minute and a
# heap peak near 0.85 GB at GOMAXPROCS=2.
bench-shard:
	FIVEALARMS_BENCH_PAPER=1 $(GO) test -run '^$$' -bench 'BenchmarkShardedStudy' \
		-benchtime=1x -timeout=0 -benchmem -json . > BENCH_shard.json

# Scaled-down CI twin of the full-scale study: 500k transceivers over 4
# bands, then every root band-pass test (the band-count sweep, the pass
# chaos suite, ShardStats). Gates the bit-identity contract at a scale
# CI can afford.
shard-smoke:
	$(GO) run ./cmd/fivealarms -seed 7 -cell 10000 -transceivers 500000 -fires 40 -shards 4 table1 >/dev/null
	$(GO) test -count=1 . -run 'Shard'

# End-to-end smoke test of the risk-query server: boot fivealarmsd on
# a random port at test scale, probe healthz and one risk query via
# fivealarmsload -smoke, then require a clean SIGTERM drain.
serve-smoke:
	./scripts/serve_smoke.sh

# Regenerate the serving baseline: fivealarmsload self-hosts an
# in-process server at bench scale, warms it, measures a steady phase,
# then drives a deliberately constrained server at 4x its admission
# capacity (the overload phase) and records both — sustained qps,
# latency quantiles, shed rate, and p99-under-overload — in
# BENCH_serve.json. The repo's serving budget is p99 < 50 ms warm at
# this scale, and overload must shed (429/503), never time out.
bench-serve:
	$(GO) run ./cmd/fivealarmsload -dur 5s -workers 4 -overload \
		-seed 7 -cell 20000 -transceivers 60000 -fires 12 \
		-out BENCH_serve.json

# Run the differential conformance kernel: refimpl self-tests, the
# seeded diffcheck sweeps and golden fixtures, the per-package
# conformance suites, and the study-layer cross-checks. A failure prints
# "diffcheck/<primitive> (seed N)"; rerun that Check function with the
# seed to reproduce (DESIGN.md §5, "Testing conventions").
diffcheck:
	$(GO) test -count=1 ./internal/refimpl/... \
		-run 'Sweep|Golden|Fixture|EqualUlp|Divergence'
	$(GO) test -count=1 ./internal/geom ./internal/raster \
		./internal/grid ./internal/proj ./internal/census ./internal/conus \
		./internal/rng ./internal/wildfire ./internal/powergrid ./internal/whp \
		./internal/cellnet -run 'Conformance|Golden'
	$(GO) test -count=1 ./internal/risk -run 'CrossCheck|Conformance|MatchesNaive|PointwiseIdentical'
	$(GO) test -count=1 . -run 'SeedDeterminism|Metamorphic|ShardedDiffcheck|ExperimentsGolden'

# Enforce the per-package coverage floors (COVERAGE_FLOOR.txt); pass a
# path to keep the merged profile, e.g. `make cover PROFILE=coverage.out`.
cover:
	./scripts/check_coverage.sh $(PROFILE)

# Run each native fuzz target briefly (10s apiece); CI's fuzz smoke
# step runs this list.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParseWKTPoint$$' -fuzztime 10s ./internal/geom
	$(GO) test -run '^$$' -fuzz '^FuzzParseWKTPolygon$$' -fuzztime 10s ./internal/geom
	$(GO) test -run '^$$' -fuzz '^FuzzParseWKTMultiPolygon$$' -fuzztime 10s ./internal/geom
	$(GO) test -run '^$$' -fuzz '^FuzzContainmentDiff$$' -fuzztime 10s ./internal/geom
	$(GO) test -run '^$$' -fuzz '^FuzzWeightedVoronoiDiff$$' -fuzztime 10s ./internal/geom
	$(GO) test -run '^$$' -fuzz '^FuzzRasterDiff$$' -fuzztime 10s ./internal/raster
	$(GO) test -run '^$$' -fuzz '^FuzzContourDiff$$' -fuzztime 10s ./internal/raster
	$(GO) test -run '^$$' -fuzz '^FuzzGridIndexDiff$$' -fuzztime 10s ./internal/grid
	$(GO) test -run '^$$' -fuzz '^FuzzAlbersDiff$$' -fuzztime 10s ./internal/proj
	$(GO) test -run '^$$' -fuzz '^FuzzReadArcASCII$$' -fuzztime 10s ./internal/raster
	$(GO) test -run '^$$' -fuzz '^FuzzSnapshotDecode$$' -fuzztime 10s ./internal/cellnet
	$(GO) test -run '^$$' -fuzz '^FuzzReadCSV$$' -fuzztime 10s ./internal/dirs

# Run the fault-containment chaos suite, and the band fan-out's tests,
# under the race detector.
chaos:
	$(GO) test -race -count=2 \
		-run 'Chaos|Cancel|Context|Panic|Poison|Retri|JoinErrors|Bands' \
		./internal/pipeline ./internal/faults ./internal/wildfire .

# Run the serving-layer chaos suite under the race detector: overload
# shedding, breaker transitions, degraded mode, slowloris reaping,
# limiter/breaker races (DESIGN.md "Overload & degradation policy").
chaos-serve:
	$(GO) test -race -count=1 \
		-run 'Chaos|Breaker|Limiter|Slowloris|Degraded|Cancel|Concurrent' \
		./internal/serve

# Drive a constrained self-hosted server past its admission limit and
# require that excess load is shed (429/503) rather than timed out.
# Tiny study scale: this gates behavior, not throughput.
load-smoke:
	$(GO) run ./cmd/fivealarmsload -dur 2s -overload -expect-shed \
		-cell 40000 -transceivers 5000 -fires 5 -out /dev/null >/dev/null

# Regenerate experiments_run.txt at reference scale (minutes).
experiments:
	$(GO) run ./cmd/fivealarms -seed 7 -cell 5000 -transceivers 500000 -fires 150 all | tee experiments_run.txt

# Render the headline map figures as PNGs.
maps:
	$(GO) run ./cmd/whpmap -layer whp -o fig6-whp.png
	$(GO) run ./cmd/whpmap -layer density -o fig2-density.png
	$(GO) run ./cmd/whpmap -layer history -o fig3-perimeters.png
	$(GO) run ./cmd/whpmap -layer metro -lon -118 -lat 34 -km 150 -o fig13-la.png

clean:
	rm -f fig*.png

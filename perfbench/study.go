package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"runtime"
	"slices"

	"fivealarms"
	"fivealarms/internal/cli"
)

// fleetConfig keeps the paper's 2.7 km raster and the 16-band shard
// layout of the full paper-scale build (BENCH_shard.json), with a tenth
// of its 5.36M-transceiver fleet and 10 rather than 400 mapped fires
// per season, so one cold build takes seconds and is dominated by the
// transceiver axis. regen runs at the serving scale (serveConfig).
var fleetConfig = fivealarms.Config{CellSizeM: 2_700, Transceivers: 500_000, MappedFiresPerSeason: 10, Shards: 16}

// Cross-path check shard counts: regen operations build monolithically
// and are checked against a sharded rebuild; fleet operations build
// sharded and are checked against a monolithic one.
const regenCheckShards = 3

// minOps is the fewest operations a run measures, however long they
// take.
const minOps = 3

// group is one layer of a regeneration: the cli experiments whose
// analyses it times, in the order they run.
type group struct {
	layer string
	exps  []string
}

// regenGroups covers every experiment of `fivealarms all`, grouped by
// paper section. Order matters: the first experiment needing a lazily
// computed product (the 2019 season, the WHP overlay) pays for it.
var regenGroups = []group{
	{"table1", []string{"table1"}},
	{"tables23", []string{"table2", "table3"}},
	{"casestudy", []string{"fig5"}},
	{"whp_overlay", []string{"fig7", "fig8", "fig9"}},
	{"impact", []string{"fig10", "fig12", "fig14"}},
	{"validate", []string{"validate", "extend", "extendfine"}},
	{"mitigation", []string{"mitigation", "harden", "emergency"}},
	{"coverage", []string{"coverage", "escape", "wui", "fig4daily"}},
}

// fleetGroups are the transceiver-axis products the sharded path
// computes shard by shard.
var fleetGroups = []group{
	{"table1", []string{"table1"}},
	{"tables23", []string{"table2", "table3"}},
	{"validate", []string{"validate"}},
}

// studyRun describes one study workload.
type studyRun struct {
	cfg    fivealarms.Config // operation config, without a seed
	groups []group
	mask   bool // fingerprint the 2000-2018 perimeter union mask too
	// checkShards is the shard count of the cross-path rebuild of the
	// first operation's seed (0 = monolithic).
	checkShards int
}

func runRegen(rc runConfig) (*outcome, error) {
	return runStudy(rc, studyRun{cfg: serveConfig, groups: regenGroups, checkShards: regenCheckShards})
}

func runFleet(rc runConfig) (*outcome, error) {
	return runStudy(rc, studyRun{cfg: fleetConfig, groups: fleetGroups, mask: true, checkShards: 0})
}

// runStudy sets up, measures and checks a study workload. Set-up
// builds the layers of one study on the check path (no analyses)
// setupReps times. Every measured operation then builds a fresh study
// for a new seed and renders the workload's experiments; a forced
// collection before each keeps one operation's garbage out of the
// next. Afterwards the first operation's seed is rebuilt on the check
// path and every rendered output must match byte for byte.
func runStudy(rc runConfig, w studyRun) (*outcome, error) {
	out := &outcome{layers: map[string]float64{}}
	seeds := newSeedSource(rc.seed)

	checkCfg := w.cfg
	checkCfg.Shards = w.checkShards
	setupCfg := checkCfg
	setupCfg.Seed = seeds.next()
	var setupFP uint64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := now()
		st, err := fivealarms.NewStudyWithOptions(fivealarms.WithConfig(setupCfg))
		out.setup = append(out.setup, now().Sub(t0))
		if err != nil {
			return nil, fmt.Errorf("set-up build: %w", err)
		}
		fp, err := render(&tracer{}, 0, -1, "", st, "table2")
		if err != nil {
			return nil, fmt.Errorf("set-up build: %w", err)
		}
		if i == 0 {
			setupFP = fp
		} else if fp != setupFP {
			out.problemf("set-up rebuild %d of seed %d rendered table2 differently", i, setupCfg.Seed)
		}
	}

	heap, stop := startSampler()
	start := readRuntime()
	var first map[string]uint64
	firstCfg := w.cfg
	deadline := now().Add(rc.measure)
	for op := 0; op < minOps || now().Before(deadline); op++ {
		cfg := w.cfg
		cfg.Seed = seeds.next()
		runtime.GC()
		heap.reset()
		t0 := now()
		fps, err := studyOp(rc.tr, op, cfg, w)
		d := now().Sub(t0)
		out.attempted++
		if err != nil {
			out.failed++
			out.problemf("operation %d (seed %d): %v", op, cfg.Seed, err)
			continue
		}
		out.latMs = append(out.latMs, ms(d))
		out.peakHeap = append(out.peakHeap, mb(heap.peak.Load()))
		if first == nil {
			first, firstCfg = fps, cfg
		}
	}
	perOpSince(start, out.attempted, out.layers)
	stop()
	for _, l := range []string{"build", "history", "encode"} {
		out.layers[l+"_pct"] = rc.tr.share(l)
	}
	for _, g := range w.groups {
		out.layers[g.layer+"_pct"] = rc.tr.share(g.layer)
	}

	if first != nil {
		firstCfg.Shards = w.checkShards
		runtime.GC()
		ref, err := studyOp(newTracer(false), 0, firstCfg, w)
		if err != nil {
			return nil, fmt.Errorf("cross-path rebuild: %w", err)
		}
		compareFingerprints(out, first, ref, fmt.Sprintf("seed %d, %d vs %d shards", firstCfg.Seed, w.cfg.Shards, w.checkShards))
	}
	return out, nil
}

// studyOp builds the study for cfg and renders the workload's
// experiments, returning one fingerprint per experiment.
func studyOp(tr *tracer, op int, cfg fivealarms.Config, w studyRun) (map[string]uint64, error) {
	root := tr.begin("op", op, -1)
	defer tr.end(root)

	sp := tr.begin("build", op, root)
	st, err := fivealarms.NewStudyWithOptions(fivealarms.WithConfig(cfg))
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if cfg.Shards > 0 {
		rows, _ := st.ShardStats()
		total := 0
		for _, r := range rows {
			total += r
		}
		if len(rows) != cfg.Shards || total <= 0 || total > cfg.Transceivers {
			return nil, fmt.Errorf("shard stats: %d shards holding %d rows, want %d holding at most %d",
				len(rows), total, cfg.Shards, cfg.Transceivers)
		}
	}
	sp = tr.begin("history", op, root)
	seasons := st.History()
	tr.end(sp)
	if len(seasons) != 19 {
		return nil, fmt.Errorf("history: %d seasons, want 19 (2000-2018)", len(seasons))
	}

	fps := map[string]uint64{}
	for _, g := range w.groups {
		for _, e := range g.exps {
			if fps[e], err = render(tr, op, root, g.layer, st, e); err != nil {
				return nil, err
			}
		}
	}
	if w.mask {
		m := st.HistoryUnionMask()
		if m.Count() == 0 {
			return nil, fmt.Errorf("empty 2000-2018 perimeter union mask")
		}
		fps["union_mask"] = m.Fingerprint()
	}
	return fps, nil
}

// render runs one experiment and fingerprints its JSON rendering,
// timing the analysis as layer and the rendering as encode.
func render(tr *tracer, op, parent int, layer string, st *fivealarms.Study, exp string) (uint64, error) {
	sp := tr.begin(layer, op, parent)
	tables, err := cli.Run(st, exp)
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	sp = tr.begin("encode", op, parent)
	defer tr.end(sp)
	var buf bytes.Buffer
	for _, t := range tables {
		if err := cli.Emit(&buf, t, "json"); err != nil {
			return 0, err
		}
	}
	if buf.Len() == 0 {
		return 0, fmt.Errorf("%s rendered nothing", exp)
	}
	return fingerprint(buf.Bytes()), nil
}

// compareFingerprints records every output on which got and want
// disagree.
func compareFingerprints(out *outcome, got, want map[string]uint64, what string) {
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		if got[k] != want[k] {
			out.problemf("%s differs across paths (%s)", k, what)
		}
	}
	if len(got) != len(want) {
		out.problemf("%d outputs vs %d across paths (%s)", len(got), len(want), what)
	}
}

// fingerprint is the 64-bit FNV-1a hash of b.
func fingerprint(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

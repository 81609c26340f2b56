package fivealarms_test

// The whole-study golden: every experiment of `fivealarms -format json
// all`, built by a Study and rendered by internal/cli, hashed and
// compared against testdata/experiments.golden. It lives in the
// external test package because internal/cli imports fivealarms.
// Regenerate deliberately with
// `go test . -run TestExperimentsGolden -update`.

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fivealarms"
	"fivealarms/internal/cli"
	"fivealarms/internal/faults"
)

var update = flag.Bool("update", false, "rewrite testdata/experiments.golden")

// goldenPath holds one line per config and experiment:
// "<seed>/<cell m>/<transceivers>/<fires> <experiment> <FNV-64a hash>".
var goldenPath = filepath.Join("testdata", "experiments.golden")

// goldenConfigs are the two scales the golden pins.
var goldenConfigs = []fivealarms.Config{
	{Seed: 7, CellSizeM: 20000, Transceivers: 60000, MappedFiresPerSeason: 12},
	{Seed: 11, CellSizeM: 40000, Transceivers: 20000, MappedFiresPerSeason: 6},
}

// TestExperimentsGolden renders every cli.Experiments entry of each
// golden config as JSON, once with the Study built and queried at
// GOMAXPROCS=1 and once at 4, and requires each experiment's hash to
// match the committed table under both schedules.
func TestExperimentsGolden(t *testing.T) {
	var got []string
	for _, cfg := range goldenConfigs {
		key := fmt.Sprintf("%d/%g/%d/%d", cfg.Seed, cfg.CellSizeM, cfg.Transceivers, cfg.MappedFiresPerSeason)
		var serial []string
		for _, procs := range []int{1, 4} {
			var lines []string
			faults.WithGOMAXPROCS(procs, func() { lines = experimentHashes(t, cfg, key) })
			if serial == nil {
				serial = lines
				continue
			}
			for i := range lines {
				if lines[i] != serial[i] {
					t.Errorf("GOMAXPROCS=%d: %s, GOMAXPROCS=1: %s", procs, lines[i], serial[i])
				}
			}
		}
		got = append(got, serial...)
	}
	if *update {
		body := "# FNV-64a of `fivealarms -format json <experiment>` per config\n" +
			strings.Join(got, "\n") + "\n"
		if err := os.WriteFile(goldenPath, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGolden(t)
	if len(want) != len(got) {
		t.Fatalf("%d experiment hashes, %d in %s", len(got), len(want), goldenPath)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("got %s, want %s", got[i], want[i])
		}
	}
}

// experimentHashes builds cfg's Study and returns one golden line per
// experiment: the hash of its tables emitted as JSON, separated by the
// blank line cmd/fivealarms prints between tables.
func experimentHashes(t *testing.T, cfg fivealarms.Config, key string) []string {
	t.Helper()
	study, err := fivealarms.NewStudyWithOptions(fivealarms.WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	lines := make([]string, 0, len(cli.Experiments))
	for _, exp := range cli.Experiments {
		tables, err := cli.Run(study, exp)
		if err != nil {
			t.Fatalf("%s %s: %v", key, exp, err)
		}
		var buf bytes.Buffer
		for i, tb := range tables {
			if i > 0 {
				buf.WriteByte('\n')
			}
			if err := cli.Emit(&buf, tb, "json"); err != nil {
				t.Fatalf("%s %s: %v", key, exp, err)
			}
		}
		h := fnv.New64a()
		h.Write(buf.Bytes())
		lines = append(lines, fmt.Sprintf("%s %s 0x%016x", key, exp, h.Sum64()))
	}
	return lines
}

// readGolden returns the golden file's lines, comments skipped.
func readGolden(t *testing.T) []string {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			lines = append(lines, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

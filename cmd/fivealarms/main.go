// Command fivealarms regenerates the paper's tables and figures from a
// deterministic synthetic study.
//
// Usage:
//
//	fivealarms [flags] <experiment>
//
// Run with -h for the experiment list. Flags select the study scale;
// every run with the same flags produces identical output.
package main

import (
	"flag"
	"fmt"
	"os"

	"fivealarms"
	"fivealarms/internal/cli"
)

func main() {
	var (
		seed       = flag.Uint64("seed", 7, "master random seed")
		cell       = flag.Float64("cell", 10000, "world raster cell size in meters")
		tx         = flag.Int("transceivers", 150000, "synthetic OpenCelliD snapshot size")
		fires      = flag.Int("fires", 60, "mapped fires per simulated season")
		format     = flag.String("format", "text", "output format: text, csv or json")
		paperScale = flag.Bool("paper-scale", false, "start from the paper's full data volumes (5.36M transceivers, 2.7 km raster); explicit scale flags still override")
		shards     = flag.Int("shards", 0, "join Table 1 and the validation over this many CONUS row bands (0 or 1 = one band; results identical)")
		snapshot   = flag.String("snapshot", "", "warm-load the transceiver layer from this columnar snapshot file")
		saveSnap   = flag.String("save-snapshot", "", "after building, write the transceiver layer to this snapshot file")
	)
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() != 1 && !(flag.NArg() == 0 && *saveSnap != "") {
		usage()
		os.Exit(2)
	}

	// -paper-scale seeds the whole configuration; explicitly set scale
	// flags (and every other flag) then override field by field.
	opts := []fivealarms.Option{fivealarms.WithSeed(*seed)}
	if *paperScale {
		opts = []fivealarms.Option{fivealarms.WithPaperScale(*seed)}
	}
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if !*paperScale || explicit["cell"] {
		opts = append(opts, fivealarms.WithCellSizeM(*cell))
	}
	if !*paperScale || explicit["transceivers"] {
		opts = append(opts, fivealarms.WithTransceivers(*tx))
	}
	if !*paperScale || explicit["fires"] {
		opts = append(opts, fivealarms.WithFiresPerSeason(*fires))
	}
	if *shards != 0 {
		opts = append(opts, fivealarms.WithShards(*shards))
	}
	if *snapshot != "" {
		opts = append(opts, fivealarms.WithSnapshot(*snapshot))
	}

	study, err := fivealarms.NewStudyWithOptions(opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err) // library errors carry the package prefix
		os.Exit(2)
	}
	if *saveSnap != "" {
		if err := study.WriteSnapshot(*saveSnap); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "fivealarms: snapshot saved to %s\n", *saveSnap)
		if flag.NArg() == 0 {
			return
		}
	}

	tables, err := cli.Run(study, flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "fivealarms:", err)
		os.Exit(1)
	}
	for i, t := range tables {
		if i > 0 {
			fmt.Println()
		}
		if err := cli.Emit(os.Stdout, t, *format); err != nil {
			fmt.Fprintln(os.Stderr, "fivealarms:", err)
			os.Exit(1)
		}
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: fivealarms [flags] <experiment>

Regenerates the tables and figures of "Five Alarms" (IMC 2020) from a
deterministic synthetic study.

Experiments:
%s
Flags:
`, cli.Usage())
	flag.PrintDefaults()
}

package risk

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"fivealarms/internal/cellnet"
	"fivealarms/internal/faults"
	"fivealarms/internal/geom"
	"fivealarms/internal/raster"
	"fivealarms/internal/whp"
	"fivealarms/internal/wildfire"
)

func TestExtendAndValidateFine(t *testing.T) {
	season := wildfire.Simulate2019(testSim, 7, 40)
	// Test scale: 4 km window cells, 5 km buffer (one-plus cells).
	res := testAnalyzer.ExtendAndValidateFine(season, 4000, 5000)
	if res.WindowTransceivers == 0 {
		t.Fatal("empty window")
	}
	if res.InPerimeter == 0 {
		t.Fatal("no in-perimeter transceivers in the CA window")
	}
	if res.PredictedAfter < res.PredictedBefore {
		t.Errorf("extension reduced predictions: %d -> %d",
			res.PredictedBefore, res.PredictedAfter)
	}
	if res.VHAfter <= res.VHBefore {
		t.Errorf("extension did not grow very-high membership: %d -> %d",
			res.VHBefore, res.VHAfter)
	}
	if res.AccuracyAfterPct() < res.AccuracyBeforePct() {
		t.Errorf("accuracy fell: %.1f%% -> %.1f%%",
			res.AccuracyBeforePct(), res.AccuracyAfterPct())
	}
	if res.AccuracyBeforePct() < 0 || res.AccuracyAfterPct() > 100 {
		t.Error("accuracy out of range")
	}
}

func TestExtendAndValidateFineDefaults(t *testing.T) {
	res := &FineExtension{}
	if res.AccuracyBeforePct() != 0 || res.AccuracyAfterPct() != 0 {
		t.Error("empty result accuracies should be 0")
	}
}

// TestExtendFineGolden pins the fine §3.8 extension on the test analyzer
// at the paper's setting, at coarse cells with multi-cell buffers, and
// one ulp either side of the distances where the very-high buffer
// reaches a new ring of cells: one cell (1000 m at 1000 m), one
// diagonal (√2 cells) and nine cells (6300 m at 700 m).
func TestExtendFineGolden(t *testing.T) {
	season := wildfire.Simulate2019(testSim, 7, 40)
	up, down := math.Inf(1), math.Inf(-1)
	diag := math.Sqrt(2) * 1000
	cases := []struct {
		cell, dist float64
		want       FineExtension
	}{
		{800, 0, FineExtension{CellSize: 800, DistM: 804.672, WindowTransceivers: 7090, InPerimeter: 9, PredictedBefore: 5, PredictedAfter: 5, VHBefore: 854, VHAfter: 1432}},
		{4000, 5000, FineExtension{CellSize: 4000, DistM: 5000, WindowTransceivers: 7090, InPerimeter: 9, PredictedBefore: 5, PredictedAfter: 5, VHBefore: 1228, VHAfter: 1568}},
		{700, 6300, FineExtension{CellSize: 700, DistM: 6300, WindowTransceivers: 7090, InPerimeter: 9, PredictedBefore: 5, PredictedAfter: 5, VHBefore: 788, VHAfter: 1824}},
		{700, math.Nextafter(6300, down), FineExtension{CellSize: 700, DistM: math.Nextafter(6300, down), WindowTransceivers: 7090, InPerimeter: 9, PredictedBefore: 5, PredictedAfter: 5, VHBefore: 788, VHAfter: 1778}},
		{700, math.Nextafter(6300, up), FineExtension{CellSize: 700, DistM: math.Nextafter(6300, up), WindowTransceivers: 7090, InPerimeter: 9, PredictedBefore: 5, PredictedAfter: 5, VHBefore: 788, VHAfter: 1824}},
		{1000, 1000, FineExtension{CellSize: 1000, DistM: 1000, WindowTransceivers: 7090, InPerimeter: 9, PredictedBefore: 5, PredictedAfter: 5, VHBefore: 888, VHAfter: 1460}},
		{1000, math.Nextafter(1000, down), FineExtension{CellSize: 1000, DistM: math.Nextafter(1000, down), WindowTransceivers: 7090, InPerimeter: 9, PredictedBefore: 5, PredictedAfter: 5, VHBefore: 888, VHAfter: 888}},
		{1000, math.Nextafter(1000, up), FineExtension{CellSize: 1000, DistM: math.Nextafter(1000, up), WindowTransceivers: 7090, InPerimeter: 9, PredictedBefore: 5, PredictedAfter: 5, VHBefore: 888, VHAfter: 1460}},
		{1000, diag, FineExtension{CellSize: 1000, DistM: diag, WindowTransceivers: 7090, InPerimeter: 9, PredictedBefore: 5, PredictedAfter: 5, VHBefore: 888, VHAfter: 1478}},
		{1000, math.Nextafter(diag, down), FineExtension{CellSize: 1000, DistM: math.Nextafter(diag, down), WindowTransceivers: 7090, InPerimeter: 9, PredictedBefore: 5, PredictedAfter: 5, VHBefore: 888, VHAfter: 1460}},
		{1000, math.Nextafter(diag, up), FineExtension{CellSize: 1000, DistM: math.Nextafter(diag, up), WindowTransceivers: 7090, InPerimeter: 9, PredictedBefore: 5, PredictedAfter: 5, VHBefore: 888, VHAfter: 1478}},
	}
	for _, c := range cases {
		got := testAnalyzer.ExtendAndValidateFine(season, c.cell, c.dist)
		if *got != c.want {
			t.Errorf("cell %v m, dist %v m:\n got %+v\nwant %+v", c.cell, c.dist, *got, c.want)
		}
	}
}

// extendFineReference is ExtendAndValidateFine as it was before it
// evaluated the WHP only at the cells its counts read: it rasterizes the
// whole window, dilates the very-high class with the distance transform
// and samples both rasters at every window transceiver. It is kept
// verbatim as the twin of the point-wise path.
func extendFineReference(a *Analyzer, season *wildfire.Season, cellSize, distM float64) *FineExtension {
	if cellSize <= 0 {
		cellSize = 800
	}
	if distM <= 0 {
		distM = 0.5 * geom.MetersPerMile
	}
	region := a.CaliforniaRegion().Intersection(a.World.Grid.Bounds())
	g := raster.NewGeometry(region, cellSize)
	fine := whp.Build(a.World, g, whp.FineConfig)

	res := &FineExtension{CellSize: cellSize, DistM: distM}

	// Window transceivers and their fine classes.
	ids := a.Data.Index.Query(region, nil)
	res.WindowTransceivers = len(ids)
	classBefore := make(map[int]whp.Class, len(ids))
	for _, ti := range ids {
		classBefore[ti] = fine.ClassAt(a.Data.T[ti].XY)
	}
	for _, c := range classBefore {
		if c == whp.VeryHigh {
			res.VHBefore++
		}
	}

	// Extended classes.
	ext := fine.ExtendVeryHigh(distM)
	classAfter := make(map[int]whp.Class, len(ids))
	for _, ti := range ids {
		v, ok := ext.Sample(a.Data.T[ti].XY)
		if !ok {
			classAfter[ti] = whp.Water
			continue
		}
		classAfter[ti] = whp.Class(v)
		if whp.Class(v) == whp.VeryHigh {
			res.VHAfter++
		}
	}

	// Join against the window's fires.
	inPerimeter := map[int]bool{}
	var buf []int
	for fi := range season.Mapped {
		f := &season.Mapped[fi]
		bb := f.Perimeter.BBox()
		if !bb.Intersects(region) {
			continue
		}
		buf = a.Data.Index.Query(bb, buf[:0])
		for _, ti := range buf {
			if !region.ContainsPoint(a.Data.T[ti].XY) {
				continue
			}
			if f.Perimeter.ContainsPoint(a.Data.T[ti].XY) {
				inPerimeter[ti] = true
			}
		}
	}
	res.InPerimeter = len(inPerimeter)
	for ti := range inPerimeter {
		if classBefore[ti].AtRisk() {
			res.PredictedBefore++
		}
		if classAfter[ti].AtRisk() {
			res.PredictedAfter++
		}
	}
	return res
}

// fineSeasons are two 2019 seasons for the fine-extension tests.
var fineSeasons = [...]*wildfire.Season{
	wildfire.Simulate2019(testSim, 7, 40),
	wildfire.Simulate2019(testSim, 11, 40),
}

// checkFineTwin fails t unless ExtendAndValidateFine on a, at GOMAXPROCS
// 1 and 4, equals the raster twin.
func checkFineTwin(t *testing.T, a *Analyzer, season *wildfire.Season, cellSize, distM float64) {
	t.Helper()
	want := extendFineReference(a, season, cellSize, distM)
	for _, procs := range []int{1, 4} {
		var got *FineExtension
		faults.WithGOMAXPROCS(procs, func() { got = a.ExtendAndValidateFine(season, cellSize, distM) })
		if !reflect.DeepEqual(got, want) {
			t.Errorf("season %d, cell %v m, dist %v m, GOMAXPROCS=%d:\n got %+v\nwant %+v",
				season.Year, cellSize, distM, procs, *got, *want)
		}
	}
}

// checkFineCells fails t unless extendCells, asked for every stride-th
// cell of the window, returns the classes of the rasterized window and
// of its very-high extension there. Stride 1 puts every cell of the
// window, edges included, through the disk test; a larger stride leaves
// most of each disk to the second, parallel classification pass.
func checkFineCells(t *testing.T, cellSize, distM float64, stride int) {
	t.Helper()
	a := testAnalyzer
	g := raster.NewGeometry(a.CaliforniaRegion().Intersection(a.World.Grid.Bounds()), cellSize)
	fine := whp.Build(a.World, g, whp.FineConfig)
	ext := fine.ExtendVeryHigh(distM)
	var cells []int
	for c := 0; c < g.Cells(); c += stride {
		cells = append(cells, c)
	}
	before, after := extendCells(whp.NewModel(a.World, cellSize, whp.FineConfig), g, cells, distM)
	for i, c := range cells {
		if want := whp.Class(fine.Classes.Data[c]); before[i] != want {
			t.Fatalf("cell %v m, dist %v m: cell (%d, %d) of %dx%d classifies %v, raster %v",
				cellSize, distM, c%g.NX, c/g.NX, g.NX, g.NY, before[i], want)
		}
		if want := whp.Class(ext.Data[c]); after[i] != want {
			t.Fatalf("cell %v m, dist %v m: cell (%d, %d) of %dx%d extends to %v, raster %v",
				cellSize, distM, c%g.NX, c/g.NX, g.NX, g.NY, after[i], want)
		}
	}
}

// TestExtendFineCrossCheck compares the point-wise fine extension with
// its raster twin on two seasons, at 1-4 km cells and radii from under
// one cell to nine cells, and one ulp either side of the boundaries
// TestExtendFineGolden pins. The radii include exact ring distances
// math.Sqrt(d2)*cell, where the test d2 <= (dist/cell)^2 disagrees with
// the dilation's.
func TestExtendFineCrossCheck(t *testing.T) {
	up, down := math.Inf(1), math.Inf(-1)
	radii := []float64{0.6, 1, math.Sqrt(2), 2.5, math.Sqrt(13), math.Sqrt(18), 9}
	for _, season := range fineSeasons {
		for _, cell := range []float64{2000, 3000, 4000} {
			for _, r := range radii {
				checkFineTwin(t, testAnalyzer, season, cell, r*cell)
			}
		}
		// The twin rasterizes 746k cells per call at 1 km and 1.5M at
		// 700 m, so below 2 km only the widest disk and the golden's
		// boundaries run.
		checkFineTwin(t, testAnalyzer, season, 1000, 9000)
	}
	season := fineSeasons[0]
	diag := math.Sqrt(2) * 1000
	for _, c := range []struct{ cell, dist float64 }{
		{1000, math.Nextafter(1000, down)}, {1000, math.Nextafter(1000, up)},
		{1000, math.Nextafter(diag, down)}, {1000, math.Nextafter(diag, up)},
		{700, math.Nextafter(6300, down)}, {700, math.Nextafter(6300, up)},
		{800, 0}, // the paper's setting
		{4000, math.Inf(1)}, {4000, 1e300},
	} {
		checkFineTwin(t, testAnalyzer, season, c.cell, c.dist)
	}

	// Every cell of the window, and a sparse sample that leaves most of
	// each disk to the parallel pass, including the boundaries at 4 km.
	for _, r := range radii {
		checkFineCells(t, 4000, r*4000, 1)
		checkFineCells(t, 4000, r*4000, 7)
	}
	for _, d := range []float64{4000, math.Sqrt(2) * 4000, 36000} {
		checkFineCells(t, 4000, math.Nextafter(d, down), 1)
		checkFineCells(t, 4000, math.Nextafter(d, up), 1)
	}

	// Transceivers along the window's last row and last column, whose
	// disks the window clips.
	region := testAnalyzer.CaliforniaRegion().Intersection(testAnalyzer.World.Grid.Bounds())
	var edge []cellnet.Transceiver
	for x := region.MinX; x < region.MaxX; x += 1500 {
		edge = append(edge, cellnet.Transceiver{XY: geom.Point{X: x, Y: region.MaxY}})
	}
	for y := region.MinY; y < region.MaxY; y += 1500 {
		edge = append(edge, cellnet.Transceiver{XY: geom.Point{X: region.MaxX, Y: y}})
	}
	edge = append(edge, cellnet.Transceiver{XY: geom.Point{X: region.MaxX, Y: region.MaxY}})
	edged := New(testWorld, testWHP, cellnet.NewDataset(testWorld, edge), testCounties)
	for _, cell := range []float64{3000, 4000} {
		g := raster.NewGeometry(region, cell)
		if cx, cy, _ := g.CellOf(geom.Point{X: region.MaxX, Y: region.MaxY}); cx != g.NX-1 || cy != g.NY-1 {
			t.Fatalf("cell %v m: the window's corner transceiver sits in cell (%d, %d) of %dx%d", cell, cx, cy, g.NX, g.NY)
		}
		for _, r := range radii {
			checkFineTwin(t, edged, season, cell, r*cell)
		}
	}
}

// TestExtendFineAllocatesLittle bounds the fine extension at the
// server's finest cell (100 m, the default half mile): it allocates
// for the cells its counts read, not for the window's 74.7M cells.
func TestExtendFineAllocatesLittle(t *testing.T) {
	season := fineSeasons[0]
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := testAnalyzer.ExtendAndValidateFine(season, 100, 0)
	runtime.ReadMemStats(&after)
	if res.WindowTransceivers == 0 {
		t.Fatal("empty window")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<20 {
		t.Fatalf("100 m fine extension allocated %d MiB, want under 64", alloc>>20)
	}
}

var fineSink *FineExtension

// BenchmarkExtendFine times the paper's fine extension (800 m cells, the
// half mile) on the test analyzer.
func BenchmarkExtendFine(b *testing.B) {
	season := fineSeasons[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fineSink = testAnalyzer.ExtendAndValidateFine(season, 800, 0)
	}
}

package wui

import (
	"testing"

	"fivealarms/internal/census"
	"fivealarms/internal/conus"
	"fivealarms/internal/coverage"
	"fivealarms/internal/geom"
	"fivealarms/internal/whp"
)

var (
	testWorld    = conus.Build(conus.Config{Seed: 7, CellSizeM: 20000})
	testWHP      = whp.Build(testWorld, testWorld.Grid, whp.Config{})
	testCounties = census.Synthesize(testWorld, 7)
	testWUI      = Build(testWorld, coverage.BuildPopulation(testWorld, testCounties), testWHP)
)

func TestClassStrings(t *testing.T) {
	if NonWUI.String() != "non-wui" || Interface.String() != "interface" || Intermix.String() != "intermix" {
		t.Error("class strings")
	}
	if Class(9).String() != "invalid" {
		t.Error("invalid class")
	}
	if NonWUI.IsWUI() || !Interface.IsWUI() || !Intermix.IsWUI() {
		t.Error("IsWUI")
	}
}

func TestDefaults(t *testing.T) {
	if got := interfaceDist(100); got != interfaceDistM {
		t.Errorf("interface dist on a 100 m raster = %v, want %v", got, float64(interfaceDistM))
	}
	// Interface buffer floors at one cell.
	if got := interfaceDist(20000); got != 20000 {
		t.Errorf("interface dist = %v, want floored to cell size", got)
	}
}

func TestWUIExists(t *testing.T) {
	counts := testWUI.Classes.Histogram()
	if counts[Intermix] == 0 {
		t.Error("no intermix WUI cells")
	}
	if counts[Interface] == 0 {
		t.Error("no interface WUI cells")
	}
	// WUI must be a minority of the grid.
	total := counts[NonWUI] + counts[Interface] + counts[Intermix]
	wuiFrac := float64(counts[Interface]+counts[Intermix]) / float64(total)
	if wuiFrac > 0.5 {
		t.Errorf("WUI fraction = %v, implausibly high", wuiFrac)
	}
}

func TestUrbanCoreNotIntermix(t *testing.T) {
	// Downtown LA: dense but hazard-free (nonburnable core) — must not be
	// intermix. It may legitimately be interface (mountains within one
	// coarse cell).
	p := testWorld.ToXY(geom.Point{X: -118.2437, Y: 34.0522})
	if c := testWUI.ClassAt(p); c == Intermix {
		t.Errorf("downtown LA = %v", c)
	}
}

func TestEmptyWildlandNotWUI(t *testing.T) {
	// Unpopulated Nevada basin: vegetated but nobody lives there.
	p := testWorld.ToXY(geom.Point{X: -117.0, Y: 41.2})
	if c := testWUI.ClassAt(p); c != NonWUI {
		t.Errorf("empty basin = %v, want non-wui", c)
	}
	// Off-grid points are NonWUI.
	if testWUI.ClassAt(geom.Pt(1e12, 1e12)) != NonWUI {
		t.Error("off-grid should be non-wui")
	}
}

func TestWUIPopulationShare(t *testing.T) {
	pop := testWUI.Population()
	total := float64(testCounties.TotalPopulation())
	frac := pop / total
	// Radeloff: about a third of US homes are in the WUI; the synthetic
	// analog should land in a broad band around that.
	if frac < 0.05 || frac > 0.75 {
		t.Errorf("WUI population share = %.3f", frac)
	}
}

func TestWUIHugsCityEdges(t *testing.T) {
	// The §3.7 claim: WUI cells cluster along city edges. Measure the
	// mean distance to the nearest city for WUI cells versus all
	// inside-CONUS cells — WUI must sit markedly closer.
	// Compare the WUI share of the metro fringe (moderate urban
	// intensity) against the deep rural field (near-zero intensity):
	// city edges must be far richer in WUI.
	g := testWorld.Grid
	fringe, fringeN := 0, 0
	rural, ruralN := 0, 0
	for cy := 0; cy < g.NY; cy++ {
		for cx := 0; cx < g.NX; cx++ {
			if !testWorld.Inside.Get(cx, cy) {
				continue
			}
			u := testWorld.Urban.At(cx, cy)
			isWUI := Class(testWUI.Classes.At(cx, cy)).IsWUI()
			switch {
			case u >= 0.05 && u < 0.45:
				fringeN++
				if isWUI {
					fringe++
				}
			case u < 0.005:
				ruralN++
				if isWUI {
					rural++
				}
			}
		}
	}
	if fringeN == 0 || ruralN == 0 {
		t.Fatal("empty bands")
	}
	fringeFrac := float64(fringe) / float64(fringeN)
	ruralFrac := float64(rural) / float64(ruralN)
	if fringeFrac <= 2*ruralFrac {
		t.Errorf("WUI share at the metro fringe (%.3f) should far exceed deep rural (%.3f)",
			fringeFrac, ruralFrac)
	}
}

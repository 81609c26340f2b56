package risk

import (
	"sort"

	"fivealarms/internal/census"
	"fivealarms/internal/geodata"
	"fivealarms/internal/geom"
	"fivealarms/internal/whp"
)

// ImpactMatrix is the Figure 10 joint classification: at-risk transceivers
// by WHP class (rows: moderate, high, very-high) and county density class
// (columns: moderately-dense, dense, very-dense).
type ImpactMatrix struct {
	// Counts[whpRow][popCol].
	Counts [3][3]int
	// Rural counts at-risk transceivers in counties below 200k people.
	Rural [3]int
}

// popColumn maps a density class to the matrix column, -1 for rural.
func popColumn(d census.DensityClass) int {
	switch d {
	case census.PopModerate:
		return 0
	case census.PopDense:
		return 1
	case census.PopVeryDense:
		return 2
	}
	return -1
}

// PopulationImpact computes the Figure 10 matrix.
func (a *Analyzer) PopulationImpact() *ImpactMatrix {
	m := &ImpactMatrix{}
	countyOf := a.countyOf()
	for i := range a.Data.T {
		row := classColumn(a.classOf[i])
		if row < 0 {
			continue
		}
		ci := int(countyOf[i])
		if ci < 0 {
			continue
		}
		col := popColumn(a.Counties.All[ci].Density())
		if col < 0 {
			m.Rural[row]++
			continue
		}
		m.Counts[row][col]++
	}
	return m
}

// VeryDenseTotal returns the at-risk transceivers in counties above 1.5M
// people (the paper's 57,504 analog).
func (m *ImpactMatrix) VeryDenseTotal() int {
	return m.Counts[0][2] + m.Counts[1][2] + m.Counts[2][2]
}

// PopulousTotal returns the at-risk transceivers in all counties above
// 200k people (the paper's ~250,000 analog, Figure 11 left panel).
func (m *ImpactMatrix) PopulousTotal() int {
	t := 0
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			t += m.Counts[r][c]
		}
	}
	return t
}

// MetroRow is one Figure 12 bar group: a metro's at-risk transceivers per
// WHP class within its analysis window.
type MetroRow struct {
	Metro                 string
	Moderate, High, VHigh int
	// VHVeryDense counts very-high transceivers in very-dense counties
	// within the window (the Figure 11 right panel / §3.6 city list).
	VHVeryDense int
}

// Total returns the metro's combined at-risk count.
func (r MetroRow) Total() int { return r.Moderate + r.High + r.VHigh }

// MetroImpact computes the Figure 12 comparison over the paper's metro
// windows, sorted by total at-risk count descending.
func (a *Analyzer) MetroImpact() []MetroRow {
	return a.MetroImpactWindows(geodata.PaperMetros)
}

// MetroImpactWindows computes the metro comparison for caller-supplied
// windows.
func (a *Analyzer) MetroImpactWindows(windows []geodata.MetroWindow) []MetroRow {
	rows := make([]MetroRow, 0, len(windows))
	countyOf := a.countyOf()
	var buf []int
	for _, mw := range windows {
		center := a.World.ToXY(geom.Point{X: mw.AnchorLon, Y: mw.AnchorLat})
		r := mw.RadiusKM * 1000
		buf = a.Data.Index.QueryRadius(center, r, buf[:0])
		row := MetroRow{Metro: mw.Name}
		for _, ti := range buf {
			switch a.classOf[ti] {
			case whp.Moderate:
				row.Moderate++
			case whp.High:
				row.High++
			case whp.VeryHigh:
				row.VHigh++
			default:
				continue
			}
			if a.classOf[ti] == whp.VeryHigh {
				if ci := int(countyOf[ti]); ci >= 0 &&
					a.Counties.All[ci].Density() == census.PopVeryDense {
					row.VHVeryDense++
				}
			}
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Total() != rows[j].Total() {
			return rows[i].Total() > rows[j].Total()
		}
		return rows[i].Metro < rows[j].Metro
	})
	return rows
}

// MetroWindowCount returns the transceivers of each class inside a
// geographic window (the Figure 13 detail maps' data), keyed by class.
func (a *Analyzer) MetroWindowCount(anchor geom.Point, radiusM float64) map[whp.Class]int {
	center := a.World.ToXY(anchor)
	out := map[whp.Class]int{}
	for _, ti := range a.Data.Index.QueryRadius(center, radiusM, nil) {
		out[a.classOf[ti]]++
	}
	return out
}

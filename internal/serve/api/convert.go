package api

import (
	"sort"

	"fivealarms"
	"fivealarms/internal/geodata"
	"fivealarms/internal/risk"
)

// Table1From builds the Table 1 DTO from the historical overlay rows.
func Table1From(rows []risk.YearOverlay) Table1 {
	t := Table1{Meta: NewMeta(), Rows: make([]Table1Row, 0, len(rows))}
	for _, r := range rows {
		t.Rows = append(t.Rows, Table1Row{
			Year:            r.Year,
			Fires:           r.Fires,
			AcresBurned:     r.AcresBurned,
			TransceiversIn:  r.TransceiversIn,
			PerMillionAcres: r.PerMillionAcres,
		})
	}
	t.TotalInPerimeters = risk.TotalInPerimeters(rows)
	return t
}

// Table2From builds the Table 2 DTO from the provider breakdown rows.
func Table2From(rows []risk.ProviderRow) Table2 {
	t := Table2{Meta: NewMeta(), Rows: make([]Table2Row, 0, len(rows))}
	for _, r := range rows {
		t.Rows = append(t.Rows, Table2Row{
			Provider:    r.Provider,
			Fleet:       r.Fleet,
			Moderate:    r.Moderate,
			High:        r.High,
			VeryHigh:    r.VHigh,
			PctModerate: r.PctM,
			PctHigh:     r.PctH,
			PctVeryHigh: r.PctVH,
		})
	}
	return t
}

// Table3From builds the Table 3 DTO from the radio-technology rows.
func Table3From(rows []risk.RadioRow) Table3 {
	t := Table3{Meta: NewMeta(), Rows: make([]Table3Row, 0, len(rows))}
	for _, r := range rows {
		t.Rows = append(t.Rows, Table3Row{
			Radio:    r.Radio.String(),
			VeryHigh: r.VHigh,
			High:     r.High,
			Moderate: r.Moderate,
			Total:    r.Total,
		})
	}
	return t
}

// WHPOverlayFrom builds the overlay DTO from the §3.3 class overlay.
func WHPOverlayFrom(res *risk.WHPResult) WHPOverlay {
	o := WHPOverlay{
		Meta:    NewMeta(),
		Total:   res.Total,
		AtRisk:  res.AtRisk(),
		ByClass: map[string]int{},
	}
	for c, n := range res.ByClass {
		if n > 0 {
			o.ByClass[c.String()] = n
		}
	}
	for si, row := range res.ByState {
		if row[0]+row[1]+row[2] == 0 {
			continue
		}
		abbrev := "??"
		if si >= 0 && si < len(geodata.States) {
			abbrev = geodata.States[si].Abbrev
		}
		o.States = append(o.States, StateClassCounts{
			State:    abbrev,
			Moderate: row[0],
			High:     row[1],
			VeryHigh: row[2],
		})
	}
	sort.Slice(o.States, func(i, j int) bool { return o.States[i].State < o.States[j].State })
	return o
}

// ValidationFrom builds the validation DTO from the §3.4 result.
func ValidationFrom(v *risk.ValidationResult) Validation {
	return Validation{
		Meta:                NewMeta(),
		InPerimeter:         v.InPerimeter,
		Predicted:           v.Predicted,
		MissesInRoadFires:   v.MissesInRoadFires,
		RoadFireTotal:       v.RoadFireTotal,
		AccuracyPct:         v.AccuracyPct(),
		AccuracyExclRoadPct: v.AccuracyExclRoadPct(),
	}
}

// ExtendFrom builds the extension DTO from the unified ExtendWith
// report. Coarse-path reports carry the national at-risk totals;
// fine-path reports carry the California-window counts.
func ExtendFrom(r *fivealarms.ExtendReport) Extend {
	e := Extend{
		Meta:              NewMeta(),
		Fine:              r.Fine,
		CellSizeM:         r.CellSizeM,
		DistM:             r.DistM,
		VHBefore:          r.VHBefore,
		VHAfter:           r.VHAfter,
		AccuracyBeforePct: r.AccuracyBeforePct,
		AccuracyAfterPct:  r.AccuracyAfterPct,
	}
	if r.Coarse != nil {
		e.TotalAtRiskBefore = r.Coarse.TotalBefore
		e.TotalAtRiskAfter = r.Coarse.TotalAfter
	}
	if r.Window != nil {
		e.WindowTransceivers = r.Window.WindowTransceivers
		e.InPerimeter = r.Window.InPerimeter
	}
	return e
}

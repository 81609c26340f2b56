package risk

import (
	"fmt"

	"fivealarms/internal/wildfire"
)

// Sharded execution support: the transceiver-axis analyses (Tables 1-3
// and the hold-out validation) are sums of independent per-transceiver
// contributions, so a disjoint, exhaustive partition of the fleet can
// compute them shard by shard and merge by integer addition. The
// derived ratios (Table 1's per-million-acres density, Table 2's fleet
// percentages) are NOT summed: each merge recomputes them from the
// merged integer counts with exactly the expression the monolithic
// path uses — one float division on the same operands — which is what
// makes the sharded results bit-identical, not merely close.

// ShardOverlay is one shard's partial transceiver-axis products: raw
// counts over the shard's slice of the fleet, ready for merging.
type ShardOverlay struct {
	// Rows is the shard's transceiver count.
	Rows int
	// Table1 holds per-season partial counts; the ratio fields are
	// garbage until merged (they reflect only this shard's count).
	Table1 []YearOverlay
	// Provider holds Table 2 partial counts; percentage fields likewise
	// defer to the merge.
	Provider []ProviderRow
	// Radio holds Table 3 partial counts.
	Radio []RadioRow
	// Validation holds the shard's §3.4 validation counters.
	Validation ValidationResult
}

// ShardOverlay computes one shard's partial products: the analyzer must
// be built over that shard's transceivers only (the partition owns
// disjointness; this method just counts what it was given).
func (a *Analyzer) ShardOverlay(history []*wildfire.Season, season2019 *wildfire.Season) *ShardOverlay {
	return &ShardOverlay{
		Rows:       a.Data.Len(),
		Table1:     a.HistoricalOverlay(history),
		Provider:   a.ProviderRisk(),
		Radio:      a.RadioTypeRisk(),
		Validation: *a.ValidateFor(season2019, a.classOf),
	}
}

// MergeYearOverlays merges per-shard Table 1 rows in shard order: the
// per-season transceiver counts add, the season facts (year, fires,
// acres) must agree, and the per-million-acres density is recomputed
// from the merged count — the same single division overlaySeason
// performs, so the merged rows are bit-identical to the monolithic
// join. Errors on shape or season-fact mismatches (a merge across
// different histories is always a bug).
func MergeYearOverlays(parts [][]YearOverlay) ([]YearOverlay, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("risk: merging zero Table 1 shards")
	}
	out := append([]YearOverlay(nil), parts[0]...)
	for pi, p := range parts[1:] {
		if len(p) != len(out) {
			return nil, fmt.Errorf("risk: Table 1 shard %d has %d seasons, want %d", pi+1, len(p), len(out))
		}
		for i := range p {
			if p[i].Year != out[i].Year || p[i].Fires != out[i].Fires || p[i].AcresBurned != out[i].AcresBurned {
				return nil, fmt.Errorf("risk: Table 1 shard %d season %d disagrees on season facts", pi+1, i)
			}
			out[i].TransceiversIn += p[i].TransceiversIn
		}
	}
	for i := range out {
		out[i].PerMillionAcres = 0
		if out[i].AcresBurned > 0 {
			out[i].PerMillionAcres = float64(out[i].TransceiversIn) / (out[i].AcresBurned / 1e6)
		}
	}
	return out, nil
}

// MergeProviderRows merges per-shard Table 2 rows: fleet and class
// counts add per provider group, and the fleet-share percentages are
// recomputed from the merged counts with ProviderRisk's expressions.
func MergeProviderRows(parts [][]ProviderRow) ([]ProviderRow, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("risk: merging zero Table 2 shards")
	}
	out := append([]ProviderRow(nil), parts[0]...)
	for pi, p := range parts[1:] {
		if len(p) != len(out) {
			return nil, fmt.Errorf("risk: Table 2 shard %d has %d rows, want %d", pi+1, len(p), len(out))
		}
		for i := range p {
			if p[i].Provider != out[i].Provider {
				return nil, fmt.Errorf("risk: Table 2 shard %d row %d is %q, want %q", pi+1, i, p[i].Provider, out[i].Provider)
			}
			out[i].Fleet += p[i].Fleet
			out[i].Moderate += p[i].Moderate
			out[i].High += p[i].High
			out[i].VHigh += p[i].VHigh
		}
	}
	for i := range out {
		out[i].PctM, out[i].PctH, out[i].PctVH = 0, 0, 0
		if out[i].Fleet == 0 {
			continue
		}
		f := float64(out[i].Fleet)
		out[i].PctM = 100 * float64(out[i].Moderate) / f
		out[i].PctH = 100 * float64(out[i].High) / f
		out[i].PctVH = 100 * float64(out[i].VHigh) / f
	}
	return out, nil
}

// MergeRadioRows merges per-shard Table 3 rows: class counts add per
// technology and the totals are recomputed from the merged counts.
func MergeRadioRows(parts [][]RadioRow) ([]RadioRow, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("risk: merging zero Table 3 shards")
	}
	out := append([]RadioRow(nil), parts[0]...)
	for pi, p := range parts[1:] {
		if len(p) != len(out) {
			return nil, fmt.Errorf("risk: Table 3 shard %d has %d rows, want %d", pi+1, len(p), len(out))
		}
		for i := range p {
			if p[i].Radio != out[i].Radio {
				return nil, fmt.Errorf("risk: Table 3 shard %d row %d is %v, want %v", pi+1, i, p[i].Radio, out[i].Radio)
			}
			out[i].VHigh += p[i].VHigh
			out[i].High += p[i].High
			out[i].Moderate += p[i].Moderate
		}
	}
	for i := range out {
		out[i].Total = out[i].VHigh + out[i].High + out[i].Moderate
	}
	return out, nil
}

// MergeValidations sums per-shard validation counters. All four fields
// are independent per-transceiver counts, so addition over a disjoint,
// exhaustive partition reproduces the monolithic result exactly.
func MergeValidations(parts []ValidationResult) (*ValidationResult, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("risk: merging zero validation shards")
	}
	out := &ValidationResult{}
	for _, p := range parts {
		out.InPerimeter += p.InPerimeter
		out.Predicted += p.Predicted
		out.MissesInRoadFires += p.MissesInRoadFires
		out.RoadFireTotal += p.RoadFireTotal
	}
	return out, nil
}

// MergeShardOverlays merges a band-ordered slice of per-shard partial
// products into the monolithic-equivalent Table 1/2/3 rows and
// validation result. Shards must all cover the same seasons and row
// orders (they do, by construction: every shard analyzer derives them
// from the same inputs).
func MergeShardOverlays(parts []*ShardOverlay) (t1 []YearOverlay, t2 []ProviderRow, t3 []RadioRow, v *ValidationResult, err error) {
	if len(parts) == 0 {
		return nil, nil, nil, nil, fmt.Errorf("risk: merging zero shard overlays")
	}
	table1 := make([][]YearOverlay, len(parts))
	table2 := make([][]ProviderRow, len(parts))
	table3 := make([][]RadioRow, len(parts))
	vals := make([]ValidationResult, len(parts))
	for i, p := range parts {
		if p == nil {
			return nil, nil, nil, nil, fmt.Errorf("risk: shard overlay %d missing", i)
		}
		table1[i], table2[i], table3[i], vals[i] = p.Table1, p.Provider, p.Radio, p.Validation
	}
	if t1, err = MergeYearOverlays(table1); err != nil {
		return nil, nil, nil, nil, err
	}
	if t2, err = MergeProviderRows(table2); err != nil {
		return nil, nil, nil, nil, err
	}
	if t3, err = MergeRadioRows(table3); err != nil {
		return nil, nil, nil, nil, err
	}
	if v, err = MergeValidations(vals); err != nil {
		return nil, nil, nil, nil, err
	}
	return t1, t2, t3, v, nil
}

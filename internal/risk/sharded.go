package risk

import (
	"fmt"

	"fivealarms/internal/wildfire"
)

// Band-pass support: Table 1 and the hold-out validation are sums of
// independent per-transceiver contributions, so a disjoint, exhaustive
// partition of the fleet can compute them shard by shard and merge by
// integer addition. The derived ratio (Table 1's per-million-acres
// density) is NOT summed: the merge recomputes it from the merged
// integer counts with exactly the expression the one-pass join uses —
// one float division on the same operands — which is what makes the
// merged results bit-identical, not merely close.

// ShardOverlay is one shard's partial perimeter-join products: raw
// counts over the shard's slice of the fleet, ready for merging.
type ShardOverlay struct {
	// Rows is the shard's transceiver count.
	Rows int
	// Table1 holds per-season partial counts; the ratio fields are
	// garbage until merged (they reflect only this shard's count).
	Table1 []YearOverlay
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
		Validation: *a.Validate(season2019),
	}
}

// MergeYearOverlays merges per-shard Table 1 rows in shard order: the
// per-season transceiver counts add, the season facts (year, fires,
// acres) must agree, and the per-million-acres density is recomputed
// from the merged count — the same single division overlaySeason
// performs, so the merged rows are bit-identical to the whole-fleet
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

// MergeValidations sums per-shard validation counters. All four fields
// are independent per-transceiver counts, so addition over a disjoint,
// exhaustive partition reproduces the whole-fleet result exactly.
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
// products into the one-pass Table 1 rows and validation result. Shards
// must all cover the same seasons (they do, by construction: every
// shard joins the same simulated history).
func MergeShardOverlays(parts []*ShardOverlay) (t1 []YearOverlay, v *ValidationResult, err error) {
	if len(parts) == 0 {
		return nil, nil, fmt.Errorf("risk: merging zero shard overlays")
	}
	table1 := make([][]YearOverlay, len(parts))
	vals := make([]ValidationResult, len(parts))
	for i, p := range parts {
		if p == nil {
			return nil, nil, fmt.Errorf("risk: shard overlay %d missing", i)
		}
		table1[i], vals[i] = p.Table1, p.Validation
	}
	if t1, err = MergeYearOverlays(table1); err != nil {
		return nil, nil, err
	}
	if v, err = MergeValidations(vals); err != nil {
		return nil, nil, err
	}
	return t1, v, nil
}

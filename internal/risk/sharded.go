package risk

import (
	"fmt"
	"math"

	"fivealarms/internal/pipeline"
	"fivealarms/internal/wildfire"
)

// Band-pass support: Table 1 and the hold-out validation are sums of
// independent per-transceiver contributions, so a disjoint, exhaustive
// partition of the fleet can compute them band by band and merge by
// integer addition. The derived ratio (Table 1's per-million-acres
// density) is NOT summed: the merge recomputes it from the merged
// integer counts with exactly the expression the one-pass join uses —
// one float division on the same operands — which is what makes the
// merged results bit-identical, not merely close. A band joins the
// analyzer's own fleet, index and class cache in place and copies none
// of them.

// A Band selects the transceivers of one band of a partition of the
// fleet for a join: those i with Of[i] == I, or every transceiver when
// Of is nil. MinY and MaxY bound the projected y of every selected
// transceiver (either may be infinite): a join clips each fire's query
// box to them, so a fire outside the band's slab costs nothing, and
// then keeps only the candidates the band selects.
type Band struct {
	Of         []uint16
	I          uint16
	MinY, MaxY float64
}

// wholeFleet selects every transceiver and clips no query box.
var wholeFleet = Band{MinY: math.Inf(-1), MaxY: math.Inf(1)}

// holds reports whether the band selects transceiver i.
func (b Band) holds(i int) bool { return b.Of == nil || b.Of[i] == b.I }

// ShardOverlay is one band's partial perimeter-join products: raw
// counts over the band's slice of the fleet, ready for merging.
type ShardOverlay struct {
	// Table1 holds per-season partial counts; the ratio fields are
	// garbage until merged (they reflect only this band's count).
	Table1 []YearOverlay
	// Validation holds the band's §3.4 validation counters.
	Validation ValidationResult
}

// ShardOverlay computes band b's partial products: Table 1's join over
// history() and the §3.4 validation over season2019(), side by side as
// the two bands of one pipeline.Bands call, so the two seasons' sources
// (memoized simulations, say) can compute at the same time. It panics
// if either source does, once both bands have stopped (see
// pipeline.Bands).
func (a *Analyzer) ShardOverlay(history func() []*wildfire.Season, season2019 func() *wildfire.Season, b Band) *ShardOverlay {
	o := &ShardOverlay{}
	pipeline.Bands(pipeline.BandFunc(func(band, _, _ int) {
		if band == 0 {
			o.Table1 = a.historicalOverlay(history(), b)
		} else {
			o.Validation = *a.validateFor(season2019(), a.classOf, b)
		}
	}), 2, 2)
	return o
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

// MergeShardOverlays merges a band-ordered slice of per-band partial
// products into the one-pass Table 1 rows and validation result. Bands
// must all cover the same seasons (they do, by construction: every
// band joins the same simulated history).
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

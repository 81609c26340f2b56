// Package cellnet models the cellular infrastructure layer: an
// OpenCelliD-style database of cell transceivers (the unit of analysis the
// paper settles on, §2.2.3), grouped into sites, attributed to providers
// through MCC/MNC resolution, and positioned by a generative model
// calibrated to real city locations and 2019-era provider/technology
// shares.
package cellnet

import (
	"fivealarms/internal/conus"
	"fivealarms/internal/geodata"
	"fivealarms/internal/geom"
	"fivealarms/internal/grid"
)

// Radio is the access technology of a transceiver.
type Radio uint8

// Radio technologies present in the study-period snapshot (no 5G yet,
// as the paper notes).
const (
	GSM Radio = iota
	CDMA
	UMTS
	LTE
	numRadios
)

// String implements fmt.Stringer using OpenCelliD's spelling.
func (r Radio) String() string {
	switch r {
	case GSM:
		return "GSM"
	case CDMA:
		return "CDMA"
	case UMTS:
		return "UMTS"
	case LTE:
		return "LTE"
	default:
		return "UNKNOWN"
	}
}

// Radios lists all radio technologies in declaration order.
func Radios() []Radio { return []Radio{GSM, CDMA, UMTS, LTE} }

// Transceiver is a single cell radio, the study's unit of analysis.
type Transceiver struct {
	XY       geom.Point // projected (CONUS Albers) position
	Lon, Lat float64    // geographic position
	MCC, MNC uint16     // provider identity (resolved via geodata)
	Area     uint16     // LAC/TAC
	Cell     uint32     // cell ID
	SiteID   int32      // grouping: transceivers sharing a site/tower
	StateIdx int16      // index into geodata.States, -1 off-CONUS
	Radio    Radio
	Created  uint16 // record-creation year
	Updated  uint16 // last-update year
	Samples  uint16 // crowdsourced observation count
}

// Dataset is an immutable transceiver database plus its spatial index.
type Dataset struct {
	T     []Transceiver
	Index *grid.Index // over projected positions
	World *conus.World
}

// NewDataset wraps transceivers with a spatial index. The slice is
// retained.
func NewDataset(w *conus.World, ts []Transceiver) *Dataset {
	pts := make([]geom.Point, len(ts))
	for i := range ts {
		pts[i] = ts[i].XY
	}
	return &Dataset{T: ts, Index: grid.New(pts, 0), World: w}
}

// Len returns the number of transceivers.
func (d *Dataset) Len() int { return len(d.T) }

// Sites returns the number of distinct sites.
func (d *Dataset) Sites() int {
	seen := map[int32]bool{}
	for i := range d.T {
		seen[d.T[i].SiteID] = true
	}
	return len(seen)
}

// CountByState returns per-state transceiver counts indexed like
// geodata.States.
func (d *Dataset) CountByState() []int {
	out := make([]int, len(geodata.States))
	for i := range d.T {
		if si := d.T[i].StateIdx; si >= 0 && int(si) < len(out) {
			out[si]++
		}
	}
	return out
}

// Resolver maps MCC/MNC pairs to provider names in O(1), for the hot
// overlay loops.
type Resolver struct {
	m map[uint32]string
}

// NewResolver builds a resolver from the embedded geodata table.
func NewResolver() *Resolver {
	r := &Resolver{m: make(map[uint32]string, len(geodata.MCCMNCTable))}
	for _, e := range geodata.MCCMNCTable {
		r.m[uint32(e.MCC)<<16|uint32(e.MNC)] = e.Provider
	}
	return r
}

// Provider resolves a transceiver's provider name, geodata.ProviderUnknown
// when the code pair is unallocated.
func (r *Resolver) Provider(t *Transceiver) string {
	if p, ok := r.m[uint32(t.MCC)<<16|uint32(t.MNC)]; ok {
		return p
	}
	return geodata.ProviderUnknown
}

// ProviderGroup resolves to the Table 2 grouping: one of the four national
// carriers, or "Others" for everything else.
func (r *Resolver) ProviderGroup(t *Transceiver) string {
	p := r.Provider(t)
	if geodata.IsMajorProvider(p) {
		return p
	}
	return geodata.ProviderOthersAg
}

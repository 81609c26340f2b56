package cellnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"

	"fivealarms/internal/conus"
)

// FA5C snapshot format: the one on-disk layout of the transceiver
// layer. Each field is laid out as one contiguous column, in this order
// (little-endian):
//
//	magic    [4]byte "FA5C"
//	version  uint16  (1)
//	flags    uint16  (0; readers reject nonzero)
//	count    uint64  (at most MaxRows)
//	columns, each count long, in this order:
//	  x, y      float64   projected CONUS Albers position
//	  lon, lat  float64   geographic position
//	  mcc, mnc  uint16
//	  area      uint16
//	  cell      uint32
//	  site      uint32    (SiteID two's-complement)
//	  radio     uint8
//	  created   uint8     (year-2000, clamped to [2000, 2255])
//	  updated   uint8
//	  samples   uint16
//	checksum uint64  FNV-1a over every preceding byte
//
// The snapshot serializes the projected x/y columns: the Albers
// projection is a program constant, and storing the projected bits
// makes a warm-loaded study bit-identical to a cold build
// (ToXY(ToLonLat(p)) does not round-trip to the last ulp). State
// assignment is recomputed on load, keeping files world-raster
// independent.

// ErrBadFormat is wrapped by every snapshot decode error.
var ErrBadFormat = errors.New("cellnet: bad binary format")

// MaxRows is the largest transceiver count a snapshot may declare. It
// is also the largest fleet fivealarms.Config accepts, so every study
// that builds can be saved and loaded again.
const MaxRows = 1 << 26

var snapshotMagic = [4]byte{'F', 'A', '5', 'C'}

const (
	snapshotVersion = 1
	// snapshotHeader is magic+version+flags+count.
	snapshotHeader = 4 + 2 + 2 + 8
	// snapshotRowBytes is the per-row payload across all columns: the
	// sum of the snapshotColumns widths.
	snapshotRowBytes = 8 + 8 + 8 + 8 + 2 + 2 + 2 + 4 + 4 + 1 + 1 + 1 + 2 // 51
	// maxProjectedM bounds the projected columns. Every Albers
	// projection of a point on Earth lies within ~3.4e7 m of the
	// origin, and the spatial index cannot size a grid over extents
	// that overflow an int.
	maxProjectedM = 1e8
)

// snapshotColumn is one FA5C column: its element width and how one
// transceiver's value is put into and read back from an element.
type snapshotColumn struct {
	width int
	put   func(b []byte, t *Transceiver)
	get   func(b []byte, t *Transceiver)
}

var le = binary.LittleEndian

// snapshotColumns lists the columns in wire order.
var snapshotColumns = [...]snapshotColumn{
	{8, func(b []byte, t *Transceiver) { le.PutUint64(b, math.Float64bits(t.XY.X)) },
		func(b []byte, t *Transceiver) { t.XY.X = math.Float64frombits(le.Uint64(b)) }},
	{8, func(b []byte, t *Transceiver) { le.PutUint64(b, math.Float64bits(t.XY.Y)) },
		func(b []byte, t *Transceiver) { t.XY.Y = math.Float64frombits(le.Uint64(b)) }},
	{8, func(b []byte, t *Transceiver) { le.PutUint64(b, math.Float64bits(t.Lon)) },
		func(b []byte, t *Transceiver) { t.Lon = math.Float64frombits(le.Uint64(b)) }},
	{8, func(b []byte, t *Transceiver) { le.PutUint64(b, math.Float64bits(t.Lat)) },
		func(b []byte, t *Transceiver) { t.Lat = math.Float64frombits(le.Uint64(b)) }},
	{2, func(b []byte, t *Transceiver) { le.PutUint16(b, t.MCC) },
		func(b []byte, t *Transceiver) { t.MCC = le.Uint16(b) }},
	{2, func(b []byte, t *Transceiver) { le.PutUint16(b, t.MNC) },
		func(b []byte, t *Transceiver) { t.MNC = le.Uint16(b) }},
	{2, func(b []byte, t *Transceiver) { le.PutUint16(b, t.Area) },
		func(b []byte, t *Transceiver) { t.Area = le.Uint16(b) }},
	{4, func(b []byte, t *Transceiver) { le.PutUint32(b, t.Cell) },
		func(b []byte, t *Transceiver) { t.Cell = le.Uint32(b) }},
	{4, func(b []byte, t *Transceiver) { le.PutUint32(b, uint32(t.SiteID)) },
		func(b []byte, t *Transceiver) { t.SiteID = int32(le.Uint32(b)) }},
	{1, func(b []byte, t *Transceiver) { b[0] = uint8(t.Radio) },
		func(b []byte, t *Transceiver) { t.Radio = Radio(b[0]) }},
	{1, func(b []byte, t *Transceiver) { b[0] = clampYear(t.Created) },
		func(b []byte, t *Transceiver) { t.Created = 2000 + uint16(b[0]) }},
	{1, func(b []byte, t *Transceiver) { b[0] = clampYear(t.Updated) },
		func(b []byte, t *Transceiver) { t.Updated = 2000 + uint16(b[0]) }},
	{2, func(b []byte, t *Transceiver) { le.PutUint16(b, t.Samples) },
		func(b []byte, t *Transceiver) { t.Samples = le.Uint16(b) }},
}

// clampYear stores a year as its offset from 2000 in one byte.
func clampYear(y uint16) uint8 {
	if y < 2000 {
		return 0
	}
	if y > 2255 {
		return 255
	}
	return uint8(y - 2000)
}

// WriteSnapshot streams the dataset in the FA5C snapshot format.
func (d *Dataset) WriteSnapshot(w io.Writer) error {
	h := fnv.New64a()
	bw := bufio.NewWriter(io.MultiWriter(w, h))
	var hdr [snapshotHeader]byte
	copy(hdr[0:4], snapshotMagic[:])
	le.PutUint16(hdr[4:6], snapshotVersion)
	le.PutUint16(hdr[6:8], 0)
	le.PutUint64(hdr[8:16], uint64(len(d.T)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return fmt.Errorf("cellnet: writing snapshot header: %w", err)
	}
	var buf [8]byte
	for ci, col := range snapshotColumns {
		b := buf[:col.width]
		for i := range d.T {
			col.put(b, &d.T[i])
			if _, err := bw.Write(b); err != nil {
				return fmt.Errorf("cellnet: writing snapshot column %d: %w", ci, err)
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("cellnet: flushing snapshot: %w", err)
	}
	var sum [8]byte
	le.PutUint64(sum[:], h.Sum64())
	if _, err := w.Write(sum[:]); err != nil {
		return fmt.Errorf("cellnet: writing snapshot checksum: %w", err)
	}
	return nil
}

// parseSnapshotHeader validates the fixed header and returns the row
// count. Errors wrap ErrBadFormat.
func parseSnapshotHeader(hdr []byte) (int, error) {
	var magic [4]byte
	copy(magic[:], hdr[0:4])
	if magic != snapshotMagic {
		return 0, fmt.Errorf("%w: snapshot magic %q", ErrBadFormat, magic[:])
	}
	if v := le.Uint16(hdr[4:6]); v != snapshotVersion {
		return 0, fmt.Errorf("%w: snapshot version %d", ErrBadFormat, v)
	}
	if f := le.Uint16(hdr[6:8]); f != 0 {
		return 0, fmt.Errorf("%w: snapshot flags %#x", ErrBadFormat, f)
	}
	count := le.Uint64(hdr[8:16])
	if count > MaxRows {
		return 0, fmt.Errorf("%w: snapshot declares %d rows, limit %d", ErrBadFormat, count, MaxRows)
	}
	return int(count), nil
}

// snapshotSize returns the exact file size of an n-row snapshot.
func snapshotSize(n int) int64 {
	return int64(snapshotHeader) + int64(n)*snapshotRowBytes + 8
}

// readBounded reads r to EOF, or until it has read limit bytes. The
// buffer starts at 1 MiB at most and doubles (capped at limit) only as
// bytes arrive, so its capacity never exceeds the larger of 1 MiB and
// twice the bytes actually present, whatever row count the header
// declared.
func readBounded(r io.Reader, limit int64) ([]byte, error) {
	lr := io.LimitReader(r, limit)
	buf := make([]byte, 0, min(limit, 1<<20))
	for {
		n, err := lr.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
		if len(buf) == cap(buf) && int64(len(buf)) < limit {
			buf = append(make([]byte, 0, min(2*int64(len(buf)), limit)), buf...)
		}
	}
}

// validateSnapshotRow applies the per-row invariants: a known radio
// technology, geographic coordinates in range, and projected
// coordinates within maxProjectedM.
func validateSnapshotRow(t *Transceiver, i int) error {
	if t.Radio >= numRadios {
		return fmt.Errorf("%w: snapshot row %d: radio %d", ErrBadFormat, i, t.Radio)
	}
	if math.IsNaN(t.Lon) || math.IsNaN(t.Lat) ||
		t.Lon < -180 || t.Lon > 180 || t.Lat < -90 || t.Lat > 90 {
		return fmt.Errorf("%w: snapshot row %d: position (%v, %v)", ErrBadFormat, i, t.Lon, t.Lat)
	}
	// The negated comparison also rejects NaN.
	if !(math.Abs(t.XY.X) <= maxProjectedM && math.Abs(t.XY.Y) <= maxProjectedM) {
		return fmt.Errorf("%w: snapshot row %d: projected (%v, %v)", ErrBadFormat, i, t.XY.X, t.XY.Y)
	}
	return nil
}

// ReadSnapshot parses a whole FA5C snapshot strictly — header, exact
// length, checksum and per-row validation — and resolves it into a
// Dataset over the world (state assignment recomputed, spatial index
// rebuilt). Projected positions come from the file bit-for-bit, so a
// dataset written by the same program version round-trips exactly. The
// read is bounded by the bytes present, not by the header's row count.
// Every error wraps ErrBadFormat, and no partially decoded dataset ever
// escapes.
func ReadSnapshot(r io.Reader, w *conus.World) (*Dataset, error) {
	var hdr [snapshotHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: reading snapshot header: %v", ErrBadFormat, err)
	}
	n, err := parseSnapshotHeader(hdr[:])
	if err != nil {
		return nil, err
	}
	// Read one byte past the columns and checksum to detect trailing data.
	want := snapshotSize(n) - snapshotHeader
	body, err := readBounded(r, want+1)
	if err != nil {
		return nil, fmt.Errorf("%w: reading snapshot body: %v", ErrBadFormat, err)
	}
	switch got := int64(len(body)); {
	case got < want:
		return nil, fmt.Errorf("%w: snapshot truncated: %d of %d body bytes for %d rows", ErrBadFormat, got, want, n)
	case got > want:
		return nil, fmt.Errorf("%w: trailing data after %d snapshot rows", ErrBadFormat, n)
	}
	raw, sum := body[:want-8], body[want-8:]
	h := fnv.New64a()
	h.Write(hdr[:])
	h.Write(raw)
	if le.Uint64(sum) != h.Sum64() {
		return nil, fmt.Errorf("%w: snapshot checksum mismatch", ErrBadFormat)
	}
	ts := make([]Transceiver, n)
	off := 0
	for _, col := range snapshotColumns {
		for i := range ts {
			col.get(raw[off:off+col.width], &ts[i])
			off += col.width
		}
	}
	for i := range ts {
		if err := validateSnapshotRow(&ts[i], i); err != nil {
			return nil, err
		}
		ts[i].StateIdx = int16(w.StateAt(ts[i].XY))
	}
	return NewDataset(w, ts), nil
}

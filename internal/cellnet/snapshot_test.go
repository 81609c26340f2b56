package cellnet

import (
	"bytes"
	"errors"
	"io"
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"fivealarms/internal/conus"
)

func snapTestWorld(t testing.TB) *conus.World {
	t.Helper()
	return conus.Build(conus.Config{Seed: 1, CellSizeM: 40000})
}

func snapTestDataset(t testing.TB, w *conus.World, n int) *Dataset {
	t.Helper()
	d := Generate(w, GenConfig{Seed: 11, Total: n})
	if d.Len() < 8 {
		t.Fatalf("generator produced %d rows for Total=%d; tests need at least 8", d.Len(), n)
	}
	return d
}

// encodeSnapshot is the test helper: dataset -> snapshot bytes.
func encodeSnapshot(t testing.TB, d *Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	return buf.Bytes()
}

func TestSnapshotRoundTripBitIdentical(t *testing.T) {
	w := snapTestWorld(t)
	d := snapTestDataset(t, w, 2000)
	raw := encodeSnapshot(t, d)
	if want := snapshotSize(d.Len()); int64(len(raw)) != want {
		t.Fatalf("snapshot size = %d, want %d", len(raw), want)
	}
	got, err := ReadSnapshot(bytes.NewReader(raw), w)
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if got.Len() != d.Len() {
		t.Fatalf("round-trip length = %d, want %d", got.Len(), d.Len())
	}
	// Bit-identical round trip, including the projected position: the
	// snapshot serializes x/y rather than reprojecting on load.
	if !reflect.DeepEqual(got.T, d.T) {
		for i := range d.T {
			if got.T[i] != d.T[i] {
				t.Fatalf("row %d differs:\n got %+v\nwant %+v", i, got.T[i], d.T[i])
			}
		}
		t.Fatalf("datasets differ")
	}
}

// TestSnapshotFixtureWireFormat pins the FA5C v1 bytes: the fixture was
// written by an earlier encoder, so an encoder and decoder that changed
// the format together would still round-trip but fail here.
func TestSnapshotFixtureWireFormat(t *testing.T) {
	fixture, err := os.ReadFile("testdata/v1_seed11.fa5c")
	if err != nil {
		t.Fatal(err)
	}
	w := snapTestWorld(t)
	want := Generate(w, GenConfig{Seed: 11, Total: 64})
	got, err := ReadSnapshot(bytes.NewReader(fixture), w)
	if err != nil {
		t.Fatalf("ReadSnapshot(fixture): %v", err)
	}
	if !reflect.DeepEqual(got.T, want.T) {
		t.Fatalf("fixture decodes to %d rows that differ from the %d regenerated rows", got.Len(), want.Len())
	}
	if again := encodeSnapshot(t, got); !bytes.Equal(again, fixture) {
		t.Fatalf("fixture re-encodes to %d bytes that differ from its %d", len(again), len(fixture))
	}
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	w := snapTestWorld(t)
	d := snapTestDataset(t, w, 64)
	raw := encodeSnapshot(t, d)

	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }},
		{"bad version", func(b []byte) []byte { b[4] = 99; return b }},
		{"nonzero flags", func(b []byte) []byte { b[6] = 1; return b }},
		{"oversized count", func(b []byte) []byte {
			b[8], b[9], b[10], b[11] = 0xff, 0xff, 0xff, 0xff
			return b
		}},
		{"declared count beyond payload", func(b []byte) []byte { b[8]++; return b }},
		{"truncated header", func(b []byte) []byte { return b[:10] }},
		{"truncated columns", func(b []byte) []byte { return b[:len(b)/2] }},
		{"truncated checksum", func(b []byte) []byte { return b[:len(b)-3] }},
		{"flipped column bit", func(b []byte) []byte { b[snapshotHeader+17] ^= 0x10; return b }},
		{"flipped checksum", func(b []byte) []byte { b[len(b)-1] ^= 1; return b }},
		{"trailing garbage", func(b []byte) []byte { return append(b, 0xEE) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mut := tc.mutate(append([]byte(nil), raw...))
			if _, err := ReadSnapshot(bytes.NewReader(mut), w); !errors.Is(err, ErrBadFormat) {
				t.Fatalf("ReadSnapshot(%s) err = %v, want ErrBadFormat", tc.name, err)
			}
		})
	}
}

func TestSnapshotRejectsBadRows(t *testing.T) {
	w := snapTestWorld(t)
	d := snapTestDataset(t, w, 400)
	// Corrupt semantic fields pre-encode so header and checksum stay
	// valid: decode must still reject the rows.
	for name, mut := range map[string]func([]Transceiver){
		"bad radio":     func(ts []Transceiver) { ts[3].Radio = 200 },
		"nan lon":       func(ts []Transceiver) { ts[1].Lon = math.NaN() },
		"lat range":     func(ts []Transceiver) { ts[2].Lat = 91 },
		"inf projected": func(ts []Transceiver) { ts[4].XY.X = math.Inf(1) },
		// Finite but beyond any projection of a point on Earth: the
		// spatial index cannot size a grid over such an extent.
		"far projected": func(ts []Transceiver) { ts[5].XY.Y = -1e300 },
	} {
		t.Run(name, func(t *testing.T) {
			ts := append([]Transceiver(nil), d.T...)
			mut(ts)
			raw := encodeSnapshot(t, &Dataset{T: ts})
			if _, err := ReadSnapshot(bytes.NewReader(raw), w); !errors.Is(err, ErrBadFormat) {
				t.Fatalf("err = %v, want ErrBadFormat", err)
			}
		})
	}
}

// TestSnapshotReadFailurePropagates: an I/O error from the underlying
// reader, in the header or in the body, fails the load with
// ErrBadFormat and names the cause.
func TestSnapshotReadFailurePropagates(t *testing.T) {
	w := snapTestWorld(t)
	d := snapTestDataset(t, w, 200)
	raw := encodeSnapshot(t, d)
	cause := errors.New("disk on fire")
	for _, keep := range []int{snapshotHeader / 2, snapshotHeader + 100} {
		r := io.MultiReader(bytes.NewReader(raw[:keep]), iotest.ErrReader(cause))
		got, err := ReadSnapshot(r, w)
		if got != nil || !errors.Is(err, ErrBadFormat) || !strings.Contains(err.Error(), cause.Error()) {
			t.Fatalf("failing after %d bytes: dataset=%v err=%v, want ErrBadFormat naming %q", keep, got, err, cause)
		}
	}
}

// TestSnapshotForgedHeaderAllocatesLittle: a header that declares the
// maximum row count but ships no rows is rejected without allocating
// for the rows it claims (2^26 rows would be 3.4 GB of columns).
func TestSnapshotForgedHeaderAllocatesLittle(t *testing.T) {
	w := snapTestWorld(t)
	forged := encodeSnapshot(t, &Dataset{})[:snapshotHeader]
	le.PutUint64(forged[8:16], MaxRows)
	for _, input := range [][]byte{forged, append(forged, make([]byte, 1<<16)...)} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadSnapshot(bytes.NewReader(input), w)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrBadFormat) {
			t.Fatalf("%d-byte forged input: err = %v, want ErrBadFormat", len(input), err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<20 {
			t.Fatalf("%d-byte forged input allocated %d MiB, want under 64", len(input), alloc>>20)
		}
	}
}

// TestSnapshotClampsYears: years are stored as one byte past 2000, so
// years outside [2000, 2255] load as the nearest end of that range.
func TestSnapshotClampsYears(t *testing.T) {
	w := snapTestWorld(t)
	ts := append([]Transceiver(nil), snapTestDataset(t, w, 64).T...)
	ts[0].Created, ts[0].Updated = 1995, 2300
	got, err := ReadSnapshot(bytes.NewReader(encodeSnapshot(t, &Dataset{T: ts})), w)
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if c, u := got.T[0].Created, got.T[0].Updated; c != 2000 || u != 2255 {
		t.Fatalf("years 1995/2300 load as %d/%d, want 2000/2255", c, u)
	}
}

// failAfter accepts n bytes, then fails every write.
type failAfter struct{ n int }

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		k := f.n
		f.n = 0
		return k, errors.New("device full")
	}
	f.n -= len(p)
	return len(p), nil
}

// TestSnapshotWriteErrors: a writer failing in the columns, at the
// final flush, or at the checksum fails WriteSnapshot.
func TestSnapshotWriteErrors(t *testing.T) {
	d := snapTestDataset(t, snapTestWorld(t), 2000)
	size := int(snapshotSize(d.Len()))
	for _, n := range []int{0, size - 9, size - 8} {
		if err := d.WriteSnapshot(&failAfter{n: n}); err == nil {
			t.Errorf("writer failing after %d of %d bytes: WriteSnapshot succeeded", n, size)
		}
	}
}

func BenchmarkSnapshotRead(b *testing.B) {
	w := snapTestWorld(b)
	raw := encodeSnapshot(b, snapTestDataset(b, w, 5000))
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadSnapshot(bytes.NewReader(raw), w); err != nil {
			b.Fatal(err)
		}
	}
}

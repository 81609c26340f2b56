package cellnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sync"
	"testing"

	"fivealarms/internal/conus"
)

// fuzzWorld builds the shared decode world once per process: the fuzz
// loop must not pay a world build per input.
var fuzzWorld = sync.OnceValue(func() *conus.World {
	return conus.Build(conus.Config{Seed: 1, CellSizeM: 40000})
})

// FuzzSnapshotDecode hammers the snapshot decoder with arbitrary
// bytes: it must never panic, must reject malformed input with an
// ErrBadFormat error (no partial dataset escaping), and accepted input
// must re-encode to the same bytes (FA5C has one encoding per dataset).
func FuzzSnapshotDecode(f *testing.F) {
	w := fuzzWorld()
	d := Generate(w, GenConfig{Seed: 11, Total: 400})
	var buf bytes.Buffer
	if err := d.WriteSnapshot(&buf); err != nil {
		f.Fatalf("seed corpus: %v", err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:snapshotHeader])
	f.Add(valid[:len(valid)-1])
	trunc := append([]byte(nil), valid...)
	trunc[5] = 0xFF // absurd version
	f.Add(trunc)
	huge := append([]byte(nil), valid[:snapshotHeader]...)
	binary.LittleEndian.PutUint64(huge[8:16], 1<<40) // oversized header count
	f.Add(huge)
	flip := append([]byte(nil), valid...)
	flip[snapshotHeader+9] ^= 0x40
	f.Add(flip)

	f.Fuzz(func(t *testing.T, data []byte) {
		// Cap input size to keep the fuzz loop fast. A forged header
		// costs no more than the bytes it arrives with: the reader
		// allocates rows only after the body is present and checksummed.
		if len(data) > 1<<20 {
			return
		}
		got, err := ReadSnapshot(bytes.NewReader(data), w)
		if err != nil {
			if got != nil || !errors.Is(err, ErrBadFormat) {
				t.Fatalf("rejection returned dataset %v and err %v, want nil and ErrBadFormat", got, err)
			}
			return
		}
		var out bytes.Buffer
		if err := got.WriteSnapshot(&out); err != nil {
			t.Fatalf("re-encode of accepted input: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("accepted %d-byte input re-encodes to %d different bytes", len(data), out.Len())
		}
	})
}

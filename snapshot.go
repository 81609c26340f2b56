package fivealarms

import (
	"fmt"
	"os"

	"fivealarms/internal/cellnet"
	"fivealarms/internal/conus"
)

// loadSnapshotDataset warm-loads the transceiver layer from a columnar
// snapshot file (Config.SnapshotPath). Strict whole-file decode:
// header, checksum, per-row validation — a corrupt or truncated file
// fails the build rather than producing a short dataset.
func loadSnapshotDataset(path string, w *conus.World) (*cellnet.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("opening transceiver snapshot: %w", err)
	}
	defer f.Close()
	d, err := cellnet.ReadSnapshot(f, w)
	if err != nil {
		return nil, fmt.Errorf("loading transceiver snapshot %s: %w", path, err)
	}
	return d, nil
}

// WriteSnapshot saves the study's transceiver layer as a columnar
// snapshot file, suitable for Config.SnapshotPath warm loads. A study
// built from the written file with the same world configuration is
// bit-identical to this one (the snapshot stores projected positions
// exactly). The file is written atomically enough for local use: on
// encode error the partial file is removed.
func (s *Study) WriteSnapshot(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating transceiver snapshot: %w", err)
	}
	if err := s.Data.WriteSnapshot(f); err != nil {
		f.Close()       //fivealarms:allow(errflow) best-effort cleanup; the write error above is the one worth returning
		os.Remove(path) //fivealarms:allow(errflow) best-effort cleanup; the write error above is the one worth returning
		return fmt.Errorf("writing transceiver snapshot %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(path) //fivealarms:allow(errflow) best-effort cleanup; the close error above is the one worth returning
		return fmt.Errorf("closing transceiver snapshot %s: %w", path, err)
	}
	return nil
}

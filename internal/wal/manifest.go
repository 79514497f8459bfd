package wal

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"

	"ids/internal/fault"
)

// ManifestName is the manifest file inside the data directory.
const ManifestName = "MANIFEST"

// Manifest is the durable pointer to the last consistent checkpoint:
// the snapshot file plus the last LSN it contains. Recovery loads the
// snapshot and replays the WAL from LastLSN+1. It is replaced with an
// atomic temp-file rename, so a crash mid-checkpoint always leaves the
// manifest pointing at the previous consistent (snapshot, LSN) pair.
type Manifest struct {
	Snapshot string `json:"snapshot"`
	LastLSN  uint64 `json:"last_lsn"`
	// Vectors names the vector-store snapshot covering the same LSN
	// range ("" when the engine had no vector stores at checkpoint
	// time — older manifests simply lack the field).
	Vectors string `json:"vectors,omitempty"`
}

// ReadManifestFS loads the manifest from dir through fsys; (nil, nil)
// when none exists (fresh directory).
func ReadManifestFS(fsys fault.FS, dir string) (*Manifest, error) {
	b, err := fsys.ReadFile(filepath.Join(dir, ManifestName))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("wal: corrupt manifest: %w", err)
	}
	if m.Snapshot == "" || m.Snapshot != filepath.Base(m.Snapshot) {
		return nil, fmt.Errorf("wal: corrupt manifest: bad snapshot name %q", m.Snapshot)
	}
	if m.Vectors != "" && m.Vectors != filepath.Base(m.Vectors) {
		return nil, fmt.Errorf("wal: corrupt manifest: bad vectors name %q", m.Vectors)
	}
	return &m, nil
}

// WriteManifestFS atomically replaces the manifest in dir through fsys:
// write temp, fsync, rename, fsync directory. Every step of the swap is
// a fault-injection seam.
func WriteManifestFS(fsys fault.FS, dir string, m Manifest) error {
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	f, err := fsys.CreateTemp(dir, ManifestName+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return err
	}
	if err := fsys.Rename(tmp, filepath.Join(dir, ManifestName)); err != nil {
		fsys.Remove(tmp)
		return err
	}
	return fsys.SyncDir(dir)
}

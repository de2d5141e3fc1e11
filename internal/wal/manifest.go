package wal

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// manifestName is the root of the data directory's metadata: it maps each
// table to its last checkpoint image, the main-store generation that image
// was cut at, and the checkpoint LSN — the watermark below which the
// table's log records are superseded by the image. The manifest is replaced
// atomically (temp file, fsync, rename, directory fsync), so recovery
// always sees either the old or the new checkpoint state, never a torn mix.
const manifestName = "MANIFEST"

const manifestVersion = 1

// manifestTable is one table's checkpoint pointer.
type manifestTable struct {
	Image         string `json:"image"`
	Gen           uint64 `json:"gen"`
	CheckpointLSN uint64 `json:"checkpoint_lsn"`
}

// manifestData is the serialized manifest.
type manifestData struct {
	Version int                      `json:"version"`
	Tables  map[string]manifestTable `json:"tables"`
}

// readManifest loads the manifest, returning an empty one if the file does
// not exist (a fresh data directory).
func readManifest(fs FS, dir string) (*manifestData, error) {
	f, err := fs.Open(filepath.Join(dir, manifestName))
	if err != nil {
		if os.IsNotExist(err) {
			return &manifestData{Version: manifestVersion, Tables: map[string]manifestTable{}}, nil
		}
		return nil, fmt.Errorf("wal: open manifest: %w", err)
	}
	defer f.Close()
	var m manifestData
	if err := json.NewDecoder(f).Decode(&m); err != nil {
		return nil, fmt.Errorf("wal: manifest corrupt: %w", err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("wal: manifest version %d not supported", m.Version)
	}
	if m.Tables == nil {
		m.Tables = map[string]manifestTable{}
	}
	return &m, nil
}

// writeManifest atomically replaces the manifest (replaceFile).
func writeManifest(fs FS, dir string, m *manifestData) error {
	blob, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("wal: encode manifest: %w", err)
	}
	blob = append(blob, '\n')
	return replaceFile(fs, dir, manifestName, func(w io.Writer) error {
		_, err := w.Write(blob)
		return err
	})
}

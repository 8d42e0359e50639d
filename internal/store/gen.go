package store

// Generation-numbered snapshot files: the on-disk contract between the
// streaming publisher (internal/stream writes gen-%08d.v2.snap into its
// snapshot dir), the replica fetcher (internal/serve reaches these files
// through the internal/shard manifest that names them), and retention
// (pruning keeps the newest K generation files). The naming and the
// directory-scan live here so every tier parses the same convention.

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// genFormat names one published generation. The zero-padded width keeps
// lexical and numeric order identical, so directory listings read in
// publish order.
const genFormat = "gen-%08d.v2.snap"

// GenPath returns the snapshot path for one generation under dir.
func GenPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf(genFormat, gen))
}

// ParseGenName extracts the generation from a snapshot file name
// (base name, not a path). It reports false for anything that is not a
// generation file.
func ParseGenName(name string) (uint64, bool) {
	var gen uint64
	var tail string
	n, err := fmt.Sscanf(name, "gen-%d.v2.snap%s", &gen, &tail)
	if err == nil && n != 1 || tail != "" {
		return 0, false
	}
	if n != 1 || gen == 0 {
		return 0, false
	}
	// Round-trip: rejects unpadded or over-long digit runs so one file
	// never aliases two generations.
	if fmt.Sprintf(genFormat, gen) != name {
		return 0, false
	}
	return gen, true
}

// GenFile is one generation snapshot present in a directory — the unit
// of the publisher's retention.
type GenFile struct {
	Generation uint64 `json:"generation"`
	Name       string `json:"name"`
	Size       int64  `json:"size"`
}

// ScanGenerations lists the generation snapshots in dir, ascending by
// generation. Non-generation files are ignored; a missing directory is
// an empty listing, not an error (the publisher creates it lazily).
func ScanGenerations(dir string) ([]GenFile, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: scanning %s: %w", dir, err)
	}
	var out []GenFile
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		gen, ok := ParseGenName(ent.Name())
		if !ok {
			continue
		}
		info, err := ent.Info()
		if err != nil {
			continue // raced with a prune; the file is gone
		}
		out = append(out, GenFile{Generation: gen, Name: ent.Name(), Size: info.Size()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Generation < out[j].Generation })
	return out, nil
}

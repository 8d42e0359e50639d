package store

// v2 section reuse: the O(changed-bytes) save path of the streaming
// publisher.
//
// A v2 snapshot is a section table plus independently CRC'd, 64-byte
// aligned payloads (v2.go) — a layout chosen so a writer can splice
// whole sections from a previous file. Between two fold-in publishes the
// base-model blocks (Θ, Φ, η, ν, POPF, XI) are the very same heap arrays
// — the extended-model builder aliases, never copies, them — so their
// encoded bytes cannot have changed. SaveV2Reusing detects that by slice
// identity (same backing array pointer, same length, same shape) against
// a SectionManifest recorded at the previous save, takes the section's
// CRC from the manifest, and byte-copies the payload from the previous
// file (re-verifying the CRC in flight) instead of re-encoding it.
//
// Soundness contract: identity-based reuse assumes the backing arrays
// are immutable between saves. That is the streaming publisher's
// discipline (a delta-Gibbs pass allocates a fresh refined model rather
// than mutating in place); code that mutates a matrix in place must save
// with SaveV2, or first drop that section from the manifest
// (SectionManifest.Forget) — as the publisher does for Π, which it patches
// in place whenever the engine serves the file mapping instead.
//
// Any reuse failure — the previous file missing, truncated, or failing
// its CRC — falls back to a full re-encode of every section, so a
// reusing save can never produce worse output than SaveV2, only a
// faster byte-identical one.

import (
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"repro/internal/core"
)

// manifestEntry records where one section landed in the previous
// snapshot file and which in-memory block produced it.
type manifestEntry struct {
	off  uint64
	size uint64
	crc  uint32
	dims []uint64
	// ident is the backing slice the payload was encoded from; reuse
	// requires the next save to present the identical slice (same
	// pointer, same length).
	ident any
}

// SectionManifest remembers a written v2 snapshot's section layout plus
// the identity of the in-memory block behind each numeric section, so
// the next SaveV2Reusing can copy byte-identical sections instead of
// re-encoding them. Manifests are produced by SaveV2Reusing and are only
// meaningful for the exact file they describe.
type SectionManifest struct {
	path    string
	entries map[string]manifestEntry

	reused int
}

// Path returns the snapshot file the manifest describes.
func (sm *SectionManifest) Path() string { return sm.path }

// ReusedSections reports how many sections the save that produced this
// manifest spliced from its predecessor (0 for a full encode).
func (sm *SectionManifest) ReusedSections() int { return sm.reused }

// sameIdent reports whether two recorded backing slices are the same
// array: equal length and equal first-element address. Only slice kinds
// the v2 planner records are comparable; anything else never matches.
func sameIdent(a, b any) bool {
	switch x := a.(type) {
	case []float64:
		y, ok := b.([]float64)
		return ok && len(x) == len(y) && (len(x) == 0 || &x[0] == &y[0])
	case []int32:
		y, ok := b.([]int32)
		return ok && len(x) == len(y) && (len(x) == 0 || &x[0] == &y[0])
	case []int:
		y, ok := b.([]int)
		return ok && len(x) == len(y) && (len(x) == 0 || &x[0] == &y[0])
	}
	return false
}

func sameDims(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// matchReusable returns the sections of plan whose bytes are guaranteed
// identical to the previous save: same tag, same backing array, same
// shape, same payload size.
func matchReusable(plan []*v2section, prev *SectionManifest) map[string]manifestEntry {
	if prev == nil || len(prev.entries) == 0 {
		return nil
	}
	reuse := make(map[string]manifestEntry)
	for _, sec := range plan {
		if sec.ident == nil {
			continue
		}
		ent, ok := prev.entries[sec.tag]
		if !ok || ent.size != sec.size || !sameDims(ent.dims, sec.dims) || !sameIdent(ent.ident, sec.ident) {
			continue
		}
		reuse[sec.tag] = ent
	}
	return reuse
}

// spliceSection copies one section payload from the previous snapshot
// file, verifying the manifest CRC in flight.
func spliceSection(w io.Writer, prevFile io.ReaderAt, ent manifestEntry, scratch []byte) error {
	if prevFile == nil {
		return fmt.Errorf("no previous snapshot file")
	}
	crc := crc32.NewIEEE()
	sr := io.NewSectionReader(prevFile, int64(ent.off), int64(ent.size))
	n, err := io.CopyBuffer(io.MultiWriter(w, crc), sr, scratch)
	if err != nil {
		return err
	}
	if uint64(n) != ent.size {
		return fmt.Errorf("previous snapshot truncated (%d of %d bytes)", n, ent.size)
	}
	if got := crc.Sum32(); got != ent.crc {
		return fmt.Errorf("checksum mismatch (payload %08x, manifest %08x)", got, ent.crc)
	}
	return nil
}

// manifestFor records the layout just written for path.
func manifestFor(path string, plan []*v2section, reused int) *SectionManifest {
	sm := &SectionManifest{
		path:    path,
		entries: make(map[string]manifestEntry, len(plan)),
		reused:  reused,
	}
	for _, sec := range plan {
		sm.entries[sec.tag] = manifestEntry{
			off:   sec.off,
			size:  sec.size,
			crc:   sec.crc,
			dims:  sec.dims,
			ident: sec.ident,
		}
	}
	return sm
}

// Forget drops tag from the manifest, so the next reusing save re-encodes
// that section whatever its backing array looks like. A caller about to
// overwrite a recorded array in place calls it first: identity can only
// vouch for arrays nobody wrote to. Safe on a nil manifest.
func (sm *SectionManifest) Forget(tag string) {
	if sm != nil {
		delete(sm.entries, tag)
	}
}

// savePlan writes plan to path with WriteFileAtomic's rename discipline,
// splicing the sections prev vouches for from the file it describes, and
// returns the manifest of the file written. On any splice failure the save
// silently retries as a full encode.
func savePlan(path string, plan []*v2section, prev *SectionManifest) (*SectionManifest, error) {
	reuse := matchReusable(plan, prev)
	if len(reuse) > 0 {
		prevFile, err := os.Open(prev.path)
		if err == nil {
			err = WriteFileAtomic(path, func(f *os.File) error {
				return encodeV2Plan(f, plan, reuse, prevFile)
			})
			prevFile.Close()
			if err == nil {
				return manifestFor(path, plan, len(reuse)), nil
			}
		}
		// Reuse failed (missing/corrupt previous file): fall back to a
		// full encode below.
	}
	if err := WriteFileAtomic(path, func(f *os.File) error {
		return encodeV2Plan(f, plan, nil, nil)
	}); err != nil {
		return nil, err
	}
	return manifestFor(path, plan, 0), nil
}

// SaveV2Reusing writes m to path as a v2 snapshot with SaveV2's atomic
// rename discipline, splicing byte-identical sections from the previous
// save described by prev instead of re-encoding them, and returns the
// manifest describing the new file (pass it to the next SaveV2Reusing).
// prev may be nil for a full encode. The output file is byte-identical
// to what SaveV2(path, m) would have written — reuse changes the cost,
// never the bytes. On any splice failure the save silently retries as a
// full encode.
func SaveV2Reusing(path string, m *core.Model, prev *SectionManifest) (*SectionManifest, error) {
	plan, err := fullModelPlan(m)
	if err != nil {
		return nil, err
	}
	return savePlan(path, plan, prev)
}

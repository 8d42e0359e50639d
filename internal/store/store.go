// Package store implements the model snapshot format of the serving
// subsystem: v2, a versioned binary encoding of core.Model whose section
// table and 64-byte-aligned payloads (see v2.go) let store.Open serve a
// model zero-copy from a read-only mapping, through a MappedModel. A
// mapped open is O(1) in model size (BenchmarkSnapshotLoad), which is what
// makes zero-downtime hot-swapping of big models practical in
// serve.Engine. Every save (SaveV2, SaveV2Subset, WriteRawFile) encodes
// its sections from memory in one pass; what a streaming publish does not
// rewrite it hard-links whole files of, never splices sections from.
//
// WriteFileAtomic is the one routine in the tree that commits a file:
// snapshots, shard manifests, journal files and replica downloads alike.
//
// v2 is the only format written. Two older encodings stay readable
// through LoadFile and LoadBytes, which sniff the leading bytes: JSON
// (core.Load) and the v1 stream below. Every reader, v1's included, turns
// a section payload into a model block through one section decoder
// (assembly.section, mapped.go).
//
// v1 layout:
//
//	magic "CPDSNP" + format version byte + '\n'        (8 bytes)
//	repeated sections:
//	    tag     [4]byte
//	    length  uint64 little-endian (payload bytes)
//	    payload [length]byte
//	    crc32   uint32 little-endian (IEEE, over payload)
//	terminator section "END\x00" with empty payload
//
// A v1 payload holds the same values as its v2 counterpart, with the shape
// words unpadded: 8 bytes per dimension word instead of v2's 64-byte shape
// header. Unknown tags are skipped (their CRC still verified).
package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"syscall"

	"repro/internal/core"
)

// magic identifies a v1 snapshot; the 7th byte is the format version.
const magic = "CPDSNP\x01\n"

// Section tags. Every parameter block of core.Model has one.
const (
	tagConfig = "CFG\x00" // JSON-encoded core.Config
	tagDims   = "DIM\x00" // NumUsers, NumWords, NumBuckets, NumAttrs
	tagPi     = "PI\x00\x00"
	tagTheta  = "THET"
	tagPhi    = "PHI\x00"
	tagEta    = "ETA\x00"
	tagNu     = "NU\x00\x00"
	tagPop    = "POPF"
	tagXi     = "XI\x00\x00" // optional (attribute extension)
	tagDocC   = "DOCC"
	tagDocZ   = "DOCZ"
	tagDocB   = "DOCB"
	tagEnd    = "END\x00" // v1 only
)

// maxSectionBytes bounds a single section's payload; maxDim bounds each
// matrix/tensor dimension header so the element-count cross-checks of the
// section decoder cannot overflow uint64.
const (
	maxSectionBytes = 1 << 32
	maxDim          = 1 << 28
)

// decodeV1 reads a v1 snapshot: its sections in file order up to the
// terminator, each payload's CRC checked before the section decoder sees
// it.
func decodeV1(data []byte) (*core.Model, error) {
	if !bytes.HasPrefix(data, []byte(magic)) {
		if len(data) > 6 {
			return nil, fmt.Errorf("store: unsupported snapshot format version %d", data[6])
		}
		return nil, fmt.Errorf("store: not a CPD binary snapshot")
	}
	a := &assembly{v1: true}
	rest := data[len(magic):]
	for {
		if len(rest) < 12 {
			return nil, fmt.Errorf("store: snapshot truncated before terminator section")
		}
		tag, n := string(rest[:4]), binary.LittleEndian.Uint64(rest[4:])
		rest = rest[12:]
		if n > maxSectionBytes || n+4 > uint64(len(rest)) {
			return nil, fmt.Errorf("store: section %q claims %d payload bytes", tag, n)
		}
		payload := rest[:n:n]
		if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(rest[n:]); got != want {
			return nil, fmt.Errorf("store: section %q: checksum mismatch (payload %08x, stored %08x)", tag, got, want)
		}
		rest = rest[n+4:]
		if tag == tagEnd {
			if n != 0 {
				return nil, fmt.Errorf("store: terminator section has non-empty payload")
			}
			return a.model()
		}
		if err := a.section(tag, payload); err != nil {
			return nil, err
		}
	}
}

// LoadBytes loads a model from an in-memory encoding in any format. A v2
// encoding is copied into aligned memory first, so the model never
// aliases data.
func LoadBytes(data []byte) (*core.Model, error) {
	if isV2(data) {
		aligned := alignedBytes(len(data))
		copy(aligned, data)
		data = aligned
	}
	return load(data)
}

// LoadFile loads a model from path in any format: the file is read into
// aligned memory, and a v2 snapshot's numeric blocks alias that memory
// (never a mapping: the model is heap-owned, use Open for zero-copy).
func LoadFile(path string) (*core.Model, error) {
	data, err := readAligned(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	m, err := load(data)
	if err != nil {
		return nil, fmt.Errorf("store: loading %s: %w", path, err)
	}
	return m, nil
}

// load sniffs data's leading bytes. A v2 snapshot has every payload CRC
// verified and is assembled in place (data must be 8-byte aligned); v1 is
// decoded by copy, and anything else goes to the JSON reader.
func load(data []byte) (*core.Model, error) {
	switch {
	case isV2(data):
		a := &assembly{}
		if err := readV2Sections(data, true, a); err != nil {
			return nil, err
		}
		return a.model()
	case bytes.HasPrefix(data, []byte(magic[:6])):
		return decodeV1(data)
	}
	return core.Load(bytes.NewReader(data))
}

// WriteFileAtomic is the one file-commit routine of the tree: it writes
// path through a temporary file in the same directory, fsyncs the file,
// gives it mode 0644, renames it into place, and fsyncs the directory. The
// rename makes the swap atomic against concurrent readers (a serve.Engine
// reloading the path can never observe a partial model); the two syncs
// make it atomic against crashes — without the file sync a power loss can
// leave a zero-length file behind the new name, and without the directory
// sync the rename itself may not have reached stable storage, resurrecting
// the old (or no) file. The directory sync also makes every earlier link
// and rename in dir durable: a shard manifest's commit is the sync point
// of its whole generation.
//
// write gets the temporary file itself, positioned at offset 0: the v2
// encoder streams payloads through Write and then patches the header in
// front of them through WriteAt. A write that fails at either leaves
// nothing under path, and no temporary file behind.
func WriteFileAtomic(path string, write func(*os.File) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: syncing %s: %w", tmp.Name(), err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: closing %s: %w", tmp.Name(), err)
	}
	// CreateTemp opens 0600; give the file the usual artifact mode.
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-completed rename survives a crash.
// Filesystems that do not support fsync on directories make it a no-op.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return fmt.Errorf("store: syncing %s: %w", dir, err)
	}
	return nil
}

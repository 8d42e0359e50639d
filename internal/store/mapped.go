package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/core"
	"repro/internal/sparse"
)

// MappedModel is a core.Model whose big numeric blocks alias a read-only
// memory mapping of a v2 snapshot file. Opening one is O(1) in the number
// of users and words — no float of Π or Φ is copied or even read; the
// work is the section table, the doc-bucket array (int64 on disk, int in
// memory) and the O(|Z|·|C|²) prediction caches — and the resident cost of
// the parameter matrices is whatever pages queries actually touch.
//
// Lifetime: the model's matrices are views into the mapping, so the model
// MUST NOT be used after Close — a dereference into an unmapped page is a
// fault, not an error. Serving layers therefore tie Close to a reference
// count (serve.Snapshot): the mapping is released only when the last
// in-flight query drops its reference. The model is read-only; mutating a
// parameter block through it faults on a true mapping.
//
// The prediction caches (Rehydrate) still live on the heap — they are
// derived data, sized O(|Z||C|²), independent of the dominant Pi/Phi
// payloads and of the user count. HeapBytes reports them; MappedBytes the
// mapping.
type MappedModel struct {
	Model *core.Model

	path      string
	data      []byte
	mapped    bool // true: data is a real mapping; false: aligned heap copy
	closeOnce sync.Once
	closed    atomic.Bool
	closeErr  error
}

// Open maps the v2 snapshot at path and returns a model whose matrices
// alias the mapping. The section table is checksum-verified; payload bytes
// are used in place and NOT checksummed (see the v2 format doc). On hosts
// without a usable mmap the file is read into aligned memory instead
// (Mapped reports false); on big-endian hosts Open falls back to the
// copying decoder. v1 or JSON files are rejected: callers that want
// format-agnostic loading use LoadFile, which always copies.
//
// Cost: the section table, one pass over DOCB (copied into []int), and
// core.Model.Rehydrate's O(|Z|·|C|²) caches — nothing per user or per
// word, in time or in allocations (TestOpenAllocationsIndependentOfUsers).
func Open(path string) (*MappedModel, error) {
	data, mapped, err := mapFile(path)
	if err != nil {
		return nil, fmt.Errorf("store: mapping %s: %w", path, err)
	}
	mm := &MappedModel{path: path, data: data, mapped: mapped}
	m, err := assembleMapped(data)
	if err != nil {
		mm.Close()
		return nil, fmt.Errorf("store: opening %s: %w", path, err)
	}
	mm.Model = m
	return mm, nil
}

// Close releases the mapping. The model (and every view derived from it)
// must not be touched afterwards. Close is idempotent.
func (mm *MappedModel) Close() error {
	mm.closeOnce.Do(func() {
		data := mm.data
		mm.data = nil
		if mm.mapped && data != nil {
			mm.closeErr = unmapFile(data)
		}
		mm.closed.Store(true)
	})
	return mm.closeErr
}

// Closed reports whether Close has completed (the refcount tests' probe).
func (mm *MappedModel) Closed() bool { return mm.closed.Load() }

// Path returns the snapshot file the model was opened from.
func (mm *MappedModel) Path() string { return mm.path }

// Mapped reports whether the model really aliases a kernel mapping
// (false on the aligned-copy fallback platforms).
func (mm *MappedModel) Mapped() bool { return mm.mapped }

// MappedBytes returns the size of the mapping backing the matrices.
func (mm *MappedModel) MappedBytes() int64 { return int64(len(mm.data)) }

// HeapBytes returns the approximate heap footprint of the model's rebuilt
// prediction caches — the part of a mapped model that is NOT backed by
// the file.
func (mm *MappedModel) HeapBytes() int64 { return mm.Model.CacheBytes() }

// assembleMapped builds a model over the mapping without copying numeric
// payloads. On big-endian hosts it routes through the copying decoder
// (the bytes are little-endian on disk).
func assembleMapped(data []byte) (*core.Model, error) {
	if len(data) < v2HeaderLen {
		return nil, fmt.Errorf("file shorter than a v2 header")
	}
	if string(data[:len(magicV2)]) != magicV2 {
		if bytes.Equal(data[:6], []byte(magicV2[:6])) {
			return nil, fmt.Errorf("snapshot is format version %d; Open requires v2 (retrain or re-save with -format v2, or load with LoadFile)", data[6])
		}
		return nil, fmt.Errorf("not a v2 CPD snapshot")
	}
	if !nativeLittleEndian() {
		return decodeV2(bufio.NewReader(bytes.NewReader(data)), uint64(len(data)))
	}
	count := binary.LittleEndian.Uint64(data[8:])
	if count == 0 || count > maxV2Entries {
		return nil, fmt.Errorf("v2 snapshot claims %d sections", count)
	}
	tableEnd := uint64(v2HeaderLen) + count*v2EntryLen
	if tableEnd > uint64(len(data)) {
		return nil, fmt.Errorf("v2 section table truncated")
	}
	entries, err := parseV2Table(data[:v2HeaderLen], data[v2HeaderLen:tableEnd], uint64(len(data)))
	if err != nil {
		return nil, err
	}
	m := &core.Model{}
	var seenDims bool
	for _, ent := range entries {
		payload := data[ent.off : ent.off+ent.size]
		if err := aliasV2Section(m, ent.tag, payload, &seenDims); err != nil {
			return nil, err
		}
	}
	if !seenDims {
		return nil, fmt.Errorf("snapshot is missing the dimension section")
	}
	if m.Pi == nil || m.Theta == nil || m.Phi == nil || m.Eta == nil {
		return nil, fmt.Errorf("snapshot is missing parameter blocks")
	}
	if err := m.CheckShapes(); err != nil {
		return nil, err
	}
	m.Rehydrate()
	return m, nil
}

// aliasV2Section wires one section into the model, aliasing numeric data
// in place. Only DOCB (int-width on disk vs. platform int) and the two
// small metadata sections are materialized on the heap.
func aliasV2Section(m *core.Model, tag string, payload []byte, seenDims *bool) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("section %q: "+format, append([]any{tag}, args...)...)
	}
	shape := func(n int) ([]uint64, []byte, error) {
		if len(payload) < v2ShapeLen {
			return nil, nil, fail("payload shorter than the shape header")
		}
		dims := make([]uint64, n)
		for i := range dims {
			dims[i] = binary.LittleEndian.Uint64(payload[8*i:])
		}
		return dims, payload[v2ShapeLen:], nil
	}
	dense := func(dst **sparse.Dense) error {
		dims, data, err := shape(2)
		if err != nil {
			return err
		}
		rows, cols := int(int64(dims[0])), int(int64(dims[1]))
		if rows < 0 || cols < 0 || rows > maxDim || cols > maxDim || uint64(len(data)) != 8*dims[0]*dims[1] {
			return fail("matrix header %dx%d disagrees with %d payload bytes", rows, cols, len(payload))
		}
		*dst = sparse.NewDenseView(rows, cols, aliasFloat64(data))
		return nil
	}
	switch tag {
	case tagConfig:
		if err := decodeConfig(payload, &m.Cfg); err != nil {
			return fail("%v", err)
		}
	case tagDims:
		if len(payload) != 4*8 {
			return fail("has length %d, want 32", len(payload))
		}
		m.NumUsers = int(int64(binary.LittleEndian.Uint64(payload)))
		m.NumWords = int(int64(binary.LittleEndian.Uint64(payload[8:])))
		m.NumBuckets = int(int64(binary.LittleEndian.Uint64(payload[16:])))
		m.NumAttrs = int(int64(binary.LittleEndian.Uint64(payload[24:])))
		*seenDims = true
	case tagPi:
		return dense(&m.Pi)
	case tagTheta:
		return dense(&m.Theta)
	case tagPhi:
		return dense(&m.Phi)
	case tagPop:
		return dense(&m.PopFreq)
	case tagXi:
		return dense(&m.Xi)
	case tagEta:
		dims, data, err := shape(3)
		if err != nil {
			return err
		}
		d1, d2, d3 := int(int64(dims[0])), int(int64(dims[1])), int(int64(dims[2]))
		if d1 < 0 || d2 < 0 || d3 < 0 || d1 > maxDim || d2 > maxDim || d3 > maxDim ||
			dims[0]*dims[1] > maxSectionBytes/8 || uint64(len(data)) != 8*dims[0]*dims[1]*dims[2] {
			return fail("tensor header %dx%dx%d disagrees with %d payload bytes", d1, d2, d3, len(payload))
		}
		m.Eta = sparse.NewTensor3View(d1, d2, d3, aliasFloat64(data))
	case tagNu:
		dims, data, err := shape(1)
		if err != nil {
			return err
		}
		if uint64(len(data)) != 8*dims[0] {
			return fail("element data is %d bytes, want %d", len(data), 8*dims[0])
		}
		m.Nu = aliasFloat64(data)
	case tagDocC, tagDocZ:
		dims, data, err := shape(1)
		if err != nil {
			return err
		}
		if uint64(len(data)) != 4*dims[0] {
			return fail("element data is %d bytes, want %d", len(data), 4*dims[0])
		}
		if tag == tagDocC {
			m.DocCommunity = aliasInt32(data)
		} else {
			m.DocTopic = aliasInt32(data)
		}
	case tagDocB:
		// DocBucket is []int in the model; on-disk it is int64. Copy (it
		// is metadata-sized next to the matrices, and aliasing []int would
		// tie the format to the platform's int width).
		dims, data, err := shape(1)
		if err != nil {
			return err
		}
		n := dims[0]
		if n > maxSectionBytes/8 || uint64(len(data)) != 8*n {
			return fail("element data is %d bytes, want %d", len(data), 8*n)
		}
		if n > 0 {
			m.DocBucket = make([]int, n)
			for i := range m.DocBucket {
				m.DocBucket[i] = int(int64(binary.LittleEndian.Uint64(data[8*i:])))
			}
		}
	}
	return nil
}

// nativeLittleEndian reports whether the host stores multi-byte integers
// little-endian — the precondition for aliasing v2 payload bytes as
// []float64/[]int32 without conversion.
func nativeLittleEndian() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}

// aliasFloat64 reinterprets b (length a multiple of 8, 8-byte aligned —
// guaranteed by the v2 alignment rules) as a []float64 without copying.
func aliasFloat64(b []byte) []float64 {
	if len(b) == 0 {
		return nil
	}
	if uintptr(unsafe.Pointer(&b[0]))%8 != 0 {
		panic("store: misaligned float64 section")
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), len(b)/8)
}

// aliasInt32 reinterprets b (length a multiple of 4, 4-byte aligned) as a
// []int32 without copying.
func aliasInt32(b []byte) []int32 {
	if len(b) == 0 {
		return nil
	}
	if uintptr(unsafe.Pointer(&b[0]))%4 != 0 {
		panic("store: misaligned int32 section")
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), len(b)/4)
}

// readAligned reads a whole file into 8-byte-aligned heap memory — the
// portable mapFile fallback (and the small-file path some platforms
// prefer). The result supports the same aliasing as a real mapping.
func readAligned(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	if size < 0 || size > int64(maxSectionBytes)*2 {
		return nil, fmt.Errorf("snapshot size %d out of range", size)
	}
	words := make([]uint64, (size+7)/8)
	var buf []byte
	if len(words) > 0 {
		buf = unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), size)
	}
	if _, err := io.ReadFull(f, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

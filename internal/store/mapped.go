package store

import (
	"encoding/binary"
	"encoding/json"
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
// are used in place and NOT checksummed (see the v2 format doc), though
// every section gets the same structural checks LoadFile applies. On
// hosts without a usable mmap the file is read into aligned memory
// instead (Mapped reports false); on big-endian hosts the numeric blocks
// are converted onto the heap. v1 or JSON files are rejected: callers
// that want format-agnostic loading use LoadFile.
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
	a := &assembly{}
	err = readV2Sections(data, false, a)
	if err == nil {
		mm.Model, err = a.model()
	}
	if err != nil {
		mm.Close()
		return nil, fmt.Errorf("store: opening %s: %w", path, err)
	}
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

// assembly builds a model out of snapshot sections. section is the one
// section decoder: every reader, in every format, turns payload bytes
// into model blocks through it, so they all apply the same bounds.
type assembly struct {
	m        core.Model
	seenDims bool
	// v1 selects v1's payload layout: shape words unpadded (8 bytes each,
	// not v2's 64-byte header) and numeric data never aliased — v1
	// payloads have no alignment guarantee.
	v1 bool
	// checkOnly runs every section check for a caller that discards the
	// model (VerifyV2File), so DOCB's int64 → int copy is skipped.
	checkOnly bool
}

// section decodes one payload into its block of the model; a later
// section with the same tag replaces an earlier one, and unknown tags are
// skipped. Numeric blocks of a v2 payload alias the payload bytes where
// aliasNumeric allows (see numeric); the caller keeps those bytes valid
// for the model's lifetime.
func (a *assembly) section(tag string, payload []byte) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("store: section %q: "+format, append([]any{tag}, args...)...)
	}
	// shape splits a numeric payload into its n dimension words and its
	// element bytes.
	var dims [3]uint64
	shape := func(n int) ([]byte, error) {
		hdr := v2ShapeLen
		if a.v1 {
			hdr = 8 * n
		}
		if len(payload) < hdr {
			return nil, fail("payload shorter than the shape header")
		}
		for i := 0; i < n; i++ {
			dims[i] = binary.LittleEndian.Uint64(payload[8*i:])
		}
		return payload[hdr:], nil
	}
	// holds reports whether data is exactly n elements of width bytes;
	// bounding n by the payload first keeps n*width from wrapping.
	holds := func(data []byte, n, width uint64) bool {
		return n <= uint64(len(data))/width && n*width == uint64(len(data))
	}
	dense := func(dst **sparse.Dense) error {
		data, err := shape(2)
		if err != nil {
			return err
		}
		rows, cols := dims[0], dims[1]
		if rows > maxDim || cols > maxDim || !holds(data, rows*cols, 8) {
			return fail("matrix header %dx%d disagrees with %d payload bytes", int64(rows), int64(cols), len(payload))
		}
		*dst = sparse.NewDenseView(int(rows), int(cols), numeric[float64](data, !a.v1))
		return nil
	}
	m := &a.m
	switch tag {
	case tagConfig:
		if err := json.Unmarshal(payload, &m.Cfg); err != nil {
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
		a.seenDims = true
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
		data, err := shape(3)
		if err != nil {
			return err
		}
		d1, d2, d3 := dims[0], dims[1], dims[2]
		if d1 > maxDim || d2 > maxDim || d3 > maxDim ||
			d1*d2 > uint64(len(data))/8 || !holds(data, d1*d2*d3, 8) {
			return fail("tensor header %dx%dx%d disagrees with %d payload bytes", int64(d1), int64(d2), int64(d3), len(payload))
		}
		m.Eta = sparse.NewTensor3View(int(d1), int(d2), int(d3), numeric[float64](data, !a.v1))
	case tagNu:
		data, err := shape(1)
		if err != nil {
			return err
		}
		if !holds(data, dims[0], 8) {
			return fail("slice header %d disagrees with %d payload bytes", dims[0], len(payload))
		}
		m.Nu = numeric[float64](data, !a.v1)
	case tagDocC, tagDocZ:
		data, err := shape(1)
		if err != nil {
			return err
		}
		if !holds(data, dims[0], 4) {
			return fail("slice header %d disagrees with %d payload bytes", dims[0], len(payload))
		}
		if tag == tagDocC {
			m.DocCommunity = numeric[int32](data, !a.v1)
		} else {
			m.DocTopic = numeric[int32](data, !a.v1)
		}
	case tagDocB:
		// DocBucket is []int in the model and int64 on disk: always copied
		// (it is metadata-sized next to the matrices, and aliasing would
		// tie the format to the platform's int width).
		data, err := shape(1)
		if err != nil {
			return err
		}
		if !holds(data, dims[0], 8) {
			return fail("slice header %d disagrees with %d payload bytes", dims[0], len(payload))
		}
		if n := dims[0]; n > 0 && !a.checkOnly {
			m.DocBucket = make([]int, n)
			for i := range m.DocBucket {
				m.DocBucket[i] = int(int64(binary.LittleEndian.Uint64(data[8*i:])))
			}
		}
	}
	return nil
}

// model checks that the sections made a whole, consistent model and
// rebuilds its prediction caches.
func (a *assembly) model() (*core.Model, error) {
	m := &a.m
	if !a.seenDims {
		return nil, fmt.Errorf("store: snapshot is missing the dimension section")
	}
	if m.Pi == nil || m.Theta == nil || m.Phi == nil || m.Eta == nil {
		return nil, fmt.Errorf("store: snapshot is missing parameter blocks")
	}
	if err := m.CheckShapes(); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	m.Rehydrate()
	return m, nil
}

// nativeLittleEndian reports whether the host stores multi-byte integers
// little-endian — the precondition for aliasing v2 payload bytes as
// []float64/[]int32 without conversion.
func nativeLittleEndian() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}

// numeric returns the little-endian elements of data as a []T. With
// alias set, on a host where aliasNumeric holds, and with data aligned for
// T (the v2 layout guarantees it), the slice is data's memory itself, with
// cap == len: an append to the block reallocates, never writing into the
// next section. Otherwise the elements are converted into a new slice.
// Empty data gives nil either way.
func numeric[T float64 | int32](data []byte, alias bool) []T {
	var zero T
	width := int(unsafe.Sizeof(zero))
	n := len(data) / width
	if n == 0 {
		return nil
	}
	if alias && aliasNumeric && uintptr(unsafe.Pointer(&data[0]))%uintptr(width) == 0 {
		return unsafe.Slice((*T)(unsafe.Pointer(&data[0])), n)
	}
	xs := make([]T, n)
	// Decode fails only on a buffer shorter than xs, and this one is not.
	binary.Decode(data[:n*width], binary.LittleEndian, xs)
	return xs
}

// alignedBytes returns n zeroed bytes of 8-byte-aligned heap memory, the
// alignment the section decoder needs to alias numeric blocks.
func alignedBytes(n int) []byte {
	words := make([]uint64, (n+7)/8)
	if len(words) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), n)
}

// readAligned reads a whole file into 8-byte-aligned heap memory — the
// portable mapFile fallback and LoadFile's buffer. The result supports the
// same aliasing as a real mapping.
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
	buf := alignedBytes(int(size))
	if _, err := io.ReadFull(f, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

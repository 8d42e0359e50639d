package store

// Snapshot format v2: the one format this repository writes.
//
// The file is laid out so the big numeric blocks can be used *in place*
// from a read-only memory mapping (Open / MappedModel):
//
//	offset 0   magic "CPDSNP\x02\n"                       (8 bytes)
//	offset 8   sectionCount  uint64 LE
//	offset 16  tableCRC      uint64 LE (IEEE CRC32 of the table, low 32 bits)
//	offset 24  section table: sectionCount × 32-byte entries
//	             tag      [4]byte
//	             reserved [4]byte   (zero)
//	             offset   uint64 LE (absolute payload offset, 64-byte aligned)
//	             length   uint64 LE (payload bytes)
//	             crc32    uint32 LE (IEEE, over the payload)
//	             reserved [4]byte   (zero)
//	then       payloads in table order, ascending offsets, zero-padded gaps
//
// Alignment rules: every payload starts on a 64-byte boundary, and every
// numeric payload begins with a 64-byte shape header (dimension words,
// zero-padded), so the raw element data also starts on a 64-byte boundary
// — cache-line aligned and therefore safely reinterpretable as []float64 /
// []int32 without copying. Numeric data is little-endian; on a big-endian
// host the section decoder converts it into heap slices instead.
//
// Payload layouts:
//
//	CFG          raw JSON (core.Config)
//	DIM          4 × uint64 (NumUsers, NumWords, NumBuckets, NumAttrs)
//	dense blocks 64-byte header {rows u64, cols u64}, then rows·cols float64
//	ETA          64-byte header {d1 u64, d2 u64, d3 u64}, then d1·d2·d3 float64
//	NU           64-byte header {n u64}, then n float64
//	DOCC/DOCZ    64-byte header {n u64}, then n int32
//	DOCB         64-byte header {n u64}, then n int64
//
// Reading: readV2Table is the one header+table parser, and the section
// decoder in mapped.go turns each payload into a model block. The table
// CRC is always verified (a torn or corrupt table can never be walked).
// LoadFile, LoadBytes and VerifyV2File also verify every payload CRC;
// Open and AssembleRawModel skip that by design — an O(model) checksum
// pass would defeat the O(1) map — so a mapped open trusts the payload
// bytes the way any mmap-consuming system does. Every reader applies the
// same structural checks, so apart from payload bit-flips they accept and
// reject the same files. Unknown tags are skipped (forward compatibility).

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"os"
	"unsafe"

	"repro/internal/core"
	"repro/internal/sparse"
)

// magicV2 identifies a v2 snapshot; same 6-byte prefix as v1, version byte 2.
const magicV2 = "CPDSNP\x02\n"

const (
	v2Align      = 64
	v2HeaderLen  = 24 // magic + sectionCount + tableCRC
	v2EntryLen   = 32
	v2ShapeLen   = 64 // the zero-padded shape header of numeric payloads
	maxV2Entries = 1024
)

func alignUp(off uint64) uint64 { return (off + v2Align - 1) &^ uint64(v2Align-1) }

// v2section is one planned section: its tag, exact payload length, and an
// emitter that produces the payload bytes through a v2sink. The emitter
// runs once: the sink checksums the bytes on their way to the file, and
// the table that records the checksum is written afterwards.
type v2section struct {
	tag  string
	size uint64
	emit func(*v2sink)
	off  uint64
	crc  uint32
}

// v2sink is the payload byte sink: every byte feeds the CRC and goes to w.
type v2sink struct {
	w       io.Writer
	crc     hash.Hash32
	scratch []byte
	err     error
}

func (s *v2sink) raw(p []byte) {
	if s.err != nil {
		return
	}
	s.crc.Write(p)
	if _, err := s.w.Write(p); err != nil {
		s.err = err
	}
}

func (s *v2sink) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	s.raw(b[:])
}

// shape writes a numeric payload's 64-byte header: the dimension words,
// zero-padded to v2ShapeLen.
func (s *v2sink) shape(dims ...uint64) {
	var b [v2ShapeLen]byte
	for i, d := range dims {
		binary.LittleEndian.PutUint64(b[8*i:], d)
	}
	s.raw(b[:])
}

// aliasNumeric selects how numeric blocks cross the format boundary. On a
// little-endian host a block's own memory already is its on-disk byte
// sequence, so the sink's floats/int32s/int64s hand it to the CRC and the
// writer as it stands, and the section decoder (mapped.go) aliases v2
// payload bytes as the block. Elsewhere each element is spelled
// little-endian through the scratch buffer on the way out and converted
// into a heap slice on the way in. The platform chooses, never a caller;
// tests flip it to hold both branches to the same bytes and models.
var aliasNumeric = nativeLittleEndian()

// elemBytes returns the memory of xs as bytes, without copying.
func elemBytes[T float64 | int32 | int](xs []T) []byte {
	if len(xs) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&xs[0])), len(xs)*int(unsafe.Sizeof(xs[0])))
}

func (s *v2sink) floats(xs []float64) {
	if aliasNumeric {
		s.raw(elemBytes(xs))
		return
	}
	k := 0
	for _, x := range xs {
		binary.LittleEndian.PutUint64(s.scratch[k:], math.Float64bits(x))
		k += 8
		if k == len(s.scratch) {
			s.raw(s.scratch)
			k = 0
		}
	}
	if k > 0 {
		s.raw(s.scratch[:k])
	}
}

func (s *v2sink) int32s(xs []int32) {
	if aliasNumeric {
		s.raw(elemBytes(xs))
		return
	}
	k := 0
	for _, x := range xs {
		binary.LittleEndian.PutUint32(s.scratch[k:], uint32(x))
		k += 4
		if k == len(s.scratch) {
			s.raw(s.scratch)
			k = 0
		}
	}
	if k > 0 {
		s.raw(s.scratch[:k])
	}
}

// int64s writes platform ints as the format's 64-bit words; their memory
// is that only where int is 8 bytes wide.
func (s *v2sink) int64s(xs []int) {
	if aliasNumeric && unsafe.Sizeof(int(0)) == 8 {
		s.raw(elemBytes(xs))
		return
	}
	k := 0
	for _, x := range xs {
		binary.LittleEndian.PutUint64(s.scratch[k:], uint64(int64(x)))
		k += 8
		if k == len(s.scratch) {
			s.raw(s.scratch)
			k = 0
		}
	}
	if k > 0 {
		s.raw(s.scratch[:k])
	}
}

// v2Plan lists the sections of m in file order with exact sizes.
func v2Plan(m *core.Model) ([]*v2section, error) { return v2PlanSubset(m, nil) }

// fullModelPlan is v2Plan for a model that must be complete.
func fullModelPlan(m *core.Model) ([]*v2section, error) {
	if m.Pi == nil || m.Theta == nil || m.Phi == nil || m.Eta == nil {
		return nil, fmt.Errorf("store: model is missing parameter blocks")
	}
	return v2Plan(m)
}

// v2PlanSubset lists the sections of m restricted to the tags in want
// (nil = every section), in the canonical file order CFG, DIM, PI, THET,
// PHI, ETA, NU, POPF, XI, DOCC, DOCZ, DOCB. POPF/XI are skipped when the
// block is nil even if requested (matching the full plan); any other
// requested matrix block that is nil is an error rather than a nil
// dereference, so partial models (shard files, global files) plan
// safely.
func v2PlanSubset(m *core.Model, want map[string]bool) ([]*v2section, error) {
	take := func(tag string) bool { return want == nil || want[tag] }
	var plan []*v2section
	add := func(tag string, size uint64, emit func(*v2sink)) {
		plan = append(plan, &v2section{tag: tag, size: size, emit: emit})
	}
	dense := func(tag string, d *sparse.Dense) error {
		if d == nil {
			return fmt.Errorf("store: section %q requested but the model block is nil", tag)
		}
		add(tag, v2ShapeLen+8*uint64(len(d.Data)), func(s *v2sink) {
			s.shape(uint64(d.Rows), uint64(d.Cols))
			s.floats(d.Data)
		})
		return nil
	}
	if take(tagConfig) {
		cfgJSON, err := json.Marshal(m.Cfg)
		if err != nil {
			return nil, fmt.Errorf("store: encoding config: %w", err)
		}
		add(tagConfig, uint64(len(cfgJSON)), func(s *v2sink) { s.raw(cfgJSON) })
	}
	if take(tagDims) {
		add(tagDims, 4*8, func(s *v2sink) {
			s.u64(uint64(m.NumUsers))
			s.u64(uint64(m.NumWords))
			s.u64(uint64(m.NumBuckets))
			s.u64(uint64(m.NumAttrs))
		})
	}
	if take(tagPi) {
		if err := dense(tagPi, m.Pi); err != nil {
			return nil, err
		}
	}
	if take(tagTheta) {
		if err := dense(tagTheta, m.Theta); err != nil {
			return nil, err
		}
	}
	if take(tagPhi) {
		if err := dense(tagPhi, m.Phi); err != nil {
			return nil, err
		}
	}
	if take(tagEta) {
		if m.Eta == nil {
			return nil, fmt.Errorf("store: section %q requested but the model block is nil", tagEta)
		}
		add(tagEta, v2ShapeLen+8*uint64(len(m.Eta.Data)), func(s *v2sink) {
			s.shape(uint64(m.Eta.D1), uint64(m.Eta.D2), uint64(m.Eta.D3))
			s.floats(m.Eta.Data)
		})
	}
	if take(tagNu) {
		nu := m.Nu
		add(tagNu, v2ShapeLen+8*uint64(len(nu)), func(s *v2sink) {
			s.shape(uint64(len(nu)))
			s.floats(nu)
		})
	}
	if take(tagPop) && m.PopFreq != nil {
		if err := dense(tagPop, m.PopFreq); err != nil {
			return nil, err
		}
	}
	if take(tagXi) && m.Xi != nil {
		if err := dense(tagXi, m.Xi); err != nil {
			return nil, err
		}
	}
	ints32 := func(tag string, xs []int32) {
		add(tag, v2ShapeLen+4*uint64(len(xs)), func(s *v2sink) {
			s.shape(uint64(len(xs)))
			s.int32s(xs)
		})
	}
	if take(tagDocC) {
		ints32(tagDocC, m.DocCommunity)
	}
	if take(tagDocZ) {
		ints32(tagDocZ, m.DocTopic)
	}
	if take(tagDocB) {
		add(tagDocB, v2ShapeLen+8*uint64(len(m.DocBucket)), func(s *v2sink) {
			s.shape(uint64(len(m.DocBucket)))
			s.int64s(m.DocBucket)
		})
	}
	if len(plan) == 0 {
		return nil, fmt.Errorf("store: no sections selected")
	}
	for _, sec := range plan {
		if sec.size > maxSectionBytes {
			return nil, fmt.Errorf("store: section %q needs %d payload bytes, above the format's %d-byte section limit",
				sec.tag, sec.size, uint64(maxSectionBytes))
		}
	}
	return plan, nil
}

// v2Table serializes the section table.
func v2Table(plan []*v2section) []byte {
	table := make([]byte, v2EntryLen*len(plan))
	for i, sec := range plan {
		e := table[v2EntryLen*i:]
		copy(e, sec.tag)
		binary.LittleEndian.PutUint64(e[8:], sec.off)
		binary.LittleEndian.PutUint64(e[16:], sec.size)
		binary.LittleEndian.PutUint32(e[24:], sec.crc)
	}
	return table
}

// v2dest is what a v2 snapshot is encoded into. Payloads stream through
// Write; the header and section table, which hold the payload checksums,
// are written last, over their placeholder at offset 0, through WriteAt —
// so Write must start at offset 0 of whatever WriteAt addresses. A
// temporary *os.File (WriteFileAtomic) and a memDest are the two in use.
type v2dest interface {
	io.Writer
	io.WriterAt
}

// memDest is the in-memory v2dest behind the io.Writer entry points.
type memDest struct{ buf []byte }

func (d *memDest) Write(p []byte) (int, error) {
	d.buf = append(d.buf, p...)
	return len(p), nil
}

func (d *memDest) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 || off+int64(len(p)) > int64(len(d.buf)) {
		return 0, fmt.Errorf("store: internal error: patching bytes %d..%d of a %d-byte encoding", off, off+int64(len(p)), len(d.buf))
	}
	return copy(d.buf[off:], p), nil
}

// encodeTo encodes plan in memory and hands the finished snapshot to w in
// one write.
func encodeTo(w io.Writer, plan []*v2section) error {
	var d memDest
	if err := encodeV2Plan(&d, plan); err != nil {
		return err
	}
	if _, err := w.Write(d.buf); err != nil {
		return fmt.Errorf("store: writing snapshot: %w", err)
	}
	return nil
}

// EncodeV2 writes m as a v2 snapshot: section table first, then 64-byte
// aligned payloads. Each payload is produced and checksummed in one
// streaming pass, so the snapshot is assembled in memory (the table in
// front can only be filled in once the payloads behind it are known) and
// reaches w whole; SaveV2 streams to its file instead.
func EncodeV2(w io.Writer, m *core.Model) error {
	plan, err := fullModelPlan(m)
	if err != nil {
		return err
	}
	return encodeTo(w, plan)
}

// encodeV2Plan lays out and writes a planned v2 snapshot in one pass per
// section: a zeroed placeholder for header and table, then each payload
// streamed once through the sink that feeds both its CRC and dst, then the
// real header and table written over the placeholder. Until that last
// write the output does not begin with the format's magic, so a file cut
// short anywhere before it is rejected by every reader — and WriteFileAtomic
// only ever gives a complete one the final name.
func encodeV2Plan(dst v2dest, plan []*v2section) error {
	head := make([]byte, v2HeaderLen+v2EntryLen*len(plan))
	off := alignUp(uint64(len(head)))
	for _, sec := range plan {
		sec.off = off
		off = alignUp(off + sec.size)
	}
	// One chunk buffer for the portable element loops. It is larger than
	// the bufio buffer below on purpose: a chunk that size goes to the file
	// in one write instead of being copied into the buffer and flushed
	// 64 KiB at a time.
	scratch := make([]byte, 1<<18)
	bw := bufio.NewWriterSize(dst, 1<<16)
	if _, err := bw.Write(head); err != nil {
		return fmt.Errorf("store: writing v2 header placeholder: %w", err)
	}
	var pad [v2Align]byte
	pos := uint64(len(head))
	for _, sec := range plan {
		if sec.off < pos {
			return fmt.Errorf("store: internal error: v2 layout overlaps at %q", sec.tag)
		}
		if _, err := bw.Write(pad[:sec.off-pos]); err != nil {
			return fmt.Errorf("store: padding before %q: %w", sec.tag, err)
		}
		pos = sec.off + sec.size
		sink := &v2sink{w: bw, crc: crc32.NewIEEE(), scratch: scratch}
		sec.emit(sink)
		if sink.err != nil {
			return fmt.Errorf("store: writing section %q: %w", sec.tag, sink.err)
		}
		sec.crc = sink.crc.Sum32()
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("store: flushing snapshot: %w", err)
	}
	table := v2Table(plan)
	copy(head, magicV2)
	binary.LittleEndian.PutUint64(head[8:], uint64(len(plan)))
	binary.LittleEndian.PutUint64(head[16:], uint64(crc32.ChecksumIEEE(table)))
	copy(head[v2HeaderLen:], table)
	if _, err := dst.WriteAt(head, 0); err != nil {
		return fmt.Errorf("store: writing v2 header and section table: %w", err)
	}
	return nil
}

// v2Entry is one parsed section-table entry.
type v2Entry struct {
	tag  string
	off  uint64
	size uint64
	crc  uint32
}

// isV2 reports whether data starts with the v2 magic.
func isV2(data []byte) bool { return bytes.HasPrefix(data, []byte(magicV2)) }

// readV2Table parses the header and section table at the front of the v2
// snapshot of size bytes behind r — the one parser every v2 reader
// shares. It checks the magic, the section count, the table CRC, and that
// every entry is 64-byte aligned, ascending, non-overlapping and inside
// the snapshot; it reads no payload.
func readV2Table(r io.ReaderAt, size uint64) ([]v2Entry, error) {
	hdr := make([]byte, v2HeaderLen)
	if _, err := r.ReadAt(hdr, 0); err != nil {
		return nil, fmt.Errorf("store: reading the v2 header: %w", err)
	}
	if !isV2(hdr) {
		if bytes.HasPrefix(hdr, []byte(magicV2[:6])) {
			return nil, fmt.Errorf("store: snapshot is format version %d, not v2 (LoadFile reads it)", hdr[6])
		}
		return nil, fmt.Errorf("store: not a v2 CPD snapshot")
	}
	count := binary.LittleEndian.Uint64(hdr[8:])
	tableCRC := binary.LittleEndian.Uint64(hdr[16:])
	if count == 0 || count > maxV2Entries {
		return nil, fmt.Errorf("store: v2 snapshot claims %d sections", count)
	}
	table := make([]byte, count*v2EntryLen)
	if _, err := r.ReadAt(table, v2HeaderLen); err != nil {
		return nil, fmt.Errorf("store: reading the v2 section table: %w", err)
	}
	if got := uint64(crc32.ChecksumIEEE(table)); got != tableCRC {
		return nil, fmt.Errorf("store: v2 section table checksum mismatch (%08x, stored %08x)", got, tableCRC)
	}
	entries := make([]v2Entry, count)
	end := alignUp(uint64(v2HeaderLen) + count*v2EntryLen)
	for i := range entries {
		e := table[v2EntryLen*i:]
		ent := v2Entry{
			tag:  string(e[:4]),
			off:  binary.LittleEndian.Uint64(e[8:]),
			size: binary.LittleEndian.Uint64(e[16:]),
			crc:  binary.LittleEndian.Uint32(e[24:]),
		}
		switch {
		case ent.size > maxSectionBytes || ent.size > size:
			return nil, fmt.Errorf("store: section %q claims %d payload bytes", ent.tag, ent.size)
		case ent.off%v2Align != 0:
			return nil, fmt.Errorf("store: section %q offset %d is not %d-byte aligned", ent.tag, ent.off, v2Align)
		case ent.off < end:
			return nil, fmt.Errorf("store: section %q overlaps the preceding section", ent.tag)
		case ent.off > size || ent.size > size-ent.off:
			return nil, fmt.Errorf("store: section %q extends past the snapshot end", ent.tag)
		}
		end = alignUp(ent.off + ent.size)
		entries[i] = ent
	}
	return entries, nil
}

// readV2Sections parses the v2 snapshot held in data (8-byte aligned, a
// mapping or readAligned's memory) and hands every section to a's
// section decoder. With verify, each payload's CRC is checked first — the
// O(model) pass the mapped readers skip by design.
func readV2Sections(data []byte, verify bool, a *assembly) error {
	entries, err := readV2Table(bytes.NewReader(data), uint64(len(data)))
	if err != nil {
		return err
	}
	for _, ent := range entries {
		payload := data[ent.off : ent.off+ent.size : ent.off+ent.size]
		if verify {
			if got := crc32.ChecksumIEEE(payload); got != ent.crc {
				return fmt.Errorf("store: section %q: checksum mismatch (payload %08x, stored %08x)", ent.tag, got, ent.crc)
			}
		}
		if err := a.section(ent.tag, payload); err != nil {
			return err
		}
	}
	return nil
}

// SaveV2 writes m to path as a v2 (mmap-ready) snapshot, atomically and
// crash-safely (see WriteFileAtomic): every section is encoded from m and
// checksummed on its way to the file.
func SaveV2(path string, m *core.Model) error {
	plan, err := fullModelPlan(m)
	if err != nil {
		return err
	}
	return savePlan(path, plan)
}

// savePlan encodes plan into path through WriteFileAtomic.
func savePlan(path string, plan []*v2section) error {
	return WriteFileAtomic(path, func(f *os.File) error { return encodeV2Plan(f, plan) })
}

// Package store implements the serving subsystem's model snapshot
// formats: a versioned binary encoding of core.Model in two layouts —
// the v1 streaming codec below, and the mmap-ready v2 layout (see v2.go)
// whose 64-byte-aligned sections store.Open serves zero-copy through a
// MappedModel. Loading a large model from a v1 binary snapshot is
// roughly an order of magnitude faster than the encoding/json path
// core.Model.Save uses, and a v2 mapped open is O(1) in model size on
// top of that (BenchmarkSnapshotLoad), which is what makes zero-downtime
// hot-swapping of big models practical in serve.Engine. The JSON format
// remains readable through Load, which sniffs the file's leading bytes.
// SaveV2Reusing (v2reuse.go) writes a v2 snapshot while splicing
// unchanged sections byte-for-byte out of a previous snapshot file — the
// store half of the streaming publisher's O(changed) publish path.
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
// Unknown tags are skipped (their CRC still verified), so later versions
// can append sections without breaking older readers.
package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"syscall"

	"repro/internal/core"
	"repro/internal/sparse"
)

// magic identifies a binary CPD snapshot; the 7th byte is the format
// version.
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
	tagEnd    = "END\x00"
)

// maxSectionBytes bounds a single section's claimed payload so a corrupt
// length field cannot trigger an arbitrarily large allocation; maxDim
// bounds each matrix/tensor dimension header so the element-count
// cross-checks below cannot overflow uint64 (dims up to 2^28 give
// products of at most 2^56 after the staged checks).
const (
	maxSectionBytes = 1 << 32
	maxDim          = 1 << 28
)

// Encode writes m as a binary snapshot.
func Encode(w io.Writer, m *core.Model) error {
	if m.Pi == nil || m.Theta == nil || m.Phi == nil || m.Eta == nil {
		return fmt.Errorf("store: model is missing parameter blocks")
	}
	e := &encoder{
		w:       bufio.NewWriterSize(w, 1<<16),
		crc:     crc32.NewIEEE(),
		scratch: make([]byte, 1<<15),
	}
	if _, err := e.w.WriteString(magic); err != nil {
		return fmt.Errorf("store: writing magic: %w", err)
	}

	cfgJSON, err := json.Marshal(m.Cfg)
	if err != nil {
		return fmt.Errorf("store: encoding config: %w", err)
	}
	e.section(tagConfig, uint64(len(cfgJSON)), func() { e.raw(cfgJSON) })
	e.section(tagDims, 4*8, func() {
		e.u64(uint64(m.NumUsers))
		e.u64(uint64(m.NumWords))
		e.u64(uint64(m.NumBuckets))
		e.u64(uint64(m.NumAttrs))
	})
	e.dense(tagPi, m.Pi)
	e.dense(tagTheta, m.Theta)
	e.dense(tagPhi, m.Phi)
	e.tensor(tagEta, m.Eta)
	e.section(tagNu, 8+8*uint64(len(m.Nu)), func() {
		e.u64(uint64(len(m.Nu)))
		e.floats(m.Nu)
	})
	if m.PopFreq != nil {
		e.dense(tagPop, m.PopFreq)
	}
	if m.Xi != nil {
		e.dense(tagXi, m.Xi)
	}
	e.ints32(tagDocC, m.DocCommunity)
	e.ints32(tagDocZ, m.DocTopic)
	e.section(tagDocB, 8+8*uint64(len(m.DocBucket)), func() {
		e.u64(uint64(len(m.DocBucket)))
		k := 0
		for _, v := range m.DocBucket {
			binary.LittleEndian.PutUint64(e.scratch[k:], uint64(int64(v)))
			k += 8
			if k == len(e.scratch) {
				e.raw(e.scratch)
				k = 0
			}
		}
		if k > 0 {
			e.raw(e.scratch[:k])
		}
	})
	e.section(tagEnd, 0, func() {})
	if e.err != nil {
		return fmt.Errorf("store: encoding snapshot: %w", e.err)
	}
	if err := e.w.Flush(); err != nil {
		return fmt.Errorf("store: flushing snapshot: %w", err)
	}
	return nil
}

type encoder struct {
	w       *bufio.Writer
	crc     hash.Hash32
	scratch []byte
	err     error
}

// section writes one section: header, the payload produced by body (which
// must write exactly payloadLen bytes through the e.raw/e.u64/e.floats
// helpers), and the payload CRC. Sections beyond the format's size limit
// are rejected at encode time — writing a snapshot Decode would refuse to
// read helps nobody.
func (e *encoder) section(tag string, payloadLen uint64, body func()) {
	if e.err != nil {
		return
	}
	if len(tag) != 4 {
		panic("store: section tag must be 4 bytes")
	}
	if payloadLen > maxSectionBytes {
		e.err = fmt.Errorf("section %q needs %d payload bytes, above the format's %d-byte section limit", tag, payloadLen, uint64(maxSectionBytes))
		return
	}
	e.crc.Reset()
	if _, err := e.w.WriteString(tag); err != nil {
		e.err = err
		return
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], payloadLen)
	if _, err := e.w.Write(hdr[:]); err != nil {
		e.err = err
		return
	}
	body()
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], e.crc.Sum32())
	if _, err := e.w.Write(tail[:]); err != nil {
		e.err = err
	}
}

// raw writes payload bytes, feeding the running CRC.
func (e *encoder) raw(p []byte) {
	if e.err != nil {
		return
	}
	if _, err := e.w.Write(p); err != nil {
		e.err = err
		return
	}
	e.crc.Write(p)
}

func (e *encoder) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	e.raw(b[:])
}

// floats streams a float64 slice through the scratch buffer.
func (e *encoder) floats(xs []float64) {
	k := 0
	for _, x := range xs {
		binary.LittleEndian.PutUint64(e.scratch[k:], math.Float64bits(x))
		k += 8
		if k == len(e.scratch) {
			e.raw(e.scratch)
			k = 0
		}
	}
	if k > 0 {
		e.raw(e.scratch[:k])
	}
}

func (e *encoder) dense(tag string, m *sparse.Dense) {
	e.section(tag, 2*8+8*uint64(len(m.Data)), func() {
		e.u64(uint64(m.Rows))
		e.u64(uint64(m.Cols))
		e.floats(m.Data)
	})
}

func (e *encoder) tensor(tag string, t *sparse.Tensor3) {
	e.section(tag, 3*8+8*uint64(len(t.Data)), func() {
		e.u64(uint64(t.D1))
		e.u64(uint64(t.D2))
		e.u64(uint64(t.D3))
		e.floats(t.Data)
	})
}

func (e *encoder) ints32(tag string, xs []int32) {
	e.section(tag, 8+4*uint64(len(xs)), func() {
		k := 0
		var hdr [8]byte
		binary.LittleEndian.PutUint64(hdr[:], uint64(len(xs)))
		e.raw(hdr[:])
		for _, x := range xs {
			binary.LittleEndian.PutUint32(e.scratch[k:], uint32(x))
			k += 4
			if k == len(e.scratch) {
				e.raw(e.scratch)
				k = 0
			}
		}
		if k > 0 {
			e.raw(e.scratch[:k])
		}
	})
}

// Decode reads a binary snapshot in either binary version (v1 stream or
// v2 section table — sniffed from the version byte), verifies every
// section's length and CRC, and returns the model with its prediction
// caches rebuilt. The v2 path here always copies; use Open for the
// zero-copy mapped path.
func Decode(r io.Reader) (*core.Model, error) {
	return decode(r, 0)
}

// decode implements Decode; limit > 0 additionally bounds every section's
// claimed payload length, so readers that know the input size (LoadFile,
// LoadBytes) never allocate more than the input could possibly back — the
// defence the FuzzLoad target leans on against corrupt length fields.
func decode(r io.Reader, limit uint64) (*core.Model, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 1<<16)
	}
	if head, err := br.Peek(len(magic)); err == nil && string(head) == magicV2 {
		return decodeV2(br, limit)
	}
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("store: reading magic: %w", err)
	}
	if string(head) != magic {
		if bytes.Equal(head[:6], []byte(magic[:6])) {
			return nil, fmt.Errorf("store: unsupported snapshot format version %d", head[6])
		}
		return nil, fmt.Errorf("store: not a CPD binary snapshot")
	}
	d := &decoder{r: br, crc: crc32.NewIEEE(), scratch: make([]byte, 1<<15), limit: limit}
	m := &core.Model{}
	var seenDims, seenEnd bool
	for !seenEnd {
		tag, payloadLen, err := d.sectionHeader()
		if err != nil {
			return nil, err
		}
		switch tag {
		case tagConfig:
			buf, err := d.take(payloadLen)
			if err == nil {
				err = decodeConfig(buf, &m.Cfg)
			}
			if err != nil {
				return nil, fmt.Errorf("store: section %q: %w", tag, err)
			}
		case tagDims:
			if payloadLen != 4*8 {
				return nil, fmt.Errorf("store: section %q has length %d, want 32", tag, payloadLen)
			}
			m.NumUsers = int(int64(d.u64()))
			m.NumWords = int(int64(d.u64()))
			m.NumBuckets = int(int64(d.u64()))
			m.NumAttrs = int(int64(d.u64()))
			seenDims = true
		case tagPi:
			m.Pi = d.dense(payloadLen)
		case tagTheta:
			m.Theta = d.dense(payloadLen)
		case tagPhi:
			m.Phi = d.dense(payloadLen)
		case tagPop:
			m.PopFreq = d.dense(payloadLen)
		case tagXi:
			m.Xi = d.dense(payloadLen)
		case tagEta:
			m.Eta = d.tensor(payloadLen)
		case tagNu:
			m.Nu = d.floatSlice(payloadLen)
		case tagDocC:
			m.DocCommunity = d.int32Slice(payloadLen)
		case tagDocZ:
			m.DocTopic = d.int32Slice(payloadLen)
		case tagDocB:
			m.DocBucket = d.intSlice(payloadLen)
		case tagEnd:
			if payloadLen != 0 {
				return nil, fmt.Errorf("store: terminator section has non-empty payload")
			}
			seenEnd = true
		default:
			// Forward compatibility: skip unknown sections, still
			// verifying their checksum.
			d.discard(payloadLen)
		}
		if d.err != nil {
			return nil, fmt.Errorf("store: section %q: %w", tag, d.err)
		}
		if err := d.sectionTrailer(); err != nil {
			return nil, fmt.Errorf("store: section %q: %w", tag, err)
		}
	}
	if !seenDims {
		return nil, fmt.Errorf("store: snapshot is missing the dimension section")
	}
	if m.Pi == nil || m.Theta == nil || m.Phi == nil || m.Eta == nil {
		return nil, fmt.Errorf("store: snapshot is missing parameter blocks")
	}
	if err := validateShapes(m); err != nil {
		return nil, err
	}
	m.Rehydrate()
	return m, nil
}

// validateShapes cross-checks the decoded blocks against the config and
// dimension section — a snapshot that passes its CRCs but was assembled
// inconsistently is still rejected before it can serve queries. The
// actual rules live on the model (core.Model.CheckShapes), shared with
// the JSON loader.
func validateShapes(m *core.Model) error {
	if err := m.CheckShapes(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

type decoder struct {
	r       *bufio.Reader
	crc     hash.Hash32
	scratch []byte
	err     error
	// limit > 0 caps each section's claimed payload at the known input
	// size (see decode).
	limit uint64
}

// sectionHeader reads the next tag and payload length and resets the CRC.
func (d *decoder) sectionHeader() (string, uint64, error) {
	var hdr [12]byte
	if _, err := io.ReadFull(d.r, hdr[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return "", 0, fmt.Errorf("store: snapshot truncated before terminator section")
		}
		return "", 0, fmt.Errorf("store: reading section header: %w", err)
	}
	n := binary.LittleEndian.Uint64(hdr[4:])
	if n > maxSectionBytes || (d.limit > 0 && n > d.limit) {
		return "", 0, fmt.Errorf("store: section %q claims %d payload bytes", hdr[:4], n)
	}
	d.crc.Reset()
	return string(hdr[:4]), n, nil
}

// sectionTrailer verifies the payload CRC once the payload was consumed.
func (d *decoder) sectionTrailer() error {
	var tail [4]byte
	if _, err := io.ReadFull(d.r, tail[:]); err != nil {
		return fmt.Errorf("reading checksum: %w", err)
	}
	if got, want := d.crc.Sum32(), binary.LittleEndian.Uint32(tail[:]); got != want {
		return fmt.Errorf("checksum mismatch (payload %08x, stored %08x)", got, want)
	}
	return nil
}

// read fills p from the payload, feeding the CRC.
func (d *decoder) read(p []byte) {
	if d.err != nil {
		return
	}
	if _, err := io.ReadFull(d.r, p); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			err = fmt.Errorf("payload truncated")
		}
		d.err = err
		return
	}
	d.crc.Write(p)
}

func (d *decoder) take(n uint64) ([]byte, error) {
	buf := make([]byte, n)
	d.read(buf)
	return buf, d.err
}

func (d *decoder) discard(n uint64) {
	for n > 0 && d.err == nil {
		chunk := uint64(len(d.scratch))
		if n < chunk {
			chunk = n
		}
		d.read(d.scratch[:chunk])
		n -= chunk
	}
}

func (d *decoder) u64() uint64 {
	var b [8]byte
	d.read(b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// floats streams count float64 values into dst through the scratch buffer.
func (d *decoder) floats(dst []float64) {
	for len(dst) > 0 && d.err == nil {
		n := len(d.scratch) / 8
		if len(dst) < n {
			n = len(dst)
		}
		buf := d.scratch[:8*n]
		d.read(buf)
		if d.err != nil {
			return
		}
		for i := 0; i < n; i++ {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
		}
		dst = dst[n:]
	}
}

func (d *decoder) dense(payloadLen uint64) *sparse.Dense {
	if d.err != nil {
		return nil
	}
	rows := int(int64(d.u64()))
	cols := int(int64(d.u64()))
	if d.err != nil {
		return nil
	}
	if rows < 0 || cols < 0 || rows > maxDim || cols > maxDim ||
		payloadLen != 2*8+8*uint64(rows)*uint64(cols) {
		d.err = fmt.Errorf("matrix header %dx%d disagrees with section length %d", rows, cols, payloadLen)
		return nil
	}
	m := sparse.NewDense(rows, cols)
	d.floats(m.Data)
	return m
}

func (d *decoder) tensor(payloadLen uint64) *sparse.Tensor3 {
	if d.err != nil {
		return nil
	}
	d1 := int(int64(d.u64()))
	d2 := int(int64(d.u64()))
	d3 := int(int64(d.u64()))
	if d.err != nil {
		return nil
	}
	bad := d1 < 0 || d2 < 0 || d3 < 0 || d1 > maxDim || d2 > maxDim || d3 > maxDim
	if !bad {
		// Staged product so 8*d1*d2*d3 cannot wrap: after the first check
		// the pairwise product is at most maxSectionBytes/8 < 2^29.
		p := uint64(d1) * uint64(d2)
		bad = p > maxSectionBytes/8
		if !bad {
			bad = payloadLen != 3*8+8*p*uint64(d3)
		}
	}
	if bad {
		d.err = fmt.Errorf("tensor header %dx%dx%d disagrees with section length %d", d1, d2, d3, payloadLen)
		return nil
	}
	t := sparse.NewTensor3(d1, d2, d3)
	d.floats(t.Data)
	return t
}

func (d *decoder) floatSlice(payloadLen uint64) []float64 {
	if d.err != nil {
		return nil
	}
	n := d.u64()
	if d.err != nil {
		return nil
	}
	if n > maxSectionBytes/8 || payloadLen != 8+8*n {
		d.err = fmt.Errorf("slice header %d disagrees with section length %d", n, payloadLen)
		return nil
	}
	if n == 0 {
		return nil
	}
	xs := make([]float64, n)
	d.floats(xs)
	return xs
}

func (d *decoder) int32Slice(payloadLen uint64) []int32 {
	if d.err != nil {
		return nil
	}
	n := d.u64()
	if d.err != nil {
		return nil
	}
	if n > maxSectionBytes/4 || payloadLen != 8+4*n {
		d.err = fmt.Errorf("slice header %d disagrees with section length %d", n, payloadLen)
		return nil
	}
	if n == 0 {
		return nil
	}
	xs := make([]int32, n)
	d.int32sInto(xs)
	return xs
}

// int32sInto streams len(dst) little-endian int32 values into dst.
func (d *decoder) int32sInto(xs []int32) {
	i := 0
	for i < len(xs) && d.err == nil {
		c := len(d.scratch) / 4
		if len(xs)-i < c {
			c = len(xs) - i
		}
		buf := d.scratch[:4*c]
		d.read(buf)
		if d.err != nil {
			return
		}
		for k := 0; k < c; k++ {
			xs[i+k] = int32(binary.LittleEndian.Uint32(buf[4*k:]))
		}
		i += c
	}
}

func (d *decoder) intSlice(payloadLen uint64) []int {
	if d.err != nil {
		return nil
	}
	n := d.u64()
	if d.err != nil {
		return nil
	}
	if n > maxSectionBytes/8 || payloadLen != 8+8*n {
		d.err = fmt.Errorf("slice header %d disagrees with section length %d", n, payloadLen)
		return nil
	}
	if n == 0 {
		return nil
	}
	xs := make([]int, n)
	d.int64sIntoInts(xs)
	return xs
}

// int64sIntoInts streams len(dst) little-endian int64 values into dst.
func (d *decoder) int64sIntoInts(xs []int) {
	i := 0
	for i < len(xs) && d.err == nil {
		c := len(d.scratch) / 8
		if len(xs)-i < c {
			c = len(xs) - i
		}
		buf := d.scratch[:8*c]
		d.read(buf)
		if d.err != nil {
			return
		}
		for k := 0; k < c; k++ {
			xs[i+k] = int(int64(binary.LittleEndian.Uint64(buf[8*k:])))
		}
		i += c
	}
}

// decodeConfig reads a CFG section. Workers is a fact about the host
// that wrote the file (WithDefaults resolves it from the CPU count), not
// a model parameter; it is still written, and ignored here, so that a
// loaded model is the same value on every host and resolves its worker
// count where it runs.
func decodeConfig(buf []byte, cfg *core.Config) error {
	if err := json.Unmarshal(buf, cfg); err != nil {
		return err
	}
	cfg.Workers = 0
	return nil
}

// Load reads a model from r in either format, sniffing the leading bytes:
// binary snapshots start with the magic, anything else is handed to the
// JSON compatibility reader (core.Load).
func Load(r io.Reader) (*core.Model, error) {
	return loadSniffed(r, 0)
}

// LoadBytes loads a model from an in-memory encoding in either format.
// Unlike Load it knows the input size, so a corrupt section header can
// never make it allocate beyond len(data).
func LoadBytes(data []byte) (*core.Model, error) {
	return loadSniffed(bytes.NewReader(data), uint64(len(data)))
}

func loadSniffed(r io.Reader, limit uint64) (*core.Model, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	head, err := br.Peek(len(magic))
	if err == nil && bytes.Equal(head[:6], []byte(magic[:6])) {
		return decode(br, limit)
	}
	return core.Load(br)
}

// LoadFile loads a model from path in either format. The file's size
// bounds every section allocation.
func LoadFile(path string) (*core.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	var limit uint64
	if fi, err := f.Stat(); err == nil && fi.Size() > 0 {
		limit = uint64(fi.Size())
	}
	m, err := loadSniffed(f, limit)
	if err != nil {
		return nil, fmt.Errorf("store: loading %s: %w", path, err)
	}
	return m, nil
}

// Save writes m to path as a v1 binary snapshot, atomically and crash-
// safely (see saveAtomic). SaveV2 writes the mmap-ready v2 layout with the
// same discipline.
func Save(path string, m *core.Model) error {
	return saveAtomic(path, func(f *os.File) error { return Encode(f, m) })
}

// saveAtomic writes a snapshot produced by encode to path through a
// temporary file in the same directory, fsyncs the file, renames it into
// place, and fsyncs the directory. The rename makes the swap atomic
// against concurrent readers (a serve.Engine reloading the path can never
// observe a partial model); the two syncs make it atomic against crashes —
// without the file sync a power loss can leave a zero-length file behind
// the new name, and without the directory sync the rename itself may not
// have reached stable storage, resurrecting the old (or no) snapshot.
//
// encode gets the temporary file itself, positioned at offset 0: the v2
// encoder streams payloads through Write and then patches the header in
// front of them through WriteAt. An encode that fails at either leaves
// nothing under path.
func saveAtomic(path string, encode func(*os.File) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := encode(tmp); err != nil {
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
	// CreateTemp opens 0600; give the snapshot the usual artifact mode.
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

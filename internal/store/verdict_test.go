package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"unsafe"
)

// verdictReader is one way into a v2 snapshot. verifies marks the readers
// that run RawFile.Check; Open and an unchecked RawFile skip it by design.
type verdictReader struct {
	name     string
	verifies bool
	read     func(raw []byte, path string) error
}

var verdictReaders = []verdictReader{
	{"LoadBytes", true, func(raw []byte, _ string) error {
		_, err := LoadBytes(raw)
		return err
	}},
	{"LoadFile", true, func(_ []byte, path string) error {
		_, err := LoadFile(path)
		return err
	}},
	{"Open", false, func(_ []byte, path string) error {
		mm, err := Open(path)
		if err == nil {
			mm.Close()
		}
		return err
	}},
	{"OpenRawFile+Check+AssembleRawModel", true, func(_ []byte, path string) error {
		return assembleRaw(path, true)
	}},
	{"OpenRawFile+AssembleRawModel", false, func(_ []byte, path string) error {
		return assembleRaw(path, false)
	}},
}

// assembleRaw opens path at the section level, runs RawFile.Check when
// check is set, and assembles every section into a model.
func assembleRaw(path string, check bool) error {
	rf, err := OpenRawFile(path)
	if err != nil {
		return err
	}
	defer rf.Close()
	if check {
		if err := rf.Check(); err != nil {
			return err
		}
	}
	_, err = AssembleRawModel(rf.Sections())
	return err
}

// verdictCase is one input of the table: whether a reader must accept it,
// and whether its only fault is payload bytes failing their CRC.
type verdictCase struct {
	name        string
	raw         []byte
	accept      bool
	payloadOnly bool
}

// verdictCases builds the table from one valid snapshot. The model has
// no documents, so a forged element count over an empty body is the only
// thing wrong with the file that carries it: the shape checks a whole
// model gets afterwards pass.
func verdictCases(t *testing.T) []verdictCase {
	m := testModel(10, 3, 3, 20, 41)
	m.DocCommunity, m.DocTopic, m.DocBucket = nil, nil, nil
	valid := encodeV2ToBytes(t, m)
	entries, err := readV2Table(bytes.NewReader(valid), uint64(len(valid)))
	if err != nil {
		t.Fatal(err)
	}
	secs := make([]RawSection, len(entries))
	for i, e := range entries {
		secs[i] = RawSection{Tag: e.tag, Payload: valid[e.off : e.off+e.size]}
	}
	entry := func(tag string) v2Entry {
		for _, e := range entries {
			if e.tag == tag {
				return e
			}
		}
		t.Fatalf("no %q section", tag)
		return v2Entry{}
	}
	encode := func(secs []RawSection) []byte {
		var buf bytes.Buffer
		if err := EncodeRawSections(&buf, secs); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// replace re-encodes the file with one payload swapped: every CRC and
	// the table stay honest.
	replace := func(tag string, payload []byte) []byte {
		out := append([]RawSection(nil), secs...)
		for i := range out {
			if out[i].Tag == tag {
				out[i].Payload = payload
			}
		}
		return encode(out)
	}
	shapeOnly := func(dims ...uint64) []byte {
		hdr := make([]byte, v2ShapeLen)
		for i, d := range dims {
			binary.LittleEndian.PutUint64(hdr[8*i:], d)
		}
		return hdr
	}
	// editTable changes one table entry and re-checksums the table, so the
	// entry's own rules are all that is wrong.
	editTable := func(i int, edit func(entry []byte)) []byte {
		raw := append([]byte(nil), valid...)
		edit(raw[v2HeaderLen+v2EntryLen*i:])
		table := raw[v2HeaderLen : v2HeaderLen+v2EntryLen*len(entries)]
		binary.LittleEndian.PutUint64(raw[16:], uint64(crc32.ChecksumIEEE(table)))
		return raw
	}
	flip := func(pos int) []byte {
		raw := append([]byte(nil), valid...)
		raw[pos] ^= 0x41
		return raw
	}
	pi := entry(tagPi)
	tallPi := append([]byte(nil), valid[pi.off:pi.off+pi.size]...)
	binary.LittleEndian.PutUint64(tallPi, 11) // 11 rows of 3 over 10 rows of data

	return []verdictCase{
		{name: "valid", raw: valid, accept: true},
		{name: "unknown section", raw: encode(append(append([]RawSection(nil), secs...), RawSection{Tag: "ZZZZ", Payload: []byte("later")})), accept: true},
		{name: "NU count 2^61 over an empty body", raw: replace(tagNu, shapeOnly(1<<61))},
		{name: "DOCC count 2^62 over an empty body", raw: replace(tagDocC, shapeOnly(1<<62))},
		{name: "DOCB count 2^61 over an empty body", raw: replace(tagDocB, shapeOnly(1<<61))},
		{name: "matrix element count wraps", raw: replace(tagPi, shapeOnly(3<<61, 2))},
		{name: "tensor pairwise product past the payload", raw: replace(tagEta, shapeOnly(1<<28, 1<<28, 1))},
		{name: "matrix header disagrees with its payload", raw: replace(tagPi, tallPi)},
		{name: "dimension section of 31 bytes", raw: replace(tagDims, valid[entry(tagDims).off:][:31])},
		{name: "payload shorter than its shape header", raw: replace(tagNu, make([]byte, 8))},
		{name: "config that is not JSON", raw: replace(tagConfig, []byte("{"))},
		{name: "table checksum mismatch", raw: flip(v2HeaderLen + 4)},
		{name: "section count zero", raw: func() []byte {
			raw := append([]byte(nil), valid...)
			binary.LittleEndian.PutUint64(raw[8:], 0)
			return raw
		}()},
		{name: "misaligned offset", raw: editTable(0, func(e []byte) {
			binary.LittleEndian.PutUint64(e[8:], binary.LittleEndian.Uint64(e[8:])+8)
		})},
		{name: "overlapping sections", raw: editTable(1, func(e []byte) {
			binary.LittleEndian.PutUint64(e[8:], entries[0].off)
		})},
		{name: "section past the end", raw: editTable(len(entries)-1, func(e []byte) {
			binary.LittleEndian.PutUint64(e[16:], binary.LittleEndian.Uint64(e[16:])+64)
		})},
		{name: "truncated inside the table", raw: valid[:v2HeaderLen+40]},
		{name: "truncated inside the last payload", raw: valid[:len(valid)-1]},
		{name: "header never written", raw: unpatchedV2(t, m)},
		{name: "future format version", raw: append([]byte("CPDSNP\x03\n"), valid[8:]...)},
		{name: "payload bit flip", raw: flip(int(pi.off) + v2ShapeLen + 3), payloadOnly: true},
	}
}

// TestReadersAgreeOnEveryFault holds every v2 reader to one verdict per
// input: a structural fault — a forged element count, a shape that
// disagrees with its payload, a broken table, a truncation — is rejected
// by all of them and a valid file with an unknown section accepted by
// all. A payload bit flip is rejected by the readers that verify payload
// CRCs; Open and an unchecked RawFile are exempt by design. The table runs twice:
// with numeric blocks aliased where the host allows, and converted as on
// a big-endian host.
func TestReadersAgreeOnEveryFault(t *testing.T) {
	cases := verdictCases(t)
	run := func(t *testing.T) {
		for _, c := range cases {
			path := filepath.Join(t.TempDir(), "case.v2.snap")
			if err := os.WriteFile(path, c.raw, 0o644); err != nil {
				t.Fatal(err)
			}
			for _, r := range verdictReaders {
				want := c.accept || (c.payloadOnly && !r.verifies)
				if err := r.read(c.raw, path); (err == nil) != want {
					t.Errorf("%s: %s accepted=%v, want %v (err: %v)", c.name, r.name, err == nil, want, err)
				}
			}
		}
	}
	t.Run("aliased", run)
	t.Run("converted", func(t *testing.T) { withConvertedNumerics(func() { run(t) }) })
}

// TestAliasedBlocksHaveNoSpareCapacity: a block aliasing snapshot bytes
// ends where its section does — cap == len — so appending to it (as the
// updater does to Π) reallocates instead of writing over the next
// section. Open's Π is checked to really alias the mapping, so the
// property is tested where it matters.
func TestAliasedBlocksHaveNoSpareCapacity(t *testing.T) {
	m := testModel(16, 4, 3, 30, 42)
	attachAttrs(m, 5, 43)
	raw := encodeV2ToBytes(t, m)
	for name, got := range everyReader(t, raw) {
		blocks := map[string][2]int{
			"pi": {len(got.Pi.Data), cap(got.Pi.Data)}, "theta": {len(got.Theta.Data), cap(got.Theta.Data)},
			"phi": {len(got.Phi.Data), cap(got.Phi.Data)}, "eta": {len(got.Eta.Data), cap(got.Eta.Data)},
			"pop": {len(got.PopFreq.Data), cap(got.PopFreq.Data)}, "xi": {len(got.Xi.Data), cap(got.Xi.Data)},
			"nu": {len(got.Nu), cap(got.Nu)}, "docc": {len(got.DocCommunity), cap(got.DocCommunity)},
			"docz": {len(got.DocTopic), cap(got.DocTopic)},
		}
		for block, lc := range blocks {
			if lc[0] != lc[1] {
				t.Errorf("%s: %s has len %d, cap %d", name, block, lc[0], lc[1])
			}
		}
	}
	path := filepath.Join(t.TempDir(), "m.v2.snap")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	mm, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mm.Close()
	data := mm.raw.data
	start := uintptr(unsafe.Pointer(&data[0]))
	if p := uintptr(unsafe.Pointer(&mm.Model.Pi.Data[0])); aliasNumeric && (p < start || p >= start+uintptr(len(data))) {
		t.Fatal("Open's Π does not alias the snapshot bytes on an aliasing host")
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Eight more rows reach past Π's padding and Θ's shape header into Θ's
	// elements, were the append to write in place.
	theta := append([]float64(nil), loaded.Theta.Data...)
	rows := make([]float64, 8*loaded.Pi.Cols)
	for i := range rows {
		rows[i] = -1
	}
	_ = append(loaded.Pi.Data, rows...)
	if !sameFloats(theta, loaded.Theta.Data) {
		t.Fatal("appending rows to a loaded Π changed Θ")
	}
}

package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/socialgraph"
	"repro/internal/sparse"
)

// testModel assembles a deterministic model directly from random parameter
// blocks — no training run — shaped like a small trained CPD model.
func testModel(users, C, Z, V int, seed uint64) *core.Model {
	r := rng.New(seed)
	m := &core.Model{
		Cfg: core.Config{
			NumCommunities: C, NumTopics: Z, Seed: seed,
		}.WithDefaults(),
		NumUsers:   users,
		NumWords:   V,
		NumBuckets: 4,
		Pi:         sparse.NewDense(users, C),
		Theta:      sparse.NewDense(C, Z),
		Phi:        sparse.NewDense(Z, V),
		Eta:        sparse.NewTensor3(C, C, Z),
		Nu:         make([]float64, socialgraph.FeatureDim),
		PopFreq:    sparse.NewDense(4, Z),
	}
	fill := func(xs []float64) {
		for i := range xs {
			xs[i] = r.Float64()
		}
	}
	fill(m.Pi.Data)
	fill(m.Theta.Data)
	fill(m.Phi.Data)
	fill(m.Eta.Data)
	fill(m.Nu)
	fill(m.PopFreq.Data)
	m.Pi.NormalizeRows()
	m.Theta.NormalizeRows()
	m.Phi.NormalizeRows()
	m.PopFreq.NormalizeRows()
	docs := 3 * users
	m.DocCommunity = make([]int32, docs)
	m.DocTopic = make([]int32, docs)
	m.DocBucket = make([]int, docs)
	for i := 0; i < docs; i++ {
		m.DocCommunity[i] = int32(r.Intn(C))
		m.DocTopic[i] = int32(r.Intn(Z))
		m.DocBucket[i] = r.Intn(4)
	}
	m.Rehydrate()
	return m
}

func attachAttrs(m *core.Model, attrs int, seed uint64) {
	r := rng.New(seed)
	m.NumAttrs = attrs
	m.Xi = sparse.NewDense(m.Cfg.NumCommunities, attrs)
	for i := range m.Xi.Data {
		m.Xi.Data[i] = r.Float64()
	}
	m.Xi.NormalizeRows()
}

func denseEqual(t *testing.T, name string, a, b *sparse.Dense) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("%s: nil mismatch", name)
	}
	if a == nil {
		return
	}
	if a.Rows != b.Rows || a.Cols != b.Cols || !reflect.DeepEqual(a.Data, b.Data) {
		t.Fatalf("%s differs after round trip", name)
	}
}

func modelsEquivalent(t *testing.T, a, b *core.Model) {
	t.Helper()
	// Modulo Workers: a host fact the decoders drop (decodeConfig).
	ac, bc := a.Cfg, b.Cfg
	ac.Workers, bc.Workers = 0, 0
	if !reflect.DeepEqual(ac, bc) {
		t.Fatalf("config differs: %+v vs %+v", ac, bc)
	}
	if a.NumUsers != b.NumUsers || a.NumWords != b.NumWords ||
		a.NumBuckets != b.NumBuckets || a.NumAttrs != b.NumAttrs {
		t.Fatalf("dimensions differ")
	}
	denseEqual(t, "pi", a.Pi, b.Pi)
	denseEqual(t, "theta", a.Theta, b.Theta)
	denseEqual(t, "phi", a.Phi, b.Phi)
	denseEqual(t, "popfreq", a.PopFreq, b.PopFreq)
	denseEqual(t, "xi", a.Xi, b.Xi)
	if !reflect.DeepEqual(a.Eta.Data, b.Eta.Data) {
		t.Fatalf("eta differs")
	}
	if !reflect.DeepEqual(a.Nu, b.Nu) {
		t.Fatalf("nu differs")
	}
	if !reflect.DeepEqual(a.DocCommunity, b.DocCommunity) ||
		!reflect.DeepEqual(a.DocTopic, b.DocTopic) ||
		!reflect.DeepEqual(a.DocBucket, b.DocBucket) {
		t.Fatalf("document assignments differ")
	}
}

func encodeToBytes(t *testing.T, m *core.Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestBinaryRoundTrip(t *testing.T) {
	m := testModel(40, 6, 5, 120, 1)
	got, err := Decode(bytes.NewReader(encodeToBytes(t, m)))
	if err != nil {
		t.Fatal(err)
	}
	modelsEquivalent(t, m, got)
	// The decoded model must have working caches: the Eq. 19 ranking and a
	// link probability must match the original bit-for-bit.
	q := []int32{3, 7}
	want, have := m.RankCommunities(q), got.RankCommunities(q)
	if !reflect.DeepEqual(want, have) {
		t.Fatalf("rank scores differ after round trip: %v vs %v", want, have)
	}
	if a, b := m.FriendshipProb(0, 1), got.FriendshipProb(0, 1); a != b {
		t.Fatalf("friendship prob differs: %v vs %v", a, b)
	}
}

func TestBinaryRoundTripWithAttributes(t *testing.T) {
	m := testModel(25, 5, 4, 80, 2)
	attachAttrs(m, 9, 3)
	got, err := Decode(bytes.NewReader(encodeToBytes(t, m)))
	if err != nil {
		t.Fatal(err)
	}
	modelsEquivalent(t, m, got)
}

// TestJSONBinaryEquivalence feeds both encodings of the same model through
// the sniffing Load and requires identical models back.
func TestJSONBinaryEquivalence(t *testing.T) {
	m := testModel(30, 5, 4, 100, 4)
	var jsonBuf bytes.Buffer
	if err := m.Save(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	fromJSON, err := Load(bytes.NewReader(jsonBuf.Bytes()))
	if err != nil {
		t.Fatalf("loading JSON: %v", err)
	}
	fromBinary, err := Load(bytes.NewReader(encodeToBytes(t, m)))
	if err != nil {
		t.Fatalf("loading binary: %v", err)
	}
	modelsEquivalent(t, m, fromJSON)
	modelsEquivalent(t, fromJSON, fromBinary)
}

func TestEmptyModelRoundTrip(t *testing.T) {
	m := &core.Model{
		Cfg:     core.Config{NumCommunities: 2, NumTopics: 2}.WithDefaults(),
		Pi:      sparse.NewDense(0, 2),
		Theta:   sparse.NewDense(2, 2),
		Phi:     sparse.NewDense(2, 0),
		Eta:     sparse.NewTensor3(2, 2, 2),
		PopFreq: sparse.NewDense(0, 2),
	}
	m.Rehydrate()
	got, err := Decode(bytes.NewReader(encodeToBytes(t, m)))
	if err != nil {
		t.Fatal(err)
	}
	modelsEquivalent(t, m, got)
}

func TestCorruptSnapshotRejected(t *testing.T) {
	raw := encodeToBytes(t, testModel(20, 4, 3, 60, 5))
	// Flip one byte in every region of the file: header, early section,
	// deep payload, trailing checksum.
	for _, pos := range []int{2, 20, len(raw) / 2, len(raw) - 3} {
		bad := append([]byte(nil), raw...)
		bad[pos] ^= 0x41
		if _, err := Decode(bytes.NewReader(bad)); err == nil {
			t.Fatalf("corruption at byte %d accepted", pos)
		}
	}
}

func TestTruncatedSnapshotRejected(t *testing.T) {
	raw := encodeToBytes(t, testModel(20, 4, 3, 60, 6))
	for _, n := range []int{0, 4, len(magic), 30, len(raw) / 3, len(raw) - 1} {
		if _, err := Decode(bytes.NewReader(raw[:n])); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
}

func TestUnsupportedVersionRejected(t *testing.T) {
	raw := encodeToBytes(t, testModel(10, 3, 3, 40, 7))
	raw[6] = 0x7f // version byte
	_, err := Decode(bytes.NewReader(raw))
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("want version error, got %v", err)
	}
}

// TestUnknownSectionSkipped verifies forward compatibility: a reader must
// skip (but checksum) sections it does not know.
func TestUnknownSectionSkipped(t *testing.T) {
	m := testModel(15, 4, 3, 50, 8)
	raw := encodeToBytes(t, m)
	// Splice an unknown section right after the magic.
	extra := buildSection("ZZZZ", []byte("future payload"))
	spliced := append(append(append([]byte(nil), raw[:len(magic)]...), extra...), raw[len(magic):]...)
	got, err := Decode(bytes.NewReader(spliced))
	if err != nil {
		t.Fatal(err)
	}
	modelsEquivalent(t, m, got)
}

func buildSection(tag string, payload []byte) []byte {
	var buf bytes.Buffer
	e := &encoder{w: bufio.NewWriter(&buf), crc: crc32.NewIEEE(), scratch: make([]byte, 64)}
	e.section(tag, uint64(len(payload)), func() { e.raw(payload) })
	e.w.Flush()
	return buf.Bytes()
}

// TestOverflowingHeaderRejected: crafted dimension headers whose element
// counts overflow the uint64 section-length cross-check must be rejected
// with an error, not panic in make().
func TestOverflowingHeaderRejected(t *testing.T) {
	u64 := func(vs ...uint64) []byte {
		var out []byte
		for _, v := range vs {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], v)
			out = append(out, b[:]...)
		}
		return out
	}
	cases := map[string][]byte{
		// 8*rows*cols wraps to 0, so the 16-byte payload "matches".
		"dense-overflow": buildSection(tagPi, u64(3<<61, 2)),
		// Pairwise product exceeds the section budget.
		"tensor-overflow": buildSection(tagEta, u64(1<<28, 1<<28, 1)),
		// Slice count wraps 8*n around to 8, matching the 16-byte payload.
		"slice-overflow": buildSection(tagNu, u64(1<<61+1, 0)),
	}
	for name, sec := range cases {
		raw := append([]byte(magic), sec...)
		raw = append(raw, buildSection(tagEnd, nil)...)
		if _, err := Decode(bytes.NewReader(raw)); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

func TestSaveIsAtomicAndLoadFileSniffs(t *testing.T) {
	dir := t.TempDir()
	m := testModel(12, 3, 3, 30, 9)

	binPath := filepath.Join(dir, "model.snap")
	if err := Save(binPath, m); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(binPath)
	if err != nil {
		t.Fatal(err)
	}
	modelsEquivalent(t, m, got)

	// No temporary file may survive a successful Save.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("leftover temporary file %s", e.Name())
		}
	}

	// LoadFile must also read the JSON format.
	jsonPath := filepath.Join(dir, "model.json")
	f, err := os.Create(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err = LoadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	modelsEquivalent(t, m, got)
}

// TestBinarySmallerThanJSON pins the size advantage: 8 bytes per float
// beats JSON's decimal expansion.
func TestBinarySmallerThanJSON(t *testing.T) {
	m := testModel(50, 8, 6, 200, 10)
	var jsonBuf bytes.Buffer
	if err := m.Save(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	bin := encodeToBytes(t, m)
	if len(bin) >= jsonBuf.Len() {
		t.Fatalf("binary snapshot (%d bytes) not smaller than JSON (%d bytes)", len(bin), jsonBuf.Len())
	}
}

func TestEncodeRejectsIncompleteModel(t *testing.T) {
	if err := Encode(&bytes.Buffer{}, &core.Model{}); err == nil {
		t.Fatal("model without parameter blocks accepted")
	}
}

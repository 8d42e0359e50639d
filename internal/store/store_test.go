package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
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

// sameFloats compares two blocks bit for bit; an empty block equals a nil
// one (decoders hand back nil for empty sections).
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func denseEqual(t *testing.T, name string, a, b *sparse.Dense) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("%s: nil mismatch", name)
	}
	if a == nil {
		return
	}
	if a.Rows != b.Rows || a.Cols != b.Cols || !sameFloats(a.Data, b.Data) {
		t.Fatalf("%s differs after round trip", name)
	}
}

func modelsEquivalent(t *testing.T, a, b *core.Model) {
	t.Helper()
	// Modulo Workers: a host fact no format persists.
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
	if !sameFloats(a.Eta.Data, b.Eta.Data) {
		t.Fatalf("eta differs")
	}
	if !sameFloats(a.Nu, b.Nu) {
		t.Fatalf("nu differs")
	}
	if !slices.Equal(a.DocCommunity, b.DocCommunity) ||
		!slices.Equal(a.DocTopic, b.DocTopic) ||
		!slices.Equal(a.DocBucket, b.DocBucket) {
		t.Fatalf("document assignments differ")
	}
}

// goldenV1 returns the bytes of the committed v1 fixture: nothing writes
// v1 any more, so every v1 reader test mutates these.
func goldenV1(t testing.TB) []byte {
	t.Helper()
	raw, err := os.ReadFile(goldenPath("golden-v1.snap"))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// jsonBytes is m in the legacy JSON encoding, the way a model file of
// that format was written.
func jsonBytes(t testing.TB, m *core.Model) []byte {
	t.Helper()
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestJSONBinaryEquivalence feeds the JSON and v2 encodings of the same
// model through the sniffing LoadBytes and requires identical models back.
func TestJSONBinaryEquivalence(t *testing.T) {
	m := testModel(30, 5, 4, 100, 4)
	fromJSON, err := LoadBytes(jsonBytes(t, m))
	if err != nil {
		t.Fatalf("loading JSON: %v", err)
	}
	fromBinary, err := LoadBytes(encodeV2ToBytes(t, m))
	if err != nil {
		t.Fatalf("loading v2: %v", err)
	}
	modelsEquivalent(t, m, fromJSON)
	modelsEquivalent(t, fromJSON, fromBinary)
}

func TestCorruptSnapshotRejected(t *testing.T) {
	raw := goldenV1(t)
	// Flip one byte in every region of the file: header, early section,
	// deep payload, trailing checksum.
	for _, pos := range []int{2, 20, len(raw) / 2, len(raw) - 3} {
		bad := append([]byte(nil), raw...)
		bad[pos] ^= 0x41
		if _, err := LoadBytes(bad); err == nil {
			t.Fatalf("corruption at byte %d accepted", pos)
		}
	}
}

func TestTruncatedSnapshotRejected(t *testing.T) {
	raw := goldenV1(t)
	for _, n := range []int{0, 4, len(magic), 30, len(raw) / 3, len(raw) - 1} {
		if _, err := LoadBytes(raw[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
}

func TestUnsupportedVersionRejected(t *testing.T) {
	raw := goldenV1(t)
	raw[6] = 0x7f // version byte
	_, err := LoadBytes(raw)
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("want version error, got %v", err)
	}
}

// TestUnknownSectionSkipped verifies forward compatibility: a reader must
// skip (but checksum) sections it does not know.
func TestUnknownSectionSkipped(t *testing.T) {
	raw := goldenV1(t)
	// Splice an unknown section right after the magic.
	extra := buildSection("ZZZZ", []byte("future payload"))
	spliced := append(append(append([]byte(nil), raw[:len(magic)]...), extra...), raw[len(magic):]...)
	got, err := LoadBytes(spliced)
	if err != nil {
		t.Fatal(err)
	}
	modelsEquivalent(t, goldenModel(), got)
	spliced[len(magic)+12] ^= 1 // the unknown payload no longer matches its CRC
	if _, err := LoadBytes(spliced); err == nil {
		t.Fatal("an unknown section failing its checksum was accepted")
	}
}

// buildSection frames payload as one v1 section.
func buildSection(tag string, payload []byte) []byte {
	out := append([]byte(tag), binary.LittleEndian.AppendUint64(nil, uint64(len(payload)))...)
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
}

// TestOverflowingHeaderRejected: crafted dimension headers whose element
// counts overflow the uint64 section-length cross-check must be rejected
// with an error, not panic in make().
func TestOverflowingHeaderRejected(t *testing.T) {
	u64 := func(vs ...uint64) []byte {
		var out []byte
		for _, v := range vs {
			out = binary.LittleEndian.AppendUint64(out, v)
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
	fixture := goldenV1(t)
	for name, sec := range cases {
		// The forged section goes in front of the fixture's own, so the
		// file is whole apart from it.
		raw := append([]byte(magic), sec...)
		raw = append(raw, fixture[len(magic):]...)
		if _, err := LoadBytes(raw); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

func TestSaveIsAtomicAndLoadFileSniffs(t *testing.T) {
	dir := t.TempDir()
	m := testModel(12, 3, 3, 30, 9)

	binPath := filepath.Join(dir, "model.snap")
	if err := SaveV2(binPath, m); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(binPath)
	if err != nil {
		t.Fatal(err)
	}
	modelsEquivalent(t, m, got)

	// No temporary file may survive a successful save.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("leftover temporary file %s", e.Name())
		}
	}

	// LoadFile must also read the legacy formats.
	jsonPath := filepath.Join(dir, "model.json")
	if err := os.WriteFile(jsonPath, jsonBytes(t, m), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err = LoadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	modelsEquivalent(t, m, got)
	got, err = LoadFile(goldenPath("golden-v1.snap"))
	if err != nil {
		t.Fatal(err)
	}
	modelsEquivalent(t, goldenModel(), got)
}

// TestBinarySmallerThanJSON pins the size advantage: 8 bytes per float
// beats JSON's decimal expansion.
func TestBinarySmallerThanJSON(t *testing.T) {
	m := testModel(50, 8, 6, 200, 10)
	bin, js := encodeV2ToBytes(t, m), jsonBytes(t, m)
	if len(bin) >= len(js) {
		t.Fatalf("binary snapshot (%d bytes) not smaller than JSON (%d bytes)", len(bin), len(js))
	}
}

func TestEncodeRejectsIncompleteModel(t *testing.T) {
	if err := EncodeV2(&bytes.Buffer{}, &core.Model{}); err == nil {
		t.Fatal("model without parameter blocks accepted")
	}
}

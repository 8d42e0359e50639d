package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sparse"
)

func encodeV2ToBytes(t *testing.T, m *core.Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeV2(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// everyReader loads raw through each v2 reader: the verifying copies
// (LoadBytes, LoadFile) and the mapped ones (Open, OpenRawFile +
// AssembleRawModel). Mapped models are closed at the end of the test.
func everyReader(t *testing.T, raw []byte) map[string]*core.Model {
	t.Helper()
	path := filepath.Join(t.TempDir(), "model.v2.snap")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	models := make(map[string]*core.Model)
	load := func(name string, m *core.Model, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		models[name] = m
	}
	m, err := LoadBytes(raw)
	load("LoadBytes", m, err)
	m, err = LoadFile(path)
	load("LoadFile", m, err)
	mm, err := Open(path)
	if err == nil {
		t.Cleanup(func() { mm.Close() })
		m = mm.Model
	}
	load("Open", m, err)
	rf, err := OpenRawFile(path)
	if err == nil {
		t.Cleanup(func() { rf.Close() })
		m, err = AssembleRawModel(rf.Sections())
	}
	load("AssembleRawModel", m, err)
	return models
}

func TestV2RoundTrip(t *testing.T) {
	m := testModel(40, 6, 5, 120, 21)
	for name, got := range everyReader(t, encodeV2ToBytes(t, m)) {
		modelsEquivalent(t, m, got)
		// The loaded model must have working caches: the Eq. 19 ranking and
		// a link probability must match the original bit-for-bit.
		q := []int32{3, 7}
		if want, have := m.RankCommunities(q), got.RankCommunities(q); !reflect.DeepEqual(want, have) {
			t.Fatalf("%s: rank scores differ after v2 round trip: %v vs %v", name, want, have)
		}
		if a, b := m.FriendshipProb(0, 1), got.FriendshipProb(0, 1); a != b {
			t.Fatalf("%s: friendship prob differs: %v vs %v", name, a, b)
		}
	}
}

func TestV2RoundTripWithAttributes(t *testing.T) {
	m := testModel(25, 5, 4, 80, 22)
	attachAttrs(m, 9, 23)
	for _, got := range everyReader(t, encodeV2ToBytes(t, m)) {
		modelsEquivalent(t, m, got)
	}
}

func TestV2EmptyModelRoundTrip(t *testing.T) {
	m := &core.Model{
		Cfg:     core.Config{NumCommunities: 2, NumTopics: 2}.WithDefaults(),
		Pi:      sparse.NewDense(0, 2),
		Theta:   sparse.NewDense(2, 2),
		Phi:     sparse.NewDense(2, 0),
		Eta:     sparse.NewTensor3(2, 2, 2),
		PopFreq: sparse.NewDense(0, 2),
	}
	m.Rehydrate()
	for _, got := range everyReader(t, encodeV2ToBytes(t, m)) {
		modelsEquivalent(t, m, got)
	}
}

// TestWorkersNotPersisted: the worker count is a fact about the training
// host, so two models that differ only in it are the same snapshot, byte
// for byte.
func TestWorkersNotPersisted(t *testing.T) {
	a := testModel(12, 3, 3, 30, 40)
	b := *a
	a.Cfg.Workers, b.Cfg.Workers = 1, 8
	if !bytes.Equal(encodeV2ToBytes(t, a), encodeV2ToBytes(t, &b)) {
		t.Fatal("models differing only in Cfg.Workers encode to different snapshots")
	}
}

// TestV2Alignment pins the format's layout promises: every payload offset
// is 64-byte aligned (so numeric data, which begins after the 64-byte
// shape header, is cache-line aligned too), and the table walks the file
// in ascending offset order.
func TestV2Alignment(t *testing.T) {
	raw := encodeV2ToBytes(t, testModel(17, 5, 4, 70, 24))
	entries, err := readV2Table(bytes.NewReader(raw), uint64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 10 {
		t.Fatalf("only %d sections in a full model", len(entries))
	}
	var prevEnd uint64
	for _, e := range entries {
		if e.off%v2Align != 0 {
			t.Errorf("section %q at offset %d is not %d-byte aligned", e.tag, e.off, v2Align)
		}
		if e.off < prevEnd {
			t.Errorf("section %q overlaps its predecessor", e.tag)
		}
		prevEnd = e.off + e.size
		if prevEnd > uint64(len(raw)) {
			t.Errorf("section %q extends past the file", e.tag)
		}
	}
}

func TestV2MappedOpen(t *testing.T) {
	dir := t.TempDir()
	m := testModel(30, 6, 5, 150, 25)
	attachAttrs(m, 7, 26)
	path := filepath.Join(dir, "model.v2.snap")
	if err := SaveV2(path, m); err != nil {
		t.Fatal(err)
	}
	mm, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mm.Close()
	modelsEquivalent(t, m, mm.Model)
	q := []int32{5, 11, 40}
	if want, have := m.RankCommunities(q), mm.Model.RankCommunities(q); !reflect.DeepEqual(want, have) {
		t.Fatalf("rank scores differ on the mapped model")
	}
	if a, b := m.FriendshipProb(0, 1), mm.Model.FriendshipProb(0, 1); a != b {
		t.Fatalf("friendship prob differs on the mapped model: %v vs %v", a, b)
	}
	if runtime.GOOS == "linux" && !mm.Mapped() {
		t.Error("Open did not produce a real mapping on linux")
	}
	if mm.MappedBytes() == 0 {
		t.Error("MappedBytes reports 0 for a mapped snapshot")
	}
	if mm.HeapBytes() <= 0 {
		t.Error("HeapBytes reports nothing for the caches")
	}
	if err := mm.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mm.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

// TestOpenAllocationsIndependentOfUsers: mapping a snapshot builds nothing
// per user — the allocation count of Open is the same at 400 users and at
// 12 000 (the caches it rehydrates are O(|Z|·|C|²)).
func TestOpenAllocationsIndependentOfUsers(t *testing.T) {
	dir := t.TempDir()
	allocs := func(users int) float64 {
		path := filepath.Join(dir, fmt.Sprintf("users-%d.v2.snap", users))
		if err := SaveV2(path, testModel(users, 6, 5, 40, 31)); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			mm, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			mm.Close()
		})
	}
	if small, large := allocs(400), allocs(12000); small != large {
		t.Fatalf("Open allocates %.0f times at 400 users and %.0f at 12000", small, large)
	}
}

// TestV2MappedOpenIsZeroCopy is the acceptance check for the zero-copy
// claim: opening a v2 snapshot must allocate heap for the caches only,
// not for the matrix payloads. The model is shaped so the matrices
// (~dominated by Phi) dwarf the caches by >10x; the heap growth across
// Open must stay well under the matrix footprint.
func TestV2MappedOpenIsZeroCopy(t *testing.T) {
	dir := t.TempDir()
	m := testModel(50, 4, 3, 60000, 27) // Phi alone: 3*60000*8 ≈ 1.4 MB
	path := filepath.Join(dir, "model.v2.snap")
	if err := SaveV2(path, m); err != nil {
		t.Fatal(err)
	}
	matrixBytes := m.MatrixBytes()

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	mm, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	defer mm.Close()

	allocated := int64(after.TotalAlloc - before.TotalAlloc)
	if !mm.Mapped() {
		t.Skip("no real mapping on this platform; zero-copy bound does not apply")
	}
	if allocated > matrixBytes/4 {
		t.Errorf("Open allocated %d heap bytes for a %d-byte matrix payload; mapped open must not copy matrices",
			allocated, matrixBytes)
	}
}

func TestV2CorruptTableRejected(t *testing.T) {
	raw := encodeV2ToBytes(t, testModel(20, 4, 3, 60, 28))
	for _, pos := range []int{2, 9, 20, 40} { // magic, count, table bytes
		bad := append([]byte(nil), raw...)
		bad[pos] ^= 0x41
		if _, err := LoadBytes(bad); err == nil {
			t.Errorf("table corruption at byte %d accepted by LoadBytes", pos)
		}
		if mm, err := openBytesForTest(t, bad); err == nil {
			mm.Close()
			t.Errorf("table corruption at byte %d accepted by Open", pos)
		}
	}
}

func TestV2CorruptPayloadRejectedByCopyDecoder(t *testing.T) {
	raw := encodeV2ToBytes(t, testModel(20, 4, 3, 60, 29))
	// Flip bytes deep in payload territory: the copying loader verifies
	// every payload CRC. (Open intentionally does not — see the format
	// doc — so only LoadBytes is asserted here.)
	for _, pos := range []int{len(raw) / 2, len(raw) - 3} {
		bad := append([]byte(nil), raw...)
		bad[pos] ^= 0x41
		if _, err := LoadBytes(bad); err == nil {
			t.Errorf("payload corruption at byte %d accepted by LoadBytes", pos)
		}
	}
}

func TestV2TruncatedRejected(t *testing.T) {
	raw := encodeV2ToBytes(t, testModel(20, 4, 3, 60, 30))
	for _, n := range []int{0, 4, 8, v2HeaderLen, v2HeaderLen + 16, len(raw) / 3, len(raw) - 1} {
		if _, err := LoadBytes(raw[:n]); err == nil {
			t.Errorf("truncation to %d bytes accepted by LoadBytes", n)
		}
		if mm, err := openBytesForTest(t, raw[:n]); err == nil {
			mm.Close()
			t.Errorf("truncation to %d bytes accepted by Open", n)
		}
	}
}

// TestV2UnknownSectionSkipped: every v2 reader must skip sections with
// unknown tags (forward compatibility), like the v1 reader does.
func TestV2UnknownSectionSkipped(t *testing.T) {
	m := testModel(15, 4, 3, 50, 31)
	plan, err := v2Plan(m)
	if err != nil {
		t.Fatal(err)
	}
	future := []byte("payload from the future")
	plan = append(plan, &v2section{
		tag:  "ZZZZ",
		size: uint64(len(future)),
		emit: func(s *v2sink) { s.raw(future) },
	})
	for _, got := range everyReader(t, encodePlanForTest(t, plan)) {
		modelsEquivalent(t, m, got)
	}
}

// TestV2MisalignedOffsetRejected guards the aliasing precondition: a table
// whose offsets break the 64-byte rule must be rejected, not mapped.
func TestV2MisalignedOffsetRejected(t *testing.T) {
	raw := encodeV2ToBytes(t, testModel(10, 3, 3, 40, 32))
	bad := append([]byte(nil), raw...)
	// Nudge the first section's offset by 8 and re-checksum the table so
	// only the alignment rule is violated.
	count := binary.LittleEndian.Uint64(bad[8:])
	off := binary.LittleEndian.Uint64(bad[v2HeaderLen+8:])
	binary.LittleEndian.PutUint64(bad[v2HeaderLen+8:], off+8)
	table := bad[v2HeaderLen : v2HeaderLen+count*v2EntryLen]
	binary.LittleEndian.PutUint64(bad[16:], uint64(crc32.ChecksumIEEE(table)))
	if _, err := LoadBytes(bad); err == nil || !strings.Contains(err.Error(), "aligned") {
		t.Errorf("misaligned section accepted by LoadBytes (err=%v)", err)
	}
	if mm, err := openBytesForTest(t, bad); err == nil {
		mm.Close()
		t.Error("misaligned section accepted by Open")
	}
}

func TestSaveV2IsAtomic(t *testing.T) {
	dir := t.TempDir()
	m := testModel(12, 3, 3, 30, 33)
	path := filepath.Join(dir, "model.v2.snap")
	if err := SaveV2(path, m); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	modelsEquivalent(t, m, got)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("leftover temporary file %s", e.Name())
		}
	}
}

// TestSaveV2WritesEncodeV2Bytes: the file SaveV2 commits holds exactly
// the bytes EncodeV2 produces for the same model.
func TestSaveV2WritesEncodeV2Bytes(t *testing.T) {
	m := testModel(40, 6, 4, 120, 17)
	path := filepath.Join(t.TempDir(), "model.v2.snap")
	if err := SaveV2(path, m); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, encodeV2ToBytes(t, m)) {
		t.Fatal("SaveV2 differs from EncodeV2")
	}
}

// encodePlanForTest encodes an explicit plan (the production encoder has
// no injection seam for one; the two-pass oracle takes any).
func encodePlanForTest(t *testing.T, plan []*v2section) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := encodeV2PlanTwoPass(&buf, plan); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// openBytesForTest round-trips raw bytes through a temp file into Open.
func openBytesForTest(t *testing.T, raw []byte) (*MappedModel, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bytes.snap")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return Open(path)
}

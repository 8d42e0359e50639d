package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/sparse"
)

// planSource builds one encoding job: a fresh plan (encoding fills in its
// offsets and CRCs, so no encoder sees what another left there).
type planSource func() []*v2section

// modelPlan is the planSource of a plain encode of m: of the sections
// tags names, or of every section when there are none.
func modelPlan(t *testing.T, m *core.Model, tags ...string) planSource {
	return func() []*v2section {
		t.Helper()
		var want map[string]bool
		if len(tags) > 0 {
			want = tagSet(tags)
		}
		plan, err := v2PlanSubset(m, want)
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
}

// requireBothEncodersAgree encodes src through the single-pass encoder —
// into memory and into a file, as WriteFileAtomic drives it — and through the
// two-pass encoder it replaced, each with the platform's aliased numeric
// loops and with the portable per-element ones a big-endian host gets,
// and returns the (single) byte sequence.
func requireBothEncodersAgree(t *testing.T, what string, src planSource) []byte {
	t.Helper()
	if !nativeLittleEndian() {
		t.Skip("the aliased encoder only exists on little-endian hosts")
	}
	if !aliasNumeric {
		t.Fatal("a little-endian host did not select the aliased encoder")
	}
	singlePass := func() []byte {
		var d memDest
		if err := encodeV2Plan(&d, src()); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		return d.buf
	}
	twoPass := func() []byte {
		var buf bytes.Buffer
		if err := encodeV2PlanTwoPass(&buf, src()); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		return buf.Bytes()
	}
	toFile := func() []byte {
		plan := src()
		path := filepath.Join(t.TempDir(), "single-pass.snap")
		if err := WriteFileAtomic(path, func(f *os.File) error { return encodeV2Plan(f, plan) }); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	portably := func(encode func() []byte) (out []byte) {
		withConvertedNumerics(func() { out = encode() })
		return out
	}
	want := twoPass()
	for _, enc := range []struct {
		name string
		got  []byte
	}{
		{"single-pass, in memory", singlePass()},
		{"single-pass, to a file", toFile()},
		{"single-pass, portable element loops", portably(singlePass)},
		{"two-pass, portable element loops", portably(twoPass)},
	} {
		if !bytes.Equal(enc.got, want) {
			i := 0
			for i < len(want) && i < len(enc.got) && enc.got[i] == want[i] {
				i++
			}
			t.Fatalf("%s: the %s encoding (%d bytes) and the two-pass aliased encoding (%d bytes) differ from byte %d", what, enc.name, len(enc.got), len(want), i)
		}
	}
	return want
}

// awkwardFloats are payloads whose bytes an encoder could plausibly get
// wrong if it went through float arithmetic or comparison anywhere: NaNs
// with payload bits, signed zeros, denormals, infinities, extremes.
var awkwardFloats = []float64{
	math.NaN(), math.Float64frombits(0x7ff8_0000_dead_beef), math.Float64frombits(0xfff0_0000_0000_0001),
	math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000f_ffff_ffff_ffff), math.Inf(1), math.Inf(-1),
	math.MaxFloat64, -math.MaxFloat64, 1, -1, 0.1,
}

// TestAliasedEncoderMatchesPortable holds the two numeric encoders byte-equal
// on every section kind of the format (dense, tensor, vector, int32, int64),
// with and without the optional blocks, on awkward float and integer
// payloads, on empty blocks, on a section subset, and on blocks that are
// views starting in the middle of a larger array (the shard publisher's Π
// and doc windows) — and, through requireBothEncodersAgree, the single-pass
// encoder byte-equal to the two-pass one on all of them.
func TestAliasedEncoderMatchesPortable(t *testing.T) {
	full := testModel(23, 5, 4, 37, 99)
	attachAttrs(full, 3, 100)
	for i, v := range awkwardFloats {
		full.Pi.Data[i] = v
		full.Eta.Data[2*i+1] = v
		full.Nu[i%len(full.Nu)] = v
		full.Xi.Data[i%len(full.Xi.Data)] = v
	}
	full.DocCommunity[0], full.DocCommunity[1] = math.MinInt32, math.MaxInt32
	full.DocTopic[2] = -1
	full.DocBucket[0], full.DocBucket[1], full.DocBucket[2] = math.MinInt, math.MaxInt, -1
	got := requireBothEncodersAgree(t, "every section kind", modelPlan(t, full))
	// And the bytes mean what they should: the section decoder, converting
	// element by element as on a big-endian host, reads the awkward values
	// back bit for bit.
	var back *core.Model
	var err error
	withConvertedNumerics(func() { back, err = LoadBytes(got) })
	if err != nil {
		t.Fatal(err)
	}
	for i := range awkwardFloats {
		if math.Float64bits(back.Pi.Data[i]) != math.Float64bits(full.Pi.Data[i]) {
			t.Fatalf("Π[%d] decoded to %x, encoded from %x", i, math.Float64bits(back.Pi.Data[i]), math.Float64bits(full.Pi.Data[i]))
		}
	}
	if back.DocBucket[0] != math.MinInt || back.DocBucket[1] != math.MaxInt || back.DocCommunity[0] != math.MinInt32 {
		t.Fatalf("integer extremes decoded to %d %d %d", back.DocBucket[0], back.DocBucket[1], back.DocCommunity[0])
	}

	plain := testModel(9, 3, 2, 11, 7) // no XI
	plain.PopFreq, plain.NumBuckets = nil, 0
	requireBothEncodersAgree(t, "without the optional blocks", modelPlan(t, plain))

	empty := testModel(0, 2, 2, 0, 5) // Π, Φ and the doc arrays are empty blocks
	empty.Nu = nil
	requireBothEncodersAgree(t, "empty blocks", modelPlan(t, empty))

	// A shard file as the publisher writes it: Π is a view starting in the
	// middle of the full matrix, the doc arrays are windows of the full ones.
	C := full.Cfg.NumCommunities
	lo, hi, dlo, dhi := 7, 19, 5, 41
	sub := &core.Model{
		Cfg: full.Cfg, NumUsers: hi - lo, NumWords: full.NumWords, NumBuckets: full.NumBuckets, NumAttrs: full.NumAttrs,
		Pi:           sparse.NewDenseView(hi-lo, C, full.Pi.Data[lo*C:hi*C]),
		DocCommunity: full.DocCommunity[dlo:dhi],
		DocTopic:     full.DocTopic[dlo:dhi],
		DocBucket:    full.DocBucket[dlo:dhi],
	}
	shardBytes := requireBothEncodersAgree(t, "mid-array views", modelPlan(t, sub, TagConfig, TagDims, TagPi, TagDocC, TagDocZ, TagDocB))
	requireBothEncodersAgree(t, "global subset", modelPlan(t, full, TagConfig, TagDims, TagTheta, TagPhi, TagEta, TagNu, TagPop, TagXi))
	requireBothEncodersAgree(t, "one section", modelPlan(t, full, TagDocB))
	rf := filepath.Join(t.TempDir(), "shard.snap")
	if err := os.WriteFile(rf, shardBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	raw, err := OpenRawFile(rf)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	pi, _ := raw.Section(TagPi)
	for i, v := range numeric[float64](pi[v2ShapeLen:], true) {
		if math.Float64bits(v) != math.Float64bits(full.Pi.Data[lo*C+i]) {
			t.Fatalf("shard Π element %d is %x on disk, %x in the view", i, math.Float64bits(v), math.Float64bits(full.Pi.Data[lo*C+i]))
		}
	}
}

// TestEncodersAgreeOnGoldenFixtures: every committed fixture, loaded by the
// copying decoder, encodes to one byte sequence whichever encoder runs.
func TestEncodersAgreeOnGoldenFixtures(t *testing.T) {
	for _, name := range []string{"golden-v1.snap", "golden-v2.snap", "golden.json"} {
		m, err := LoadFile(goldenPath(name))
		if err != nil {
			t.Fatal(err)
		}
		requireBothEncodersAgree(t, name, modelPlan(t, m))
	}
}

// failingDest is a file whose WriteAt fails: the header back-patch of the
// single-pass encoder has nowhere to land.
type failingDest struct{ *os.File }

var errNoWriteAt = errors.New("this destination cannot patch")

func (failingDest) WriteAt([]byte, int64) (int, error) { return 0, errNoWriteAt }

// TestSinglePassEncoderBackPatchFailure: the encoder reports a failed
// back-patch, and the save it ran under leaves nothing behind — neither
// the final name nor the temporary file.
func TestSinglePassEncoderBackPatchFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.v2.snap")
	plan, err := v2Plan(testModel(40, 6, 4, 120, 17))
	if err != nil {
		t.Fatal(err)
	}
	err = WriteFileAtomic(path, func(f *os.File) error { return encodeV2Plan(failingDest{f}, plan) })
	if !errors.Is(err, errNoWriteAt) {
		t.Fatalf("save over an unpatchable destination returned %v", err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("the failed save left %q behind", entries[0].Name())
	}
}

// unpatchedDest keeps what Write streams and drops the back-patch: what
// the temporary file holds if the process dies before the last write.
type unpatchedDest struct{ memDest }

func (*unpatchedDest) WriteAt(p []byte, _ int64) (int, error) { return len(p), nil }

// unpatchedV2 is the v2 encoding of m as it stands before its header and
// table are written.
func unpatchedV2(t testing.TB, m *core.Model) []byte {
	t.Helper()
	plan, err := v2Plan(m)
	if err != nil {
		t.Fatal(err)
	}
	var d unpatchedDest
	if err := encodeV2Plan(&d, plan); err != nil {
		t.Fatal(err)
	}
	return d.buf
}

// TestUnpatchedV2Rejected: a file cut before the header back-patch — whole
// or shorter — has every payload in place and is still no snapshot to any
// reader.
func TestUnpatchedV2Rejected(t *testing.T) {
	m := testModel(20, 4, 3, 60, 30)
	raw := unpatchedV2(t, m)
	// Everything but the header and table is already what the finished file
	// holds: only the front is missing.
	want := encodeV2ToBytes(t, m)
	front := v2HeaderLen + v2EntryLen*int(binary.LittleEndian.Uint64(want[8:]))
	if len(raw) != len(want) || !bytes.Equal(raw[front:], want[front:]) || !bytes.Equal(raw[:front], make([]byte, front)) {
		t.Fatal("the unpatched encoding is not the finished one with a zeroed header and table")
	}
	for _, n := range []int{len(raw), len(raw) - 1, len(raw) / 2, v2HeaderLen + 40, v2HeaderLen} {
		path := filepath.Join(t.TempDir(), "cut.v2.snap")
		if err := os.WriteFile(path, raw[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if mm, err := Open(path); err == nil {
			mm.Close()
			t.Errorf("%d unpatched bytes accepted by Open", n)
		}
		if rf, err := OpenRawFile(path); err == nil {
			rf.Close()
			t.Errorf("%d unpatched bytes accepted by OpenRawFile", n)
		}
		if rf, err := OpenRawFile(path); err == nil {
			err = rf.Check()
			rf.Close()
			if err == nil {
				t.Errorf("%d unpatched bytes accepted by OpenRawFile+Check", n)
			}
		}
		if _, err := LoadFile(path); err == nil {
			t.Errorf("%d unpatched bytes accepted by LoadFile", n)
		}
	}
}

// TestAliasedEncoderReproducesGoldenFixture: both encoders, fed the mapped
// committed v2 fixture (whose blocks alias the file mapping itself), write
// every numeric section with exactly the fixture's bytes.
func TestAliasedEncoderReproducesGoldenFixture(t *testing.T) {
	mm, err := Open(goldenPath("golden-v2.snap"))
	if err != nil {
		t.Fatal(err)
	}
	defer mm.Close()
	got := requireBothEncodersAgree(t, "golden fixture", modelPlan(t, mm.Model))
	path := filepath.Join(t.TempDir(), "re-encoded.snap")
	if err := os.WriteFile(path, got, 0o644); err != nil {
		t.Fatal(err)
	}
	again, err := OpenRawFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	fixture, err := OpenRawFile(goldenPath("golden-v2.snap"))
	if err != nil {
		t.Fatal(err)
	}
	defer fixture.Close()
	for _, sec := range fixture.Sections() {
		if sec.Tag == TagConfig {
			continue // the fixture's CFG records its writer's Workers; loaders drop it
		}
		payload, ok := again.Section(sec.Tag)
		if !ok || !bytes.Equal(payload, sec.Payload) {
			t.Fatalf("section %q re-encodes to different bytes than the committed fixture holds", sec.Tag)
		}
	}
}

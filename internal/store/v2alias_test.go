package store

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/sparse"
)

// encodePortable runs encode with the sink's per-element little-endian
// loops — the encoder a big-endian host gets — in place of the aliased one.
func encodePortable(t *testing.T, encode func(io.Writer) error) []byte {
	t.Helper()
	defer func(saved bool) { aliasNumeric = saved }(aliasNumeric)
	aliasNumeric = false
	var buf bytes.Buffer
	if err := encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// requireBothEncodersAgree encodes through the platform's encoder and
// through the portable one and returns the (single) byte sequence.
func requireBothEncodersAgree(t *testing.T, what string, encode func(io.Writer) error) []byte {
	t.Helper()
	if !nativeLittleEndian() {
		t.Skip("the aliased encoder only exists on little-endian hosts")
	}
	if !aliasNumeric {
		t.Fatal("a little-endian host did not select the aliased encoder")
	}
	var buf bytes.Buffer
	if err := encode(&buf); err != nil {
		t.Fatal(err)
	}
	portable := encodePortable(t, encode)
	if !bytes.Equal(buf.Bytes(), portable) {
		i := 0
		for i < len(portable) && i < buf.Len() && buf.Bytes()[i] == portable[i] {
			i++
		}
		t.Fatalf("%s: aliased encoding (%d bytes) and portable encoding (%d bytes) differ from byte %d", what, buf.Len(), len(portable), i)
	}
	return portable
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
// and doc windows).
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
	full.DocBucket[0], full.DocBucket[1], full.DocBucket[2] = math.MinInt64, math.MaxInt64, -1
	got := requireBothEncodersAgree(t, "every section kind", func(w io.Writer) error { return EncodeV2(w, full) })
	// And the bytes mean what they should: the copying decoder, which
	// converts element by element, reads the awkward values back bit for bit.
	back, err := Decode(bytes.NewReader(got))
	if err != nil {
		t.Fatal(err)
	}
	for i := range awkwardFloats {
		if math.Float64bits(back.Pi.Data[i]) != math.Float64bits(full.Pi.Data[i]) {
			t.Fatalf("Π[%d] decoded to %x, encoded from %x", i, math.Float64bits(back.Pi.Data[i]), math.Float64bits(full.Pi.Data[i]))
		}
	}
	if back.DocBucket[0] != math.MinInt64 || back.DocBucket[1] != math.MaxInt64 || back.DocCommunity[0] != math.MinInt32 {
		t.Fatalf("integer extremes decoded to %d %d %d", back.DocBucket[0], back.DocBucket[1], back.DocCommunity[0])
	}

	plain := testModel(9, 3, 2, 11, 7) // no XI
	plain.PopFreq, plain.NumBuckets = nil, 0
	requireBothEncodersAgree(t, "without the optional blocks", func(w io.Writer) error { return EncodeV2(w, plain) })

	empty := testModel(0, 2, 2, 0, 5) // Π, Φ and the doc arrays are empty blocks
	empty.Nu = nil
	requireBothEncodersAgree(t, "empty blocks", func(w io.Writer) error { return EncodeV2(w, empty) })

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
	plan, err := v2PlanSubset(sub, tagSet([]string{TagConfig, TagDims, TagPi, TagDocC, TagDocZ, TagDocB}))
	if err != nil {
		t.Fatal(err)
	}
	shardBytes := requireBothEncodersAgree(t, "mid-array views", func(w io.Writer) error { return encodeV2Plan(w, plan, nil, nil) })
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
	for i, v := range aliasFloat64(pi[v2ShapeLen:]) {
		if math.Float64bits(v) != math.Float64bits(full.Pi.Data[lo*C+i]) {
			t.Fatalf("shard Π element %d is %x on disk, %x in the view", i, math.Float64bits(v), math.Float64bits(full.Pi.Data[lo*C+i]))
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
	got := requireBothEncodersAgree(t, "golden fixture", func(w io.Writer) error { return EncodeV2(w, mm.Model) })
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

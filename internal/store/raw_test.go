package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestRawFileRoundTrip(t *testing.T) {
	src := filepath.Join("testdata", "golden-v2.snap")
	rf, err := OpenRawFile(src)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	if rf.SizeBytes() <= 0 {
		t.Fatal("raw file reports no bytes")
	}
	// Re-encoding the sections verbatim reproduces the file bit-for-bit.
	var buf bytes.Buffer
	if err := EncodeRawSections(&buf, rf.Sections()); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("re-encoded sections differ from the source file (%d vs %d bytes)", buf.Len(), len(want))
	}
	// AssembleRawModel over every section reproduces the decoded model.
	m, err := AssembleRawModel(rf.Sections())
	if err != nil {
		t.Fatal(err)
	}
	full, err := Open(src)
	if err != nil {
		t.Fatal(err)
	}
	modelsEquivalent(t, full.Model, m)
	full.Close()
}

func TestSaveV2SubsetAndFileSections(t *testing.T) {
	m := testModel(30, 5, 3, 60, 7)
	dir := t.TempDir()
	path := filepath.Join(dir, "subset.v2.snap")
	tags := []string{TagConfig, TagDims, TagTheta, TagPhi, TagEta, TagNu, TagPop, TagXi}
	if err := SaveV2Subset(path, m, tags); err != nil {
		t.Fatal(err)
	}
	rf, err := OpenRawFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	// POPF present (model has buckets), XI absent (nil): subset saves skip
	// nil optional sections rather than failing.
	if _, ok := rf.Section(TagPop); !ok {
		t.Fatal("subset file is missing the popularity section")
	}
	if _, ok := rf.Section(TagXi); ok {
		t.Fatal("subset file must not contain the nil attribute section")
	}
	if _, ok := rf.Section(TagPi); ok {
		t.Fatal("subset file must not contain unrequested sections")
	}
	// FileSections reads the table without walking payloads and agrees
	// with the mapped view.
	sums, size, err := FileSections(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi, _ := os.Stat(path); fi.Size() != size {
		t.Fatalf("FileSections size %d, stat %d", size, fi.Size())
	}
	if len(sums) != len(rf.Sections()) {
		t.Fatalf("FileSections found %d sections, mapped view has %d", len(sums), len(rf.Sections()))
	}
	for i, s := range rf.Sections() {
		if sums[i].Tag != s.Tag || sums[i].Size != uint64(len(s.Payload)) {
			t.Fatalf("section %d mismatch: %+v vs tag %q len %d", i, sums[i], s.Tag, len(s.Payload))
		}
	}
	// Requesting a section whose block is nil is an error.
	if err := SaveV2Subset(filepath.Join(dir, "bad.snap"), m, []string{TagXi}); err == nil {
		t.Fatal("requesting a nil block must fail")
	}
}

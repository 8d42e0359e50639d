package store

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"unsafe"
)

func TestParseGenName(t *testing.T) {
	cases := []struct {
		name string
		gen  uint64
		ok   bool
	}{
		{"gen-00000001.v2.snap", 1, true},
		{"gen-00012345.v2.snap", 12345, true},
		{"gen-99999999.v2.snap", 99999999, true},
		{"gen-1.v2.snap", 0, false},         // unpadded
		{"gen-00000000.v2.snap", 0, false},  // generation zero never exists
		{"gen-00000001.v2.snap~", 0, false}, // trailing junk
		{"gen-00000001.v2.snap.tmp", 0, false},
		{"checkpoint.bin", 0, false},
		{"events.wal", 0, false},
		{"", 0, false},
	}
	for _, c := range cases {
		gen, ok := ParseGenName(c.name)
		if ok != c.ok || gen != c.gen {
			t.Errorf("ParseGenName(%q) = %d, %v; want %d, %v", c.name, gen, ok, c.gen, c.ok)
		}
	}
	if got := GenPath("d", 7); got != filepath.Join("d", "gen-00000007.v2.snap") {
		t.Errorf("GenPath = %q", got)
	}
}

func TestScanGenerations(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{
		"gen-00000003.v2.snap", "gen-00000001.v2.snap", "gen-00000010.v2.snap",
		"events.wal", "gen-bogus.v2.snap",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	files, err := ScanGenerations(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{1, 3, 10}
	if len(files) != len(want) {
		t.Fatalf("scanned %d generation files, want %d: %+v", len(files), len(want), files)
	}
	for i, f := range files {
		if f.Generation != want[i] || f.Size != 1 {
			t.Errorf("files[%d] = %+v, want generation %d size 1", i, f, want[i])
		}
	}
	// A missing directory is an empty listing, not an error.
	if files, err := ScanGenerations(filepath.Join(dir, "no-such")); err != nil || files != nil {
		t.Errorf("missing dir: files=%v err=%v", files, err)
	}
}

// readHeap saves a model of users users and docs documents and returns
// the least heap read allocates on it, over five runs. It skips the test
// where the file is not read over a kernel mapping with aliased blocks.
func readHeap(t *testing.T, users, docs int, read func(path string) error) uint64 {
	t.Helper()
	m := testModel(users, 4, 3, 30, 5)
	m.DocCommunity, m.DocTopic, m.DocBucket = m.DocCommunity[:docs], m.DocTopic[:docs], m.DocBucket[:docs]
	path := filepath.Join(t.TempDir(), "m.v2.snap")
	if err := SaveV2(path, m); err != nil {
		t.Fatal(err)
	}
	data, mapped, err := mapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !mapped || !aliasNumeric {
		t.Skip("no kernel mapping with aliased numeric blocks on this platform")
	}
	unmapFile(data)
	var least uint64
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := read(path); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; i == 0 || n < least {
			least = n
		}
	}
	return least
}

// TestOpenHeapIndependentOfDocuments: Open aliases DOCB in the mapping
// like DOCC and DOCZ, so opening a file costs no heap per document. 300 vs 30 000 documents at the same users
// must cost the same heap to within 16 KiB, while a DOCB copied into a
// []int would differ by 238 KB.
func TestOpenHeapIndependentOfDocuments(t *testing.T) {
	if unsafe.Sizeof(int(0)) != 8 {
		t.Skip("DOCB's int64 words are converted where int is narrower")
	}
	open := func(path string) error {
		mm, err := Open(path)
		if err == nil {
			err = mm.Close()
		}
		return err
	}
	small, large := readHeap(t, 10000, 300, open), readHeap(t, 10000, 30000, open)
	t.Logf("Open heap: %d B at 300 documents, %d B at 30 000", small, large)
	if large > small+16<<10 {
		t.Fatalf("Open allocated %d B for 30 000 documents and %d B for 300: the heap grows with the documents", large, small)
	}
}

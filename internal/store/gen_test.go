package store

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
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

// TestVerifyV2File pins the distribution-time integrity check: a valid
// snapshot passes, and a single flipped payload byte — which the mapped
// opener would accept by design — is caught.
func TestVerifyV2File(t *testing.T) {
	m := testModel(12, 4, 3, 30, 99)
	path := filepath.Join(t.TempDir(), "m.v2.snap")
	if err := SaveV2(path, m); err != nil {
		t.Fatal(err)
	}
	if err := VerifyV2File(path); err != nil {
		t.Fatalf("freshly saved snapshot fails verification: %v", err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte in the last payload region (well past the table).
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)-8] ^= 0xFF
	bad := filepath.Join(t.TempDir(), "bad.v2.snap")
	if err := os.WriteFile(bad, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := VerifyV2File(bad); err == nil {
		t.Fatal("corrupted payload passed full verification")
	}
	// The mapped opener accepts the same bytes (payload CRCs skipped by
	// design) — the contrast VerifyV2File exists for.
	if mm, err := Open(bad); err == nil {
		mm.Close()
	}

	// Truncated file: rejected, not panicking.
	if err := os.WriteFile(bad, data[:10], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := VerifyV2File(bad); err == nil {
		t.Fatal("truncated snapshot passed verification")
	}
}

// verifyHeap saves a model of users users and docs documents and returns
// the least heap VerifyV2File allocates checking it, over five runs. It
// skips the test where the file is not checked over a kernel mapping.
func verifyHeap(t *testing.T, users, docs int) uint64 {
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
		if err := VerifyV2File(path); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; i == 0 || n < least {
			least = n
		}
	}
	return least
}

// TestVerifyV2FileHeapIndependentOfUsers: VerifyV2File checks a file over
// its mapping, so the heap it allocates does not grow with the Π rows —
// the bulk of a generation file. Two files with the same documents and
// 1 000 vs 50 000 users must cost the same heap to within 16 KiB, while
// their Π blocks differ by 1.6 MB.
func TestVerifyV2FileHeapIndependentOfUsers(t *testing.T) {
	small, large := verifyHeap(t, 1000, 3000), verifyHeap(t, 50000, 3000)
	t.Logf("VerifyV2File heap: %d B at 1 000 users, %d B at 50 000", small, large)
	if large > small+16<<10 {
		t.Fatalf("VerifyV2File allocated %d B for 50 000 users and %d B for 1 000: the heap grows with Π", large, small)
	}
}

// TestVerifyV2FileHeapIndependentOfDocuments: the check-only pass holds
// the document sections to their headers without decoding them, DOCB
// (int64 on disk, []int in a model) included. 3 000 vs 30 000 documents
// at the same users must cost the same heap to within 16 KiB, while a
// decoded DOCB would differ by 216 KB.
func TestVerifyV2FileHeapIndependentOfDocuments(t *testing.T) {
	small, large := verifyHeap(t, 10000, 3000), verifyHeap(t, 10000, 30000)
	t.Logf("VerifyV2File heap: %d B at 3 000 documents, %d B at 30 000", small, large)
	if large > small+16<<10 {
		t.Fatalf("VerifyV2File allocated %d B for 30 000 documents and %d B for 3 000: the heap grows with the documents", large, small)
	}
}

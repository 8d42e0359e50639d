package store

import (
	"bytes"
	"os"
	"testing"
)

// FuzzLoad throws arbitrary bytes at the snapshot loader. The invariants:
// never panic, never allocate beyond what the input length can back
// (LoadBytes bounds section claims by len(data)), and any input accepted
// as a model must be internally consistent enough to re-encode as v2 and
// load back.
//
// The corpus seeds the interesting neighbourhoods of the three committed
// fixtures and of a fresh v2 encoding: the valid files, truncations at
// section boundaries, single-bit corruptions (caught by the CRCs), a
// forged section length or count, a future format version, and a v2 file
// whose header was never written.
func FuzzLoad(f *testing.F) {
	fixture := func(name string) []byte {
		raw, err := os.ReadFile(goldenPath(name))
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}
	v1 := fixture("golden-v1.snap")
	f.Add(v1)
	f.Add(v1[:8])                 // magic only
	f.Add(v1[:len(v1)/2])         // mid-section truncation
	f.Add(v1[:len(v1)-2])         // missing terminator CRC tail
	f.Add([]byte("CPDSNP\x03\n")) // future format version
	bitflip := append([]byte(nil), v1...)
	bitflip[len(bitflip)/3] ^= 0x10
	f.Add(bitflip)
	// Forged length field on the first section header (offset 8 is the
	// tag, 12..20 the little-endian length).
	forged := append([]byte(nil), v1...)
	forged[12] = 0xff
	forged[13] = 0xff
	f.Add(forged)
	// The v2 neighbourhoods: a valid section-table snapshot, its header
	// and table truncations, a corrupted table entry, and a forged
	// section count.
	m := testModel(12, 4, 5, 40, 3)
	var v2 bytes.Buffer
	if err := EncodeV2(&v2, m); err != nil {
		f.Fatal(err)
	}
	validV2 := v2.Bytes()
	f.Add(validV2)
	f.Add(validV2[:v2HeaderLen])    // header only
	f.Add(validV2[:v2HeaderLen+40]) // mid-table truncation
	f.Add(validV2[:len(validV2)/2]) // mid-payload truncation
	f.Add(validV2[:len(validV2)-1]) // last payload byte missing
	v2flip := append([]byte(nil), validV2...)
	v2flip[v2HeaderLen+10] ^= 0x20 // table entry offset byte
	f.Add(v2flip)
	v2count := append([]byte(nil), validV2...)
	v2count[8] = 0xff // forged section count
	f.Add(v2count)
	f.Add(fixture("golden.json"))
	f.Add([]byte("{}"))
	f.Add([]byte{})
	// A save that died before its last write: every payload in place
	// behind a header and table that are still zeros.
	f.Add(unpatchedV2(f, m))
	f.Add(fixture("golden-v2.snap"))

	f.Fuzz(func(t *testing.T, data []byte) {
		loaded, err := LoadBytes(data)
		if err != nil {
			return
		}
		// Whatever decoded must re-encode: an accepted model with
		// missing or inconsistent blocks is a validation hole.
		if loaded == nil {
			t.Fatal("nil model with nil error")
		}
		var buf bytes.Buffer
		if err := EncodeV2(&buf, loaded); err != nil {
			t.Fatalf("accepted model does not re-encode: %v", err)
		}
		if _, err := LoadBytes(buf.Bytes()); err != nil {
			t.Fatalf("accepted model re-encodes to a snapshot that does not load: %v", err)
		}
	})
}

package store

import (
	"path/filepath"
	"testing"

	"repro/internal/sparse"
)

// BenchmarkEncodeV2 times one snapshot save at the cpd-bench model shape
// (20 000 users, |C| = 64, |Z| = 32, 20 000 words: Π is 10 MB, Φ 5 MB,
// the file 16 MB). "full" encodes every section; "reusing" is the
// publisher's steady state — a fresh Π over the predecessor's global
// blocks and doc arrays, so only CFG, DIM and Π are encoded and the rest is
// spliced from the previous file.
func BenchmarkEncodeV2(b *testing.B) {
	m := testModel(20000, 64, 32, 20000, 2017)
	dir := b.TempDir()
	b.Run("full", func(b *testing.B) {
		path := filepath.Join(dir, "full.v2.snap")
		b.SetBytes(int64(m.MatrixBytes()))
		for i := 0; i < b.N; i++ {
			if err := SaveV2(path, m); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reusing", func(b *testing.B) {
		paths := [2]string{filepath.Join(dir, "a.v2.snap"), filepath.Join(dir, "b.v2.snap")}
		man, err := SaveV2Reusing(paths[0], m, nil)
		if err != nil {
			b.Fatal(err)
		}
		// Two Π arrays taken in turn: each save is handed another array than
		// the one its manifest remembers, as after a publish.
		pis := [2]*sparse.Dense{m.Pi.Clone(), m.Pi.Clone()}
		next := *m
		b.SetBytes(int64(8 * len(m.Pi.Data)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			next.Pi = pis[i%2]
			if man, err = SaveV2Reusing(paths[(i+1)%2], &next, man); err != nil {
				b.Fatal(err)
			}
			if man.ReusedSections() == 0 {
				b.Fatal("the reusing save spliced nothing")
			}
		}
	})
}

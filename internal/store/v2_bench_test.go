package store

import (
	"path/filepath"
	"testing"
)

// BenchmarkEncodeV2 times one snapshot save at the cpd-bench model shape
// (20 000 users, |C| = 64, |Z| = 32, 20 000 words: Π is 10 MB, Φ 5 MB,
// the file 16 MB), every section encoded from memory.
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
}

package store

import (
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// goldenModel is the fixed model the committed fixtures encode. Its seed
// and shape must never change (that would amount to rewriting history).
func goldenModel() *core.Model {
	m := testModel(14, 4, 5, 48, 424242)
	attachAttrs(m, 6, 434343)
	return m
}

func goldenPath(name string) string { return filepath.Join("testdata", name) }

// withConvertedNumerics runs fn with the section decoder and the sink on
// the per-element branch a big-endian host takes, so this host exercises
// it too.
func withConvertedNumerics(fn func()) {
	defer func(saved bool) { aliasNumeric = saved }(aliasNumeric)
	aliasNumeric = false
	fn()
}

// TestGoldenFixtures pins on-disk format compatibility: the committed v1,
// v2 and JSON encodings of a fixed model must keep decoding to
// bit-identical parameter blocks through every future change to the
// loading code. The fixtures are frozen inputs — nothing in the tree can
// write v1 or JSON any more — and a failure here means a break of the
// storage contract, not a test to "fix" by re-pinning. Every fixture is
// read twice: with numeric blocks aliased in place where the host allows,
// and converted element by element as on a big-endian host.
func TestGoldenFixtures(t *testing.T) {
	m := goldenModel()
	check := func(t *testing.T) {
		for _, name := range []string{"golden-v1.snap", "golden-v2.snap", "golden.json"} {
			t.Run(name, func(t *testing.T) {
				got, err := LoadFile(goldenPath(name))
				if err != nil {
					t.Fatalf("committed %s fixture no longer loads: %v", name, err)
				}
				modelsEquivalent(t, m, got)
			})
		}
		t.Run("golden-v2.snap/mapped", func(t *testing.T) {
			mm, err := Open(goldenPath("golden-v2.snap"))
			if err != nil {
				t.Fatalf("committed v2 fixture no longer opens mapped: %v", err)
			}
			defer mm.Close()
			modelsEquivalent(t, m, mm.Model)
		})
	}
	check(t)
	t.Run("converted", func(t *testing.T) { withConvertedNumerics(func() { check(t) }) })
}

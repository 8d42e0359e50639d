package serve

import (
	"math/rand"
	"testing"

	"repro/internal/core"
)

// BenchmarkSnapshotBuild prices the ways a model reaches an engine, on the
// cpd-bench model shape (20 000 users, |C| = 64, |Z| = 32, 20 000 words):
//
//   - scratch: an empty slot — every index built from the model;
//   - adopt-rows: a successor with 200 changed Π rows and the same global
//     blocks in other memory (what a replica maps when it fetches the next
//     fold-in generation): one compare pass, 200 rows re-indexed;
//   - adopt-append: the same plus 200 appended users;
//   - adopt-globals: a successor whose Θ moved (a delta-Gibbs publish):
//     the compare pass finds it and everything is rebuilt.
//
// The adopt cases pass no delta: BuildSnapshot derives it from the bytes.
func BenchmarkSnapshotBuild(b *testing.B) {
	const users, C, Z, V = 20000, 64, 32, 20000
	base := SyntheticModel(users, C, Z, V, 2017)
	r := rand.New(rand.NewSource(1))
	rows := clonePatchModel(base)
	for i := 0; i < 200; i++ {
		randomizePiRow(rows.Pi.Row(r.Intn(users)), r)
	}
	grown := growPatchModel(rows, 200, r)
	globals := clonePatchModel(base)
	globals.Theta.Row(3)[1] *= 1.5
	globals.Rehydrate()

	for _, bc := range []struct {
		name string
		next *core.Model
		kind string
	}{
		{"scratch", nil, BuildFull},
		{"adopt-rows", rows, BuildPatched},
		{"adopt-append", grown, BuildPatched},
		{"adopt-globals", globals, BuildFull},
	} {
		b.Run(bc.name, func(b *testing.B) {
			e := NewMulti(Options{})
			defer e.Close()
			slot, next := "empty", base
			if bc.next != nil {
				e.SwapNamed(DefaultSnapshot, base, nil)
				slot, next = DefaultSnapshot, bc.next
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := e.BuildSnapshot(slot, next, nil, nil)
				if s.build.Kind != bc.kind {
					b.Fatalf("built %q (%s), want %q", s.build.Kind, s.build.Reason, bc.kind)
				}
				s.Release()
			}
		})
	}
}

package repro

// Benchmarks for the sharded snapshot subsystem (internal/shard):
// splitting a serving-scale v2 snapshot into a shard group and joining
// it back (the publish-side cost), and membership queries against an
// engine serving one shard of that group vs the full snapshot (the
// per-replica footprint the format trades for).

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/store"
)

// BenchmarkShardSplitJoin measures turning a full v2 snapshot into a
// 3-shard group (global + shard files + manifest) and reassembling it:
// Split checks the mapped source and encodes its model through the group
// publisher; Join checks every file and concatenates its byte windows.
func BenchmarkShardSplitJoin(b *testing.B) {
	m := serveBenchModel(b)
	dir := b.TempDir()
	src := filepath.Join(dir, "full.v2.snap")
	if err := store.SaveV2(src, m); err != nil {
		b.Fatal(err)
	}
	fi := int64(0)
	if _, size, err := store.FileSections(src); err == nil {
		fi = size
	}
	b.Run("split", func(b *testing.B) {
		b.SetBytes(fi)
		for i := 0; i < b.N; i++ {
			if _, err := shard.Split(src, dir, uint64(i)+1, shard.SplitOptions{Shards: 3}); err != nil {
				b.Fatal(err)
			}
		}
	})
	if _, err := shard.Split(src, dir, 1, shard.SplitOptions{Shards: 3}); err != nil {
		b.Fatal(err)
	}
	b.Run("join", func(b *testing.B) {
		b.SetBytes(fi)
		for i := 0; i < b.N; i++ {
			if err := shard.Join(dir, 1, filepath.Join(dir, "joined.v2.snap")); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkShardedMembership compares membership queries against a full
// mapped snapshot with the same queries against an engine serving one
// shard of the 3-way split — same answers (for owned users), ~1/3 the
// user payload mapped.
func BenchmarkShardedMembership(b *testing.B) {
	m := serveBenchModel(b)
	dir := b.TempDir()
	src := filepath.Join(dir, "full.v2.snap")
	if err := store.SaveV2(src, m); err != nil {
		b.Fatal(err)
	}
	man, err := shard.Split(src, dir, 1, shard.SplitOptions{Shards: 3})
	if err != nil {
		b.Fatal(err)
	}
	fullSize := int64(0)
	if _, size, err := store.FileSections(src); err == nil {
		fullSize = size
	}

	b.Run("full", func(b *testing.B) {
		mm, err := store.Open(src)
		if err != nil {
			b.Fatal(err)
		}
		e := serve.NewMulti(serve.Options{})
		defer e.Close()
		e.SwapMapped(serve.DefaultSnapshot, mm, nil)
		lo, hi := man.Ranges[1].UserLo, man.Ranges[1].UserHi
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.MembershipIn(serve.DefaultSnapshot, lo+i%(hi-lo), 5); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(fullSize), "mapped-bytes")
	})
	b.Run(fmt.Sprintf("shard-1-of-%d", man.Shards), func(b *testing.B) {
		g, err := shard.OpenGroup(dir, man, 1)
		if err != nil {
			b.Fatal(err)
		}
		e := serve.NewMulti(serve.Options{})
		defer e.Close()
		e.PromoteGroup(serve.DefaultSnapshot, g, nil, 1, nil)
		lo, hi := man.Ranges[1].UserLo, man.Ranges[1].UserHi
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.MembershipIn(serve.DefaultSnapshot, lo+i%(hi-lo), 5); err != nil {
				b.Fatal(err)
			}
		}
		// After the loop: ResetTimer clears custom metrics, so the mapped
		// footprint is reported here.
		b.ReportMetric(float64(g.MappedBytes), "mapped-bytes")
	})
}

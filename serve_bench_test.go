package repro

// Benchmarks for the online serving subsystem (internal/store +
// internal/serve): snapshot loading, inverted-index ranking against the
// full-scan baseline, and fold-in inference. The model shape (|C|=100,
// |W|=50k) is the serving-scale configuration the subsystem is sized for —
// far larger than the training benchmarks' models, and assembled directly
// (serve.SyntheticModel) so the benchmarks measure serving, not training.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/quality"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/socialgraph"
	"repro/internal/store"
)

// serveBenchModel is the shared serving-scale model: |C|=100, |Z|=50,
// |W|=50k, 500 users.
func serveBenchModel(b *testing.B) *core.Model {
	b.Helper()
	return serve.SyntheticModel(500, 100, 50, 50000, 2017)
}

// BenchmarkServeRank compares Eq. 19 ranking through serve.Engine's
// inverted index against the full K×|Z| scan of
// core.Model.RankCommunities, on the same model and queries — and the
// heap-backed engine against one serving the same model zero-copy from a
// memory-mapped v2 snapshot (the mapped-vs-heap serving comparison).
func BenchmarkServeRank(b *testing.B) {
	m := serveBenchModel(b)
	e := serve.New(m, nil, serve.Options{})
	defer e.Close()
	queries := make([][]int32, 64)
	for i := range queries {
		queries[i] = []int32{int32(i * 701 % 50000), int32(i * 337 % 50000), int32(i * 97 % 50000)}
	}
	b.Run("inverted-index", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := e.RankIn(serve.DefaultSnapshot, queries[i%len(queries)], 10); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("inverted-index-mapped", func(b *testing.B) {
		path := filepath.Join(b.TempDir(), "bench.v2.snap")
		if err := store.SaveV2(path, m); err != nil {
			b.Fatal(err)
		}
		mm, err := store.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		me := serve.NewMulti(serve.Options{Mmap: true})
		defer me.Close()
		me.SwapMapped(serve.DefaultSnapshot, mm, nil)
		// Pre-warm: fault every page the queries touch into the page cache
		// before the clock starts. The first pass over a cold mapping
		// measures disk/page-fault latency, not ranking — and leaked that
		// noise into the timed iterations here before.
		for _, q := range queries {
			if _, err := me.RankIn(serve.DefaultSnapshot, q, 10); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := me.RankIn(serve.DefaultSnapshot, queries[i%len(queries)], 10); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-scan-baseline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.RankCommunities(queries[i%len(queries)])
		}
	})
}

// BenchmarkFoldIn measures fold-in inference of one unseen user (5
// documents, 3 friends, 20 Gibbs sweeps) against the serving-scale model.
func BenchmarkFoldIn(b *testing.B) {
	m := serveBenchModel(b)
	e := serve.New(m, nil, serve.Options{})
	defer e.Close()
	docs := make([][]int32, 5)
	for d := range docs {
		words := make([]int32, 8)
		for w := range words {
			words[w] = int32((d*131 + w*977) % 50000)
		}
		docs[d] = words
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := e.FoldInNamed(serve.DefaultSnapshot, &serve.FoldInRequest{
			Docs:    docs,
			Friends: []int32{1, 2, 3},
			Seed:    uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotLoad compares the two ways to load the serving-scale
// model from its v2 snapshot: the copying load (store.LoadBytes: aligned
// copy, every payload CRC verified, then the section decoder) and the
// memory-mapped open (store.Open). Both report allocations and an
// rss-delta metric (process resident-set growth across the run) — the
// mapped open is the one whose heap and RSS stay O(1) in the matrix
// payload (matrices alias the mapping; only caches allocate).
func BenchmarkSnapshotLoad(b *testing.B) {
	m := serveBenchModel(b)
	var v2 bytes.Buffer
	if err := store.EncodeV2(&v2, m); err != nil {
		b.Fatal(err)
	}
	withRSS := func(fn func(b *testing.B)) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			rss0 := serve.ProcessRSS()
			fn(b)
			if d := serve.ProcessRSS() - rss0; d > 0 {
				b.ReportMetric(float64(d), "rss-delta-B")
			} else {
				b.ReportMetric(0, "rss-delta-B")
			}
		}
	}
	b.Run(fmt.Sprintf("v2-copy-%dMB", v2.Len()>>20), withRSS(func(b *testing.B) {
		b.SetBytes(int64(v2.Len()))
		for i := 0; i < b.N; i++ {
			if _, err := store.LoadBytes(v2.Bytes()); err != nil {
				b.Fatal(err)
			}
		}
	}))
	b.Run(fmt.Sprintf("v2-mmap-%dMB", v2.Len()>>20), withRSS(func(b *testing.B) {
		path := filepath.Join(b.TempDir(), "bench.v2.snap")
		if err := os.WriteFile(path, v2.Bytes(), 0o644); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(v2.Len()))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mm, err := store.Open(path)
			if err != nil {
				b.Fatal(err)
			}
			mm.Close()
		}
	}))
}

// BenchmarkQualityMetrics measures what the quality observability layer
// costs: scoring one published generation with the full structural report
// (quality.FromModel — modularity, coverage, conductance, size
// distribution, drift vs the previous generation) on the serving-scale
// model over a 10-edges-per-user friendship graph, and the parallel
// label-propagation baseline partition of the same graph. The score cost
// bounds the publish-path overhead of -quality-every 1; PLP is the
// comparison row's cost.
func BenchmarkQualityMetrics(b *testing.B) {
	m := serveBenchModel(b)
	friends := make([]socialgraph.FriendLink, 0, m.NumUsers*10)
	for u := 0; u < m.NumUsers; u++ {
		for k := 0; k < 10; k++ {
			v := (u*7 + k*131 + 1) % m.NumUsers
			if v != u {
				friends = append(friends, socialgraph.FriendLink{U: int32(u), V: int32(v)})
			}
		}
	}
	prev := quality.Assignments(m)
	b.Run("score", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			quality.FromModel(m, friends, prev)
		}
	})
	b.Run("plp", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			baselines.PLP(m.NumUsers, friends, baselines.PLPOptions{Seed: 7})
		}
	})
}

// BenchmarkLoadGenMixed pushes the default mixed query workload through
// the serving engine at full closed-loop pressure — the root traffic
// baseline. One benchmark iteration is one complete request; workers
// equal GOMAXPROCS.
func BenchmarkLoadGenMixed(b *testing.B) {
	m := serveBenchModel(b)
	e := serve.New(m, nil, serve.Options{})
	defer e.Close()
	rep, err := scenario.RunLoad(scenario.EngineTarget{Engine: e}, scenario.LoadOptions{
		Space:        scenario.SpaceFromModel(m),
		Requests:     b.N,
		Concurrency:  runtime.GOMAXPROCS(0),
		Seed:         7,
		FoldInSweeps: 5,
	})
	if err != nil {
		b.Fatal(err)
	}
	if rep.Errors > 0 {
		b.Fatalf("%d load errors: %+v", rep.Errors, rep.Ops)
	}
	b.ReportMetric(rep.QPS, "qps")
}

package repro

// Benchmarks for the streaming ingest subsystem (internal/stream): the
// journal→fold→publish write path in isolation, and read throughput under
// concurrent ingest — the number BENCH_serve.json tracks for "how much
// read QPS does a live write stream cost".

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/stream"
)

// streamBenchSetup stands up a serving-scale model, engine, journal and
// updater. Like every publisher it writes each generation's snapshot file
// into a directory and the engine serves that file's mapping.
func streamBenchSetup(b *testing.B, windowEvents int) (*serve.Engine, *stream.Updater) {
	b.Helper()
	m := serve.SyntheticModel(2000, 100, 50, 50000, 2018)
	e := serve.New(m, nil, serve.Options{})
	b.Cleanup(e.Close)
	dir := b.TempDir()
	j, err := stream.OpenJournal(filepath.Join(dir, "bench.wal"), stream.JournalOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { j.Close() })
	u, err := stream.NewUpdater(j, stream.Options{
		Engine:       e,
		WindowEvents: windowEvents,
		FoldSweeps:   10,
		FoldSeed:     7,
		Dir:          dir,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(u.Close)
	return e, u
}

// benchEvents builds n deterministic ingest events: a rolling population
// of new users, each arriving with a document, plus documents and edges
// on the existing population.
func benchEvents(n, baseUsers, vocab int) [][]stream.Event {
	batches := make([][]stream.Event, 0, n)
	nextUser := int32(baseUsers)
	doc := func(k int) []int32 {
		words := make([]int32, 12)
		for i := range words {
			words[i] = int32((k*131 + i*7919) % vocab)
		}
		return words
	}
	for k := 0; k < n; k++ {
		switch k % 4 {
		case 0:
			batches = append(batches, []stream.Event{
				{Type: stream.EvAddUser},
				{Type: stream.EvAddDoc, User: nextUser, Time: int64(k), Words: doc(k)},
			})
			nextUser++
		case 1:
			batches = append(batches, []stream.Event{
				{Type: stream.EvAddEdge, User: int32(k % baseUsers), Target: int32((k + 1) % baseUsers)},
			})
		default:
			batches = append(batches, []stream.Event{
				{Type: stream.EvAddDoc, User: int32(k % baseUsers), Time: int64(k), Words: doc(k)},
			})
		}
	}
	return batches
}

// BenchmarkIngestApply measures the write path end to end: journal
// append (CRC framing + batched fsync), in-memory apply, and the
// window-triggered fold+publish cycles, reporting events/sec.
func BenchmarkIngestApply(b *testing.B) {
	_, u := streamBenchSetup(b, 256)
	batches := benchEvents(b.N, 2000, 50000)
	events := 0
	b.ResetTimer()
	for _, batch := range batches {
		if _, err := u.Ingest(batch); err != nil {
			b.Fatal(err)
		}
		events += len(batch)
		if _, _, err := u.MaybePublish(); err != nil {
			b.Fatal(err)
		}
	}
	if u.Pending() > 0 {
		if _, err := u.Publish(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
	b.ReportMetric(float64(u.Status().Publishes), "publishes")
}

// BenchmarkIncrementalPublish isolates one publish cycle at the serving
// scale (2000 users, |C|=100, |W|=50k): ingest one 64-event window of
// documents, publish, repeat. Every timed publish takes the O(changed)
// path (Π patched in place, patched user index, shared log tables)
// through snapshot files the engine maps, the save the single-pass encode
// from memory. What it serves equals a from-scratch rebuild of the same
// state (TestIncrementalPublishMatchesFullRebuild); the from-scratch
// index build alone is BenchmarkSnapshotBuild's scratch case
// (internal/serve).
func BenchmarkIncrementalPublish(b *testing.B) {
	const window = 64
	mkBatch := func(k int) []stream.Event {
		evs := make([]stream.Event, 0, window)
		for j := 0; j < window; j++ {
			id := k*window + j
			words := make([]int32, 12)
			for w := range words {
				words[w] = int32((id*131 + w*7919) % 50000)
			}
			evs = append(evs, stream.Event{
				Type: stream.EvAddDoc, User: int32(id % 2000),
				Time: int64(id), Words: words,
			})
		}
		return evs
	}
	b.Run("incremental-dir", func(b *testing.B) {
		_, u := streamBenchSetup(b, window)
		// Prime generation 1 outside the clock: the first publish of a
		// process assembles the full model, so the clock measures
		// steady-state patching only.
		if _, err := u.Ingest(mkBatch(0)); err != nil {
			b.Fatal(err)
		}
		if _, err := u.Publish(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := u.Ingest(mkBatch(i + 1)); err != nil {
				b.Fatal(err)
			}
			if _, err := u.Publish(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(window*b.N)/b.Elapsed().Seconds(), "events/sec")
	})
}

// BenchmarkServeUnderIngest measures read throughput while a background
// goroutine continuously ingests and republishes — the read-QPS-under-
// write-load number. Compare against BenchmarkServeRank's idle numbers
// to see the cost of a live write stream.
func BenchmarkServeUnderIngest(b *testing.B) {
	e, u := streamBenchSetup(b, 128)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	writerDone := make(chan struct{})
	batches := benchEvents(1<<14, 2000, 50000)
	go func() {
		defer close(writerDone)
		for _, batch := range batches {
			select {
			case <-ctx.Done():
				return
			default:
			}
			if _, err := u.Ingest(batch); err != nil {
				return
			}
			if _, _, err := u.MaybePublish(); err != nil {
				return
			}
		}
	}()
	// Let the writer reach a steady publish cadence before measuring.
	time.Sleep(10 * time.Millisecond)
	queries := make([][]int32, 64)
	for i := range queries {
		queries[i] = []int32{int32(i * 701 % 50000), int32(i * 337 % 50000)}
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			switch i % 3 {
			case 0, 1:
				if _, err := e.RankIn(serve.DefaultSnapshot, queries[i%len(queries)], 10); err != nil {
					b.Fatal(err)
				}
			default:
				if _, err := e.MembershipIn(serve.DefaultSnapshot, i%2000, 5); err != nil {
					b.Fatal(err)
				}
			}
			i++
		}
	})
	b.StopTimer()
	cancel()
	<-writerDone
	st := u.Status()
	b.ReportMetric(float64(st.Publishes), "publishes")
	b.ReportMetric(float64(st.AppliedEvents), "ingested-events")
}

// BenchmarkStreamScenarioDrip runs the steady-drip streaming preset end
// to end (train → journal → incremental publishes → invariant checks) —
// the streaming counterpart of BenchmarkLoadGenMixed.
func BenchmarkStreamScenarioDrip(b *testing.B) {
	p, err := scenario.LookupStream("steady-drip")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := scenario.RunStream(p, scenario.RunOptions{Dir: b.TempDir()}); err != nil {
			b.Fatal(err)
		}
	}
}

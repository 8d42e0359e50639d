// Command cpd-serve is the headless profile-serving API: it loads one or
// more trained model snapshots (v2, or legacy v1/JSON) into a serve.Engine
// and exposes the typed query surface as JSON over HTTP — community
// profiles, user memberships, Eq. 19 ranking via the inverted index,
// per-topic diffusion probabilities, fold-in inference for unseen users,
// per-endpoint latency counters, and zero-downtime hot-swap. With -ingest
// it also runs the streaming write path: live events are journaled,
// folded in over delta windows, and republished as fresh snapshot
// generations without a restart.
//
// Usage:
//
//	# Single model, heap-loaded.
//	cpd-serve -model model.snap -vocab data.vocab -addr :8080
//
//	# v2 snapshot served zero-copy from a memory mapping, pprof on.
//	cpd-serve -model model.v2.snap -mmap -pprof
//
//	# Multiple named snapshots (e.g. per-region models).
//	cpd-serve -model eu=models/eu.v2.snap -model us=models/us.v2.snap -mmap
//
//	# Live ingest: journal to events.wal, publish every 256 events or 2s.
//	cpd-serve -model model.v2.snap -ingest events.wal -ingest-dir snapshots/
//
//	# Replica mode: no local model, pull generations from a publisher —
//	# a shared snapshot directory or a publisher's URL (/api/shards*).
//	cpd-serve -fetch /shared/snapshots -mmap
//	cpd-serve -fetch http://publisher:8080 -fetch-dir /var/cache/cpd -mmap
//
//	curl localhost:8080/api/communities
//	curl 'localhost:8080/api/rank?q=deep+learning&k=5&snapshot=eu'
//	curl 'localhost:8080/api/user?id=42'
//	curl -d '{"docs":[[17,204,9]],"seed":1}' localhost:8080/api/foldin
//	curl -d '[{"type":"add-user"},{"type":"add-doc","user":500,"words":[17,204]}]' localhost:8080/api/ingest
//	curl localhost:8080/api/ingest/status      # freshness / publish lag
//	curl -X POST localhost:8080/api/reload     # re-read every -model path
//	curl localhost:8080/api/snapshots
//	curl localhost:8080/api/stats              # latency + RSS + ingest gauge
//	curl localhost:8080/api/quality            # per-generation structural quality
//	curl localhost:8080/metrics                # Prometheus text exposition
//
// -model may repeat; "name=path" serves the snapshot under that name
// (query it with ?snapshot=name), a bare "path" serves as "default". With
// -mmap, v2 snapshots are memory-mapped and served zero-copy. POST
// /api/reload re-reads the paths the server was started with. -pprof
// exposes net/http/pprof under /debug/pprof/.
//
// With -ingest, POST /api/ingest accepts typed event batches (add-user /
// add-edge / add-doc / diffusion) that are appended to the CRC'd journal
// and become query-visible within one publish cycle; /api/ingest/status
// and the "ingest" section of /api/stats report generation and lag. On
// SIGINT/SIGTERM the server drains gracefully: ingest closes (503), the
// journal is flushed, a final snapshot generation is published, and only
// then does the HTTP listener shut down.
//
// With -fetch, the process is a serving replica: it polls a snapshot
// source (directory or publisher URL), CRC-verifies each new generation
// (a read that also warms the page cache) and hot-swaps it in — the pull
// half of snapshot distribution behind cmd/cpd-router. A publisher
// started with -ingest serves its generations to such replicas on
// /api/shards (manifest list), /api/shards/manifest and /api/shards/file:
// every generation has a shard manifest, and without -ingest-shards it
// names the full file as shard 0 of 1, which a replica owns by default
// (-fetch-shard 0). -model is optional in replica mode.
//
// -quality-every N scores every N-th published generation with the
// structural metrics of internal/quality (modularity, coverage,
// conductance, size distribution, drift); reports accumulate on
// /api/quality and export as cpd_quality_* gauges on /metrics.
// -quality-plp adds the parallel label-propagation baseline as the
// comparison row (needs a friendship graph: -ingest-graph and/or
// streamed add-edge events).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/corpus"
	"repro/internal/serve"
	"repro/internal/socialgraph"
	"repro/internal/stream"
)

// modelSpec is one -model flag value: a snapshot name and its path.
type modelSpec struct{ name, path string }

// modelFlags collects repeated -model values.
type modelFlags []modelSpec

func (f *modelFlags) String() string {
	parts := make([]string, len(*f))
	for i, s := range *f {
		parts[i] = s.name + "=" + s.path
	}
	return strings.Join(parts, ",")
}

func (f *modelFlags) Set(v string) error {
	name, path := serve.DefaultSnapshot, v
	if i := strings.IndexByte(v, '='); i >= 0 {
		name, path = v[:i], v[i+1:]
	}
	if name == "" || path == "" {
		return fmt.Errorf("model spec %q is not [name=]path", v)
	}
	for _, s := range *f {
		if s.name == name {
			return fmt.Errorf("snapshot name %q given twice", name)
		}
	}
	*f = append(*f, modelSpec{name: name, path: path})
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("cpd-serve: ")
	var models modelFlags
	flag.Var(&models, "model", "model snapshot, [name=]path; repeat for multiple named snapshots (required)")
	var (
		vocabPath = flag.String("vocab", "", "vocabulary file, shared by all snapshots (enables free-text rank queries)")
		addr      = flag.String("addr", ":8080", "listen address")
		postings  = flag.Int("postings", 0, "rank-index posting-list length per word (0 = default)")
		workers   = flag.Int("foldin-workers", 0, "fold-in worker pool size (0 = default)")
		useMmap   = flag.Bool("mmap", false, "serve v2 snapshots zero-copy from a memory mapping")
		usePprof  = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")

		ingestPath   = flag.String("ingest", "", "event journal path; enables POST /api/ingest and the streaming updater")
		ingestSlot   = flag.String("ingest-snapshot", serve.DefaultSnapshot, "snapshot slot live ingest updates")
		ingestDir    = flag.String("ingest-dir", "", "directory for published snapshot generations (default: alongside the journal)")
		ingestWindow = flag.Int("ingest-window", 256, "delta window: publish after this many pending events")
		ingestEvery  = flag.Duration("ingest-interval", 2*time.Second, "publish pending events at latest this often")
		gibbsEvery   = flag.Int("ingest-gibbs-every", 0, "run a delta-Gibbs pass every N publishes (needs -ingest-graph; 0 = fold-in only)")
		gibbsSweeps  = flag.Int("ingest-gibbs-sweeps", 2, "EM iterations per delta-Gibbs pass")
		ingestGraph  = flag.String("ingest-graph", "", "base training graph, enables the delta-Gibbs refinement")
		qualityEvery = flag.Int("quality-every", 0, "score every N-th published generation with structural quality metrics (0 = off)")
		qualityPLP   = flag.Bool("quality-plp", false, "also score the parallel label-propagation baseline as the /api/quality comparison row")
		ingestShards = flag.Int("ingest-shards", 0, "also publish each generation as an N-shard group (global + per-user-range shard files under the manifest; 0 or 1 = the manifest names the full file as the only shard)")

		fetchSource   = flag.String("fetch", "", "replica mode: snapshot source to poll — a directory or a publisher base URL")
		fetchDir      = flag.String("fetch-dir", "", "local cache for generations fetched over HTTP (required for URL sources)")
		fetchSlot     = flag.String("fetch-snapshot", serve.DefaultSnapshot, "snapshot slot fetched generations are promoted into")
		fetchInterval = flag.Duration("fetch-interval", 2*time.Second, "snapshot source poll period")
		fetchKeep     = flag.Int("fetch-keep", 2, "fetched generations retained in the local cache")
		fetchShard    = flag.Int("fetch-shard", 0, "shard this replica owns: it fetches the global file plus this shard (an unsharded generation's only shard, 0, is its full file)")
	)
	flag.Parse()
	if len(models) == 0 && *fetchSource == "" {
		log.Fatal("-model is required (or -fetch for replica mode)")
	}
	if *fetchSource != "" && *ingestPath != "" && *fetchSlot == *ingestSlot {
		// A fetched generation holds no document arrays, which the updater
		// needs of its base model.
		log.Fatalf("-fetch and -ingest cannot share snapshot slot %q: a fetched model carries no document arrays for the updater to extend (set -fetch-snapshot or -ingest-snapshot apart)", *ingestSlot)
	}
	engine := serve.NewMulti(serve.Options{
		PostingsPerWord: *postings,
		FoldInWorkers:   *workers,
		Mmap:            *useMmap,
	})
	defer engine.Close()
	var vocab *corpus.Vocabulary
	load := func() error {
		// One shared vocabulary, parsed once per load, not once per slot.
		if *vocabPath != "" {
			var err error
			if vocab, err = corpus.ReadVocabularyFile(*vocabPath); err != nil {
				return err
			}
		}
		for _, spec := range models {
			v, err := engine.LoadGeneration(spec.name, spec.path, vocab, 0)
			if err != nil {
				return fmt.Errorf("loading %s (%s): %w", spec.name, spec.path, err)
			}
			log.Printf("loaded %s = %s (version %d)", spec.name, spec.path, v)
		}
		return nil
	}
	if err := load(); err != nil {
		log.Fatal(err)
	}
	reload := func() error {
		if err := load(); err != nil {
			log.Printf("reload failed: %v", err)
			return err
		}
		return nil
	}

	mux := http.NewServeMux()
	mux.Handle("/", serve.APIHandler(engine, reload))

	// Replica mode: pull published generations from the snapshot source,
	// verify and hot-swap them; health rides the standard surfaces
	// (/api/stats "replica" section, cpd_replica_* gauges on /metrics).
	if *fetchSource != "" {
		fetcher, err := serve.NewFetcher(engine, serve.FetchOptions{
			Source:   *fetchSource,
			Dir:      *fetchDir,
			Snapshot: *fetchSlot,
			Vocab:    vocab,
			Interval: *fetchInterval,
			Keep:     *fetchKeep,
			Shard:    *fetchShard,
		})
		if err != nil {
			log.Fatal(err)
		}
		engine.SetReplicaStats(func() any { return fetcher.Status() })
		engine.AddMetricsCollector(fetcher.WriteMetrics)
		// Fetch synchronously once so the replica comes up serving the
		// current generation; an empty source just means "wait for one".
		if gen, err := fetcher.Poll(); err != nil {
			log.Printf("initial fetch: %v (will keep polling)", err)
		} else if gen > 0 {
			log.Printf("fetched generation %d from %s", gen, *fetchSource)
		}
		fctx, fcancel := context.WithCancel(context.Background())
		defer fcancel()
		go fetcher.Run(fctx)
	}

	// Streaming write path: journal + updater + ingest endpoints.
	var updater *stream.Updater
	var journal *stream.Journal
	if *ingestPath != "" {
		var baseGraph *socialgraph.Graph
		if *ingestGraph != "" {
			f, err := os.Open(*ingestGraph)
			if err != nil {
				log.Fatal(err)
			}
			if baseGraph, err = socialgraph.Read(f); err != nil {
				f.Close()
				log.Fatal(err)
			}
			f.Close()
		}
		dir := *ingestDir
		if dir == "" {
			dir = filepath.Dir(*ingestPath)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			log.Fatal(err)
		}
		var err error
		journal, err = stream.OpenJournal(*ingestPath, stream.JournalOptions{})
		if err != nil {
			log.Fatal(err)
		}
		defer journal.Close()
		updater, err = stream.NewUpdater(journal, stream.Options{
			Engine:       engine,
			Snapshot:     *ingestSlot,
			Vocab:        vocab,
			Dir:          dir,
			WindowEvents: *ingestWindow,
			Interval:     *ingestEvery,
			GibbsEvery:   *gibbsEvery,
			GibbsSweeps:  *gibbsSweeps,
			BaseGraph:    baseGraph,
			Mmap:         *useMmap,
			Quality:      *qualityEvery,
			QualityPLP:   *qualityPLP,
			Shards:       *ingestShards,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer updater.Close()
		engine.SetIngestStats(func() any { return updater.Status() })
		// /metrics covers the write path too: ingest counters and
		// publish-latency/lag histograms ride behind the engine's families.
		engine.AddMetricsCollector(updater.WriteMetrics)
		// A restored journal/checkpoint may carry stream state the slot's
		// on-disk model predates; publish it up front so previously
		// ingested users are query-visible from the first request.
		if st := updater.Status(); st.PendingEvents > 0 || st.Users > st.BaseUsers || st.StreamDocs > 0 {
			if info, err := updater.Publish(); err != nil {
				log.Fatalf("publishing restored stream state: %v", err)
			} else if info != nil {
				log.Printf("published restored stream state as generation %d (%d users)", info.Generation, info.Users)
			}
		}
		mux.Handle("/api/ingest", updater.Handler())
		mux.Handle("/api/ingest/status", updater.Handler())
		// Any publisher is a snapshot origin: replicas started with
		// -fetch <this server's URL> pull generations from here.
		snaps := stream.SnapshotServer(dir)
		mux.Handle("/api/shards", snaps)
		mux.Handle("/api/shards/manifest", snaps)
		mux.Handle("/api/shards/file", snaps)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		go func() {
			if err := updater.Run(ctx); err != nil && ctx.Err() == nil {
				log.Printf("updater stopped: %v", err)
			}
		}()
		st := updater.Status()
		fmt.Printf("cpd-serve ingest on %s (slot %s, %d pending, generation %d)\n",
			*ingestPath, *ingestSlot, st.PendingEvents, st.Generation)
	}

	var handler http.Handler = mux
	if *usePprof {
		pmux := http.NewServeMux()
		pmux.Handle("/", handler)
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = pmux
	}
	for _, info := range engine.SnapshotsInfo() {
		fmt.Printf("cpd-serve snapshot %s: %d users, %d words, mapped=%v (%d mapped / %d heap bytes)\n",
			info.Name, info.Users, info.Words, info.Mapped, info.MappedBytes, info.HeapBytes)
	}
	fmt.Printf("cpd-serve listening on %s (%d snapshots)\n", *addr, len(models))
	// Graceful drain: on SIGINT/SIGTERM, before the listener closes, stop
	// accepting ingest, flush the journal and publish a final generation —
	// nothing accepted is ever lost to a shutdown.
	drain := func() {
		if updater == nil {
			return
		}
		if err := updater.Drain(); err != nil {
			log.Printf("drain failed: %v", err)
			return
		}
		fmt.Printf("drained: final generation %d published\n", updater.Generation())
	}
	if err := serve.RunHTTPWithShutdown(*addr, handler, drain); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
	fmt.Println("shut down cleanly")
}

// Command cpd-loadgen replays a configurable query mix against a served
// CPD model and reports throughput plus latency percentiles — the repo's
// traffic baseline tool. It drives either a model snapshot in-process
// (the serving engine's ceiling, no network or JSON cost) or a live
// HTTP endpoint — a single cpd-serve process (it serves
// serve.APIHandler), or a cpd-router front, which speaks the identical
// API over a whole replica fleet.
//
// Usage:
//
//	# In-process, closed loop: 8 workers, 30k requests, default mix.
//	cpd-loadgen -model model.snap -requests 30000
//
//	# Against a live endpoint, open loop at 2000 qps for 30 seconds.
//	cpd-loadgen -url http://localhost:8080 -model model.snap \
//	    -rate 2000 -duration 30s -mix rank=4,membership=3,diffusion=2,foldin=1
//
//	# Against a router fronting N replicas: same flags, router address.
//	cpd-loadgen -url http://localhost:9090 -model model.snap -duration 30s
//
//	# Reads plus observability traffic: a dashboard polling /api/quality
//	# and a Prometheus scraper on /metrics ride the same mix.
//	cpd-loadgen -url http://localhost:8080 -model model.snap \
//	    -mix rank=4,membership=3,quality=1,metrics=1 -duration 30s
//
// The -model snapshot is always required: it defines the id space queries
// are drawn from (users, words, communities). With -url the model itself
// stays local; only the generated queries travel.
//
// Closed loop (-rate 0) measures service latency under full back-pressure:
// each worker issues its next request when the previous one returns. Open
// loop (-rate > 0) fixes the arrival schedule and measures latency from
// the *scheduled* arrival, so queueing delay on a saturated server counts
// against it (no coordinated omission).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/corpus"
	"repro/internal/router"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/stream"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cpd-loadgen: ")
	var (
		modelPath = flag.String("model", "", "model snapshot (v2, or legacy v1/JSON; required — defines the query id space)")
		vocabPath = flag.String("vocab", "", "optional vocabulary (in-process target only; enables labelled responses)")
		url       = flag.String("url", "", "drive a live endpoint at this base URL instead of the in-process engine")
		snapName  = flag.String("snapshot", "", "route queries to this named snapshot (default snapshot when empty)")

		mixSpec     = flag.String("mix", "rank=4,membership=3,diffusion=2,foldin=1", "relative op weights; add ingest=N for a write mix, quality=N / metrics=N for observability-endpoint traffic")
		concurrency = flag.Int("concurrency", 8, "workers (closed loop) / max in-flight (open loop)")
		requests    = flag.Int("requests", 0, "total request count (0 = run for -duration)")
		duration    = flag.Duration("duration", 10*time.Second, "run length when -requests is 0")
		rate        = flag.Float64("rate", 0, "open-loop arrival rate per second (0 = closed loop)")
		seed        = flag.Uint64("seed", 1, "request-stream seed")

		rankWords    = flag.Int("rank-words", 2, "words per rank query")
		rankK        = flag.Int("rank-k", 10, "top-k communities per rank query")
		foldinDocs   = flag.Int("foldin-docs", 2, "documents per fold-in request")
		foldinLen    = flag.Int("foldin-words", 8, "words per fold-in document")
		foldinSweeps = flag.Int("foldin-sweeps", 10, "Gibbs sweeps per fold-in request")

		jsonOut = flag.Bool("json", false, "emit the report as JSON instead of the table")
	)
	flag.Parse()
	if *modelPath == "" {
		log.Fatal("-model is required (it defines the query id space)")
	}
	mix, err := scenario.ParseMix(*mixSpec)
	if err != nil {
		log.Fatal(err)
	}
	opts := scenario.LoadOptions{
		Mix: mix,

		Concurrency: *concurrency,
		Requests:    *requests,
		Duration:    *duration,
		Rate:        *rate,
		Seed:        *seed,

		RankWords:    *rankWords,
		RankK:        *rankK,
		FoldInDocs:   *foldinDocs,
		FoldInDocLen: *foldinLen,
		FoldInSweeps: *foldinSweeps,
	}

	var target scenario.Target
	if *url != "" {
		m, err := store.LoadFile(*modelPath)
		if err != nil {
			log.Fatal(err)
		}
		opts.Space = scenario.SpaceFromModel(m)
		target = scenario.HTTPTarget{Base: *url, Snapshot: *snapName}
		fmt.Fprintf(os.Stderr, "target: %s (HTTP, snapshot=%q)\n", *url, *snapName)
	} else {
		var vocab *corpus.Vocabulary
		if *vocabPath != "" {
			if vocab, err = corpus.ReadVocabularyFile(*vocabPath); err != nil {
				log.Fatal(err)
			}
		}
		name := *snapName
		if name == "" {
			name = serve.DefaultSnapshot
		}
		engine := serve.NewMulti(serve.Options{})
		defer engine.Close()
		if _, err := engine.LoadGeneration(name, *modelPath, vocab, 0); err != nil {
			log.Fatal(err)
		}
		s, release, err := engine.AcquireNamed(name)
		if err != nil {
			log.Fatal(err)
		}
		m := s.Model
		opts.Space = scenario.SpaceFromModel(m)
		fmt.Fprintf(os.Stderr, "target: %s (in-process engine, mapped=%v, |C|=%d |Z|=%d users=%d words=%d)\n",
			*modelPath, s.Mapped(), m.Cfg.NumCommunities, m.Cfg.NumTopics, m.NumUsers, m.NumWords)
		release()
		et := scenario.EngineTarget{Engine: engine, Snapshot: name}
		if mix[scenario.OpIngest] > 0 {
			// A write mix needs the streaming updater behind the engine: a
			// throwaway journal plus a background publish loop, so reads
			// run against live generation swaps exactly as on a real
			// -ingest server.
			dir, err := os.MkdirTemp("", "cpd-loadgen-*")
			if err != nil {
				log.Fatal(err)
			}
			defer os.RemoveAll(dir)
			j, err := stream.OpenJournal(filepath.Join(dir, "events.wal"), stream.JournalOptions{})
			if err != nil {
				log.Fatal(err)
			}
			defer j.Close()
			u, err := stream.NewUpdater(j, stream.Options{Engine: engine, Snapshot: name, Dir: dir})
			if err != nil {
				log.Fatal(err)
			}
			defer u.Close()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			go u.Run(ctx)
			et.Updater = u
		}
		target = et
	}

	rep, err := scenario.RunLoad(target, opts)
	if err != nil {
		log.Fatal(err)
	}
	// Against a router front, pull the fleet view after the run: the
	// per-replica request/error/misroute split is where a sharded fleet's
	// routing problems show up, and the router is the only place that
	// sees them. A plain cpd-serve target has no "replicas" array and is
	// skipped.
	fleet := fetchFleetStats(*url)
	if *jsonOut {
		out := struct {
			*scenario.Report
			Fleet *router.Stats `json:"fleet,omitempty"`
		}{rep, fleet}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			log.Fatal(err)
		}
		return
	}
	fmt.Print(rep.String())
	if fleet != nil {
		fmt.Print(fleetString(fleet))
	}
}

// fetchFleetStats fetches a router target's /api/stats; nil when the
// target is not a router (or unreachable).
func fetchFleetStats(url string) *router.Stats {
	if url == "" {
		return nil
	}
	resp, err := http.Get(strings.TrimRight(url, "/") + "/api/stats")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	var st router.Stats
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&st) != nil || len(st.Replicas) == 0 {
		return nil
	}
	return &st
}

// fleetString renders the router's per-replica accounting under the load
// report.
func fleetString(st *router.Stats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "\nfleet: generation %d, %d/%d replicas healthy", st.Generation, st.Healthy, len(st.Replicas))
	if st.Sharded {
		fmt.Fprintf(&b, ", %d shards, %d misroutes", st.Shards, st.Misroutes)
	}
	b.WriteString("\n")
	for _, r := range st.Replicas {
		fmt.Fprintf(&b, "  %-12s gen %-4d requests %-8d errors %-6d", r.Name, r.Generation, r.Requests, r.Errors)
		if r.Shard != nil {
			fmt.Fprintf(&b, " misroutes %-6d shard %d/%d users [%d,%d)",
				r.Misroutes, r.Shard.Index, r.Shard.Count, r.Shard.UserLo, r.Shard.UserHi)
		}
		if r.Draining {
			b.WriteString(" draining")
		}
		if !r.Healthy {
			b.WriteString(" UNHEALTHY")
		}
		b.WriteString("\n")
	}
	return b.String()
}

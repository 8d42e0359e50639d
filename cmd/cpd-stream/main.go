// Command cpd-stream is the offline companion of cpd-serve's live ingest:
// it replays an event journal against a base model snapshot and writes the
// resulting extended model — the backfill path for journals accumulated
// while no server was running, and a debugging lens on journal contents.
//
// Usage:
//
//	# Backfill: apply every journaled event to the base model, publish
//	# once (one batch window), write the final model as a v2 snapshot.
//	cpd-stream -journal events.wal -model base.v2.snap -out final.v2.snap
//
//	# With a delta-Gibbs refinement over the affected users (needs the
//	# base graph).
//	cpd-stream -journal events.wal -model base.v2.snap -graph base.graph \
//	    -gibbs -out final.v2.snap
//
//	# Inspect a journal without touching any model.
//	cpd-stream -journal events.wal -stats
//
// The journal is never shortened: it is the corpus every restart of a
// live updater replays.
//
// Replay is deterministic: the same journal, base snapshot and flags
// produce a bit-identical output snapshot (see internal/stream's
// replay-equals-batch guarantee).
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/serve"
	"repro/internal/socialgraph"
	"repro/internal/store"
	"repro/internal/stream"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cpd-stream: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// run is main's body: it returns instead of exiting, so every deferred
// cleanup — the publish directory above all — runs on every exit path.
func run() error {
	var (
		journalPath = flag.String("journal", "", "event journal path (required)")
		modelPath   = flag.String("model", "", "base model snapshot (required unless -stats)")
		graphPath   = flag.String("graph", "", "base training graph (enables -gibbs)")
		outPath     = flag.String("out", "", "output snapshot path (v2; required unless -stats)")
		foldSweeps  = flag.Int("fold-sweeps", 0, "Gibbs sweeps per fold-in (0 = default)")
		seed        = flag.Uint64("seed", 0, "fold/delta seed base")
		gibbs       = flag.Bool("gibbs", false, "run a delta-Gibbs refinement in the backfill publish (needs -graph)")
		gibbsSweeps = flag.Int("gibbs-sweeps", 2, "EM iterations of the delta-Gibbs refinement")
		workers     = flag.Int("workers", 0, "delta-Gibbs workers (0 = all cores)")
		statsOnly   = flag.Bool("stats", false, "print journal statistics and exit")
	)
	flag.Parse()
	if *journalPath == "" {
		return errors.New("-journal is required")
	}
	j, err := stream.OpenJournal(*journalPath, stream.JournalOptions{})
	if err != nil {
		return err
	}
	defer j.Close()

	if *statsOnly {
		counts := map[stream.EventType]int{}
		if err := j.Replay(0, func(off uint64, ev stream.Event) error {
			counts[ev.Type]++
			return nil
		}); err != nil {
			return err
		}
		fmt.Printf("journal %s: %d events, %d bytes, watermark %d, tail %d\n",
			*journalPath, j.Events(), j.SizeBytes(), j.Watermark(), j.Tail())
		for _, t := range []stream.EventType{stream.EvAddUser, stream.EvAddEdge, stream.EvAddDoc, stream.EvDiffusion} {
			fmt.Printf("  %-10s %d\n", t, counts[t])
		}
		return nil
	}
	if *modelPath == "" || *outPath == "" {
		return errors.New("-model and -out are required (or pass -stats)")
	}
	base, err := store.LoadFile(*modelPath)
	if err != nil {
		return err
	}
	var baseGraph *socialgraph.Graph
	if *graphPath != "" {
		if baseGraph, err = socialgraph.ReadFile(*graphPath); err != nil {
			return err
		}
	}
	if *gibbs && baseGraph == nil {
		return errors.New("-gibbs needs -graph")
	}

	// An in-process engine hosts the base snapshot; the updater folds the
	// whole journal into it as one batch window — deterministic and, in
	// fold-in mode, bit-identical to what incremental live ingest of the
	// same events would have served (replay-equals-batch). The publish
	// goes through a throwaway directory like every publish; -out is the
	// model itself.
	dir, err := os.MkdirTemp("", "cpd-stream-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	engine := serve.New(base, nil, serve.Options{})
	defer engine.Close()
	gibbsEvery := 0
	if *gibbs {
		gibbsEvery = 1 // the single backfill publish includes the pass
	}
	u, err := stream.NewUpdater(j, stream.Options{
		Engine:      engine,
		Base:        base,
		Dir:         dir,
		FoldSweeps:  *foldSweeps,
		FoldSeed:    *seed,
		GibbsEvery:  gibbsEvery,
		GibbsSweeps: *gibbsSweeps,
		BaseGraph:   baseGraph,
		Workers:     *workers,
	})
	if err != nil {
		return err
	}
	defer u.Close()

	if _, err := u.Publish(); err != nil {
		return err
	}
	final := u.Model()
	if err := store.SaveV2(*outPath, final); err != nil {
		return err
	}
	st := u.Status()
	fmt.Printf("backfilled %d events (%d delta-Gibbs passes): %d -> %d users, %d stream docs\n",
		st.AppliedEvents, st.GibbsPasses, st.BaseUsers, st.Users, st.StreamDocs)
	fmt.Printf("final model written to %s (generation %d)\n", *outPath, st.Generation)
	return nil
}

// Command cpd-train trains a CPD model on a social graph file and saves
// the model as a v2 snapshot (internal/store): the 64-byte-aligned layout
// cpd-serve can memory-map for zero-copy serving. The snapshot does not
// record -workers, so training the same graph and seed with any worker
// count writes the same bytes.
//
// With -resume, training continues from a saved snapshot instead of
// starting fresh: the stored assignments seed the sampler (core's
// Resume-from-snapshot path), and the graph may have grown new users,
// documents and links since the snapshot was taken.
//
// With -init plp, the sampler warm-starts from a parallel
// label-propagation partition of the friendship graph
// (internal/baselines): PLP's communities seed the document-community
// assignments, replacing the random initialization. Cheap (seconds even
// on large graphs), deterministic per seed, and it gives the Gibbs
// sampler a structurally sensible starting point. Only the default joint
// model supports it (attribute-augmented and no-joint-modeling variants
// initialize differently), and a resumed run rejects it: -resume starts
// from the snapshot's assignments. An unknown -init is rejected either way.
//
// With -sampler alias, the E-step runs the alias-table +
// Metropolis–Hastings samplers instead of the exact full-conditional
// scan — sub-linear in |C| and |Z| per draw, the right choice for large
// community/topic counts (see internal/core's package documentation for
// the guarantees each sampler makes). A resumed model keeps the sampler
// it was trained with.
//
// Usage:
//
//	cpd-train -graph twitter.graph -communities 50 -topics 25 -iters 30 -out model.v2.snap
//	cpd-train -graph twitter.graph -communities 200 -topics 100 -sampler alias -out model.v2.snap
//	cpd-train -graph twitter.graph -resume model.v2.snap -iters 10 -out model2.v2.snap
//	cpd-train -graph twitter.graph -init plp -iters 20 -out model.v2.snap
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/socialgraph"
	"repro/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cpd-train: ")
	var (
		graphPath   = flag.String("graph", "", "input graph file (required)")
		communities = flag.Int("communities", 50, "number of communities |C|")
		topics      = flag.Int("topics", 25, "number of topics |Z|")
		iters       = flag.Int("iters", 30, "EM iterations T1")
		workers     = flag.Int("workers", 0, "E-step workers (0 = all cores, 1 = serial)")
		seed        = flag.Uint64("seed", 7, "sampler seed")
		rho         = flag.Float64("rho", 0, "membership prior (0 = paper default 50/|C|)")
		out         = flag.String("out", "", "model output file (required)")
		resume      = flag.String("resume", "", "continue training from this saved model snapshot (ignores -communities/-topics/-rho/-sampler)")
		initMode    = flag.String("init", "random", "sampler initialization: random | plp (warm-start from parallel label propagation)")
		sampler     = flag.String("sampler", "exact", "E-step sampler: exact (draws from the full conditional) | alias (alias-table + Metropolis-Hastings, sub-linear at large |C|/|Z|)")
	)
	flag.Parse()
	if *graphPath == "" || *out == "" {
		log.Fatal("-graph and -out are required")
	}
	if err := checkInit(*initMode, *resume); err != nil {
		log.Fatal(err)
	}
	g, err := socialgraph.ReadFile(*graphPath)
	if err != nil {
		log.Fatal(err)
	}
	cfg := core.Config{
		NumCommunities: *communities,
		NumTopics:      *topics,
		EMIters:        *iters,
		Workers:        *workers,
		Seed:           *seed,
		Rho:            *rho,
		Sampler:        *sampler,
	}
	// A resumed or warm-started run continues from a start model; a fresh
	// one samples its initial assignments.
	var start *core.Model
	switch {
	case *resume != "":
		if start, err = store.LoadFile(*resume); err != nil {
			log.Fatal(err)
		}
	case *initMode == "plp":
		res := baselines.PLPGraph(g, baselines.PLPOptions{Seed: *seed})
		fmt.Printf("plp warm start: %d communities in %d sweeps (converged=%v)\n",
			res.Communities, res.Sweeps, res.Converged)
		start = baselines.WarmStartModel(g, cfg, res.Labels)
	}
	var m *core.Model
	var diag *core.Diagnostics
	if start == nil {
		m, diag, err = core.Train(g, cfg)
	} else {
		m, diag, err = core.TrainResumed(g, start, *iters, core.ResumeOptions{Workers: *workers, Seed: *seed})
	}
	if err != nil {
		log.Fatal(err)
	}
	if err := store.SaveV2(*out, m); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained |C|=%d |Z|=%d in %.1fs E-step + %.1fs M-step; model written to %s\n",
		m.Cfg.NumCommunities, m.Cfg.NumTopics, diag.EStepSeconds, diag.MStepSeconds, *out)
	if lazy := diag.Lazy; lazy.Total().Considered > 0 {
		pct := func(s rng.LazyStats) string {
			if s.Considered == 0 {
				return "none drawn"
			}
			return fmt.Sprintf("%.1f %%", 100*s.Share())
		}
		fmt.Printf("lazy draws: evaluated %s of candidates (topic %s / community %s)\n",
			pct(lazy.Total()), pct(lazy.Topic), pct(lazy.Community))
	}
	if m.Cfg.Sampler == core.SamplerAlias {
		mh := diag.MH
		fmt.Printf("MH acceptance: topic-prior %.3f  topic-word %.3f  community-prior %.3f  community-content %.3f\n",
			mh.TopicPrior.Rate(), mh.TopicWord.Rate(), mh.CommunityPrior.Rate(), mh.CommunityContent.Rate())
	}
}

// checkInit validates -init before any training branch is chosen: the mode
// must be known, and a resumed run starts from the snapshot's assignments,
// so it cannot also take a PLP warm start.
func checkInit(initMode, resume string) error {
	switch initMode {
	case "random":
		return nil
	case "plp":
		if resume != "" {
			return fmt.Errorf("-init plp cannot be combined with -resume: a resumed run starts from the snapshot's assignments")
		}
		return nil
	}
	return fmt.Errorf("unknown -init %q (want random or plp)", initMode)
}

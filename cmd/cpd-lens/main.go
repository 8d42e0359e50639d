// Command cpd-lens serves the SocialLens companion system (the paper's
// footnote 1): an interactive HTTP service for browsing communities by
// content and interaction — community profiles, profile-driven ranking and
// the Fig. 7 diffusion graphs. It serves serve.APIHandler, the same
// surface as cmd/cpd-serve: the page at /, the JSON routes under /api/
// (the Fig. 7 graph at /api/graph?topic=-1&format=dot), so each path
// means one thing in every binary.
//
// Usage:
//
//	cpd-lens -model model.snap -vocab data.vocab -addr :8080
//	cpd-lens -demo               # train on a synthetic network and serve it
//	cpd-lens -demo -quality      # print the structural quality table and exit
//
// -model loads through the same loader as cpd-serve: a v2 snapshot is
// served from its checksum-verified mapping, a legacy v1 or JSON model is
// copied onto the heap. The server shuts down gracefully on SIGINT/SIGTERM,
// draining in-flight requests.
//
// -quality prints the model's structural quality report as a metric-rows ×
// generations table (internal/quality) instead of serving: modularity,
// coverage, conductance, size distribution and — when a graph is at hand
// (-graph, or -demo's synthetic network) — the parallel label-propagation
// baseline as a comparison column. Point it at a running cpd-serve with
// -quality-url to render that server's /api/quality history instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/quality"
	"repro/internal/serve"
	"repro/internal/socialgraph"
	"repro/internal/synth"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cpd-lens: ")
	var (
		modelPath  = flag.String("model", "", "trained model file (v2 snapshot, or legacy v1/JSON)")
		vocabPath  = flag.String("vocab", "", "vocabulary file")
		graphPath  = flag.String("graph", "", "training graph; gives -quality friendship edges to score")
		addr       = flag.String("addr", ":8080", "listen address")
		demo       = flag.Bool("demo", false, "train a demo model on synthetic data and serve it")
		qualityTab = flag.Bool("quality", false, "print the structural quality table and exit instead of serving")
		qualityURL = flag.String("quality-url", "", "render a running server's /api/quality history as a table and exit (e.g. http://localhost:8080)")
	)
	flag.Parse()

	if *qualityURL != "" {
		if err := printRemoteQuality(*qualityURL); err != nil {
			log.Fatal(err)
		}
		return
	}

	engine := serve.NewMulti(serve.Options{})
	defer engine.Close()
	var graph *socialgraph.Graph
	switch {
	case *demo:
		cfg := synth.TwitterLike(500, 42)
		g, _ := synth.Generate(cfg)
		if err := g.Validate(); err != nil {
			log.Fatalf("demo graph generation produced an invalid graph: %v", err)
		}
		fmt.Println("training demo model on a synthetic Twitter-like network...")
		m, _, err := core.Train(g, core.Config{
			NumCommunities: 20, NumTopics: 25, EMIters: 20, Workers: 0,
			Rho: 0.05, Seed: 7,
		})
		if err != nil {
			log.Fatal(err)
		}
		engine.SwapNamed(serve.DefaultSnapshot, m, synth.BuildVocabulary(cfg))
		graph = g
	case *modelPath != "":
		var vocab *corpus.Vocabulary
		if *vocabPath != "" {
			vf, err := corpus.ReadVocabularyFile(*vocabPath)
			if err != nil {
				log.Fatal(err)
			}
			vocab = vf
		}
		if _, err := engine.LoadGeneration(serve.DefaultSnapshot, *modelPath, vocab, 0); err != nil {
			log.Fatal(err)
		}
		if *graphPath != "" {
			f, err := os.Open(*graphPath)
			if err != nil {
				log.Fatal(err)
			}
			if graph, err = socialgraph.Read(f); err != nil {
				f.Close()
				log.Fatal(err)
			}
			f.Close()
		}
	default:
		log.Fatal("pass -model (and optionally -vocab), or -demo")
	}

	if *qualityTab {
		s, release, err := engine.AcquireNamed(serve.DefaultSnapshot)
		if err != nil {
			log.Fatal(err)
		}
		printLocalQuality(s.Model, graph)
		release()
		return
	}

	fmt.Printf("SocialLens listening on %s\n", *addr)
	if err := serve.RunHTTP(*addr, serve.APIHandler(engine, nil)); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
	fmt.Println("shut down cleanly")
}

// printLocalQuality scores the loaded model (with the graph's friendship
// edges when one was given) and prints the metric-rows × generations
// table. With edges, the PLP baseline renders as a comparison column.
func printLocalQuality(model *core.Model, graph *socialgraph.Graph) {
	var friends []socialgraph.FriendLink
	if graph != nil {
		friends = graph.Friends
	}
	reports := []*quality.Report{quality.FromModel(model, friends, nil)}
	if len(friends) > 0 {
		res := baselines.PLP(model.NumUsers, friends, baselines.PLPOptions{Seed: 1})
		plp := quality.Compute(res.Labels, res.Communities, friends, nil)
		plp.Algo = "plp"
		reports = append(reports, plp)
	}
	fmt.Print(quality.Table(reports))
}

// lensClient caps remote fetches: a stalled or half-dead server must
// fail the CLI with a timeout, not hang it forever (http.DefaultClient
// has no timeout at all).
var lensClient = &http.Client{Timeout: 30 * time.Second}

// printRemoteQuality renders a running server's /api/quality history.
func printRemoteQuality(base string) error {
	resp, err := lensClient.Get(base + "/api/quality")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body) // drain so the connection is reusable
		return fmt.Errorf("%s/api/quality answered status %d", base, resp.StatusCode)
	}
	var payload serve.QualityPayload
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		return err
	}
	reports := payload.History
	if payload.Baseline != nil {
		reports = append(reports, payload.Baseline)
	}
	fmt.Print(quality.Table(reports))
	return nil
}

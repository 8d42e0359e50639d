// Command cpd-viz exports profile-driven community diffusion
// visualizations (Fig. 7) from a trained model as Graphviz DOT or JSON.
//
// Usage:
//
//	cpd-viz -model model.v2.snap -vocab twitter.vocab -topic -1 -format dot > diffusion.dot
package main

import (
	"flag"
	"log"
	"os"

	"repro/internal/apps"
	"repro/internal/corpus"
	"repro/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cpd-viz: ")
	var (
		modelPath = flag.String("model", "", "trained model file (required)")
		vocabPath = flag.String("vocab", "", "optional vocabulary file for node labels")
		topic     = flag.Int("topic", -1, "topic to visualize (-1 aggregates over topics)")
		format    = flag.String("format", "dot", "output format: dot | json")
	)
	flag.Parse()
	if *modelPath == "" {
		log.Fatal("-model is required")
	}
	m, err := store.LoadFile(*modelPath)
	if err != nil {
		log.Fatal(err)
	}
	var vocab *corpus.Vocabulary
	if *vocabPath != "" {
		vocab, err = corpus.ReadVocabularyFile(*vocabPath)
		if err != nil {
			log.Fatal(err)
		}
	}
	if *topic >= m.Cfg.NumTopics {
		log.Fatalf("topic %d out of range (model has %d topics)", *topic, m.Cfg.NumTopics)
	}
	dg := apps.BuildDiffusionGraph(m, vocab, *topic)
	switch *format {
	case "dot":
		err = dg.WriteDOT(os.Stdout)
	case "json":
		err = dg.WriteJSON(os.Stdout)
	default:
		log.Fatalf("unknown format %q (want dot or json)", *format)
	}
	if err != nil {
		log.Fatal(err)
	}
}

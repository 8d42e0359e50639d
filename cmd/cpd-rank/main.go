// Command cpd-rank answers profile-driven community ranking queries
// (Eq. 19) against a trained model: which communities are most likely to
// diffuse content about the query? It ranks a model file offline, with no
// server, and stems the query by default, which cpd-serve's /api/rank
// (tokens passed through as they are) does not; both score through
// core.Model.RankFromLogPosterior.
//
// Usage:
//
//	cpd-rank -model model.v2.snap -vocab twitter.vocab -k 5 "deep learning"
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"repro/internal/apps"
	"repro/internal/corpus"
	"repro/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cpd-rank: ")
	var (
		modelPath = flag.String("model", "", "trained model file (required)")
		vocabPath = flag.String("vocab", "", "vocabulary file (required)")
		k         = flag.Int("k", 5, "communities to return")
		raw       = flag.Bool("raw", false, "treat query tokens as raw vocabulary words (skip stemming)")
	)
	flag.Parse()
	if *modelPath == "" || *vocabPath == "" || flag.NArg() == 0 {
		log.Fatal("usage: cpd-rank -model model.v2.snap -vocab v.txt [-k 5] <query words>")
	}
	m, err := store.LoadFile(*modelPath)
	if err != nil {
		log.Fatal(err)
	}
	vocab, err := corpus.ReadVocabularyFile(*vocabPath)
	if err != nil {
		log.Fatal(err)
	}
	query := strings.Join(flag.Args(), " ")
	pipeline := corpus.DefaultPipeline()
	pipeline.MinDocTokens = 1
	if *raw {
		pipeline = corpus.Pipeline{MinDocTokens: 1}
	}
	ranked, err := apps.RankCommunitiesText(m, vocab, pipeline, query)
	if err != nil {
		log.Fatal(err)
	}
	if *k > len(ranked) {
		*k = len(ranked)
	}
	fmt.Printf("top %d communities to diffuse %q:\n", *k, query)
	for i := 0; i < *k; i++ {
		r := ranked[i]
		fmt.Printf("%2d. c%02d  score=%.5f  %s\n", i+1, r.Community, r.Score,
			apps.CommunityLabel(m, vocab, r.Community, 4))
	}
}

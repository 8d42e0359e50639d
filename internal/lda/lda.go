// Package lda implements Latent Dirichlet Allocation with collapsed Gibbs
// sampling (Blei, Ng & Jordan [3]; Griffiths & Steyvers [13] sampler).
// CPD uses it three ways: the parallel E-step segments users by their
// dominant LDA topic (Sect. 4.3), the CRM+Agg/COLD+Agg baselines aggregate
// per-document LDA topic distributions (Eqs. 20–21), and the WTM baseline
// uses LDA topic vectors as content-similarity features.
package lda

import (
	"math"

	"repro/internal/rng"
	"repro/internal/sparse"
)

// Config holds LDA hyperparameters.
type Config struct {
	NumTopics int
	Alpha     float64 // document-topic Dirichlet prior; 0 means 50/K
	Beta      float64 // topic-word Dirichlet prior; 0 means 0.1
	Iters     int     // Gibbs sweeps; 0 means 50
	Seed      uint64
}

func (c Config) withDefaults() Config {
	if c.Alpha == 0 {
		c.Alpha = 50 / float64(c.NumTopics)
	}
	if c.Beta == 0 {
		c.Beta = 0.1
	}
	if c.Iters == 0 {
		c.Iters = 50
	}
	return c
}

// Model is a trained LDA model.
type Model struct {
	NumTopics, NumWords int
	Alpha, Beta         float64

	// wordTopic[w][z] counts — word-major, so a token's K counts are one
	// contiguous run — and topicTotal[z] marginals.
	wordTopic  *sparse.Dense
	topicTotal []float64
	// docTopic[d][z] counts, docLen[d] totals, assign[d][k] per-word topics.
	docTopic *sparse.Dense
	docLen   []int
	assign   [][]int32
}

// Train runs collapsed Gibbs LDA on docs (each a slice of word ids drawn
// from [0, numWords)).
func Train(docs [][]int32, numWords int, cfg Config) *Model {
	cfg = cfg.withDefaults()
	if cfg.NumTopics <= 0 {
		panic("lda: NumTopics must be positive")
	}
	m := &Model{
		NumTopics:  cfg.NumTopics,
		NumWords:   numWords,
		Alpha:      cfg.Alpha,
		Beta:       cfg.Beta,
		wordTopic:  sparse.NewDense(numWords, cfg.NumTopics),
		topicTotal: make([]float64, cfg.NumTopics),
		docTopic:   sparse.NewDense(len(docs), cfg.NumTopics),
		docLen:     make([]int, len(docs)),
		assign:     make([][]int32, len(docs)),
	}
	r := rng.New(cfg.Seed)
	// Random initialization.
	for d, words := range docs {
		m.assign[d] = make([]int32, len(words))
		m.docLen[d] = len(words)
		for k, w := range words {
			z := r.Intn(cfg.NumTopics)
			m.assign[d][k] = int32(z)
			m.wordTopic.Add(int(w), z, 1)
			m.topicTotal[z]++
			m.docTopic.Add(d, z, 1)
		}
	}
	weights := make([]float64, cfg.NumTopics)
	wBeta := float64(numWords) * cfg.Beta
	for iter := 0; iter < cfg.Iters; iter++ {
		for d, words := range docs {
			dt := m.docTopic.Row(d)
			for k, w := range words {
				wt := m.wordTopic.Row(int(w))
				old := int(m.assign[d][k])
				wt[old]--
				m.topicTotal[old]--
				dt[old]--
				for z := 0; z < cfg.NumTopics; z++ {
					weights[z] = (dt[z] + cfg.Alpha) *
						(wt[z] + cfg.Beta) /
						(m.topicTotal[z] + wBeta)
				}
				z := r.Categorical(weights)
				m.assign[d][k] = int32(z)
				wt[z]++
				m.topicTotal[z]++
				dt[z]++
			}
		}
	}
	return m
}

// Phi returns the smoothed topic-word distribution for topic z (a fresh
// slice).
func (m *Model) Phi(z int) []float64 {
	row := make([]float64, m.NumWords)
	denom := m.topicTotal[z] + float64(m.NumWords)*m.Beta
	for w := 0; w < m.NumWords; w++ {
		row[w] = (m.wordTopic.At(w, z) + m.Beta) / denom
	}
	return row
}

// PhiAt returns the smoothed probability of word w under topic z without
// materialising the row.
func (m *Model) PhiAt(z, w int) float64 {
	return (m.wordTopic.At(w, z) + m.Beta) / (m.topicTotal[z] + float64(m.NumWords)*m.Beta)
}

// DocTopics returns the smoothed topic distribution of training document d.
func (m *Model) DocTopics(d int) []float64 {
	row := make([]float64, m.NumTopics)
	denom := float64(m.docLen[d]) + float64(m.NumTopics)*m.Alpha
	dt := m.docTopic.Row(d)
	for z := range row {
		row[z] = (dt[z] + m.Alpha) / denom
	}
	return row
}

// DominantTopic returns the most frequently assigned topic of training
// document d (ties broken by lowest id); the parallel E-step's user
// segmentation keys on this.
func (m *Model) DominantTopic(d int) int {
	dt := m.docTopic.Row(d)
	best := 0
	for z := 1; z < m.NumTopics; z++ {
		if dt[z] > dt[best] {
			best = z
		}
	}
	return best
}

// Perplexity computes exp(-sum log p(w|d) / N) over the given documents
// using their inferred (or training) topic mixtures.
func (m *Model) Perplexity(docs [][]int32, docTopics [][]float64) float64 {
	var logLik float64
	var n int
	for d, words := range docs {
		theta := docTopics[d]
		for _, w := range words {
			var p float64
			for z := 0; z < m.NumTopics; z++ {
				p += theta[z] * m.PhiAt(z, int(w))
			}
			if p <= 0 {
				p = 1e-300
			}
			logLik += math.Log(p)
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return math.Exp(-logLik / float64(n))
}

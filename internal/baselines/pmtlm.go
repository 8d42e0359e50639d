// Package baselines implements the four published systems the paper
// compares against (Sect. 6.1, Table 4) plus the two "first detection,
// then aggregation" profiling baselines (Eqs. 20–21):
//
//   - PMTLM [43]: Poisson mixed-topic link model — document topics generate
//     document links; adapted for community detection by aggregating doc
//     topics per user.
//   - WTM [37]: feature-based diffusion prediction from content similarity
//     and friendship structure; no community model.
//   - CRM [15]: probabilistic community + role model over friendship and
//     diffusion links; no content.
//   - COLD [17]: community-level diffusion from content + diffusion links;
//     no friendship modeling, no individual/topic-popularity factors
//     (instantiated as the matching restriction of the CPD code, which is
//     the honest reading of "COLD is the closest work to ours").
//   - CRM+Agg / COLD+Agg: detect with CRM/COLD, then aggregate user
//     observations into profiles with Eqs. 20 and 21.
//
// Every baseline here is trained, not stubbed.
package baselines

import (
	"math"

	"repro/internal/eval"
	"repro/internal/lda"
	"repro/internal/mathx"
	"repro/internal/socialgraph"
)

// PMTLM is the adapted Poisson mixed-topic link model: documents carry LDA
// topic mixtures and each topic has a link rate; a document pair's link
// intensity is sum_z eta_z theta_iz theta_jz. User memberships aggregate
// their documents' mixtures (the adaptation described in Sect. 6.1).
type PMTLM struct {
	K        int
	docTheta [][]float64
	// userTheta[u] is the averaged topic mixture of u's documents —
	// doubling as the community membership under the topics-as-communities
	// adaptation.
	userTheta [][]float64
	// etaZ[z] is the per-topic link rate, estimated as observed link mass
	// on z relative to the background rate of topic z co-occurrence.
	etaZ []float64
}

// PMTLMConfig bundles training knobs.
type PMTLMConfig struct {
	NumTopics int
	LDAIters  int
	Seed      uint64
}

// TrainPMTLM fits the model on graph g.
func TrainPMTLM(g *socialgraph.Graph, cfg PMTLMConfig) *PMTLM {
	docs := make([][]int32, len(g.Docs))
	for i := range g.Docs {
		docs[i] = g.Docs[i].Words
	}
	ldaM := lda.Train(docs, g.NumWords, lda.Config{
		NumTopics: cfg.NumTopics, Iters: cfg.LDAIters, Seed: cfg.Seed,
	})
	m := &PMTLM{K: cfg.NumTopics}
	m.docTheta = make([][]float64, len(g.Docs))
	for d := range g.Docs {
		m.docTheta[d] = ldaM.DocTopics(d)
	}
	m.userTheta = make([][]float64, g.NumUsers)
	for u := 0; u < g.NumUsers; u++ {
		t := make([]float64, cfg.NumTopics)
		ds := g.UserDocs(u)
		for _, d := range ds {
			for z, v := range m.docTheta[d] {
				t[z] += v
			}
		}
		if len(ds) > 0 {
			for z := range t {
				t[z] /= float64(len(ds))
			}
		} else {
			for z := range t {
				t[z] = 1 / float64(cfg.NumTopics)
			}
		}
		m.userTheta[u] = t
	}
	// Per-topic link rates: responsibility-weighted link mass over the
	// topic's background co-occurrence mass (a 1-step EM estimate of the
	// Poisson rates).
	linkMass := make([]float64, cfg.NumTopics)
	for _, e := range g.Diffs {
		ti, tj := m.docTheta[e.I], m.docTheta[e.J]
		var tot float64
		for z := 0; z < cfg.NumTopics; z++ {
			tot += ti[z] * tj[z]
		}
		if tot <= 0 {
			continue
		}
		for z := 0; z < cfg.NumTopics; z++ {
			linkMass[z] += ti[z] * tj[z] / tot
		}
	}
	meanTheta := make([]float64, cfg.NumTopics)
	for _, t := range m.docTheta {
		for z, v := range t {
			meanTheta[z] += v
		}
	}
	nd := float64(len(m.docTheta))
	m.etaZ = make([]float64, cfg.NumTopics)
	for z := 0; z < cfg.NumTopics; z++ {
		bg := (meanTheta[z] / nd) * (meanTheta[z] / nd)
		if bg <= 0 {
			bg = 1e-12
		}
		m.etaZ[z] = (linkMass[z] + 1e-6) / (float64(len(g.Diffs))*bg + 1e-6)
	}
	return m
}

// Membership returns user u's community (= topic) membership.
func (m *PMTLM) Membership(u int) []float64 { return m.userTheta[u] }

// FriendshipScore scores a potential friendship link by rate-weighted
// topic overlap.
func (m *PMTLM) FriendshipScore(u, v int) float64 {
	var s float64
	for z := 0; z < m.K; z++ {
		s += m.userTheta[u][z] * m.userTheta[v][z]
	}
	return s
}

// DiffusionScore scores document i diffusing document j by the Poisson
// intensity sum_z eta_z theta_iz theta_jz.
func (m *PMTLM) DiffusionScore(g *socialgraph.Graph, i, j int) float64 {
	ti, tj := m.docTheta[i], m.docTheta[j]
	var s float64
	for z := 0; z < m.K; z++ {
		s += m.etaZ[z] * ti[z] * tj[z]
	}
	return s
}

// WTM is the "Whom To Mention" diffusion model: a logistic regression over
// content-similarity, structural and individual features. It has no notion
// of community.
type WTM struct {
	w        []float64
	lda      *lda.Model
	docTheta [][]float64
}

// WTMConfig bundles training knobs.
type WTMConfig struct {
	NumTopics int
	LDAIters  int
	NegPerPos int
	Iters     int
	Seed      uint64
}

const wtmFeatDim = 8

// TrainWTM fits the model: positives are the observed diffusion links,
// negatives are sampled document pairs.
func TrainWTM(g *socialgraph.Graph, cfg WTMConfig) *WTM {
	if cfg.NegPerPos == 0 {
		cfg.NegPerPos = 1
	}
	if cfg.Iters == 0 {
		cfg.Iters = 120
	}
	docs := make([][]int32, len(g.Docs))
	for i := range g.Docs {
		docs[i] = g.Docs[i].Words
	}
	m := &WTM{}
	m.lda = lda.Train(docs, g.NumWords, lda.Config{
		NumTopics: cfg.NumTopics, Iters: cfg.LDAIters, Seed: cfg.Seed,
	})
	m.docTheta = make([][]float64, len(g.Docs))
	for d := range g.Docs {
		m.docTheta[d] = m.lda.DocTopics(d)
	}
	pos := make([][2]int, 0, len(g.Diffs))
	for _, e := range g.Diffs {
		pos = append(pos, [2]int{int(e.I), int(e.J)})
	}
	neg := eval.SampleNegativeDocPairs(g, len(pos)*cfg.NegPerPos, cfg.Seed^0xA17)
	x := make([][]float64, 0, len(pos)+len(neg))
	y := make([]int, 0, len(pos)+len(neg))
	for _, p := range pos {
		x = append(x, m.features(g, p[0], p[1]))
		y = append(y, 1)
	}
	for _, p := range neg {
		x = append(x, m.features(g, p[0], p[1]))
		y = append(y, 0)
	}
	m.w = trainLogistic(x, y, cfg.Iters)
	return m
}

// features builds the WTM pairwise feature vector for doc pair (i, j):
// content cosine, friendship indicator, common-neighbour count, the four
// individual features and a bias.
func (m *WTM) features(g *socialgraph.Graph, i, j int) []float64 {
	u := int(g.Docs[i].User)
	v := int(g.Docs[j].User)
	f := make([]float64, wtmFeatDim)
	f[0] = cosine(m.docTheta[i], m.docTheta[j])
	f[1] = friendIndicator(g, u, v)
	f[2] = math.Log1p(float64(commonNeighbors(g, u, v)))
	f[3] = g.Popularity(u)
	f[4] = g.Activeness(u)
	f[5] = g.Popularity(v)
	f[6] = g.Activeness(v)
	f[7] = 1
	return f
}

// DiffusionScore scores document i diffusing document j.
func (m *WTM) DiffusionScore(g *socialgraph.Graph, i, j int) float64 {
	return mathx.Sigmoid(mathx.Dot(m.w, m.features(g, i, j)))
}

func cosine(a, b []float64) float64 {
	var dot, na, nb float64
	for k := range a {
		dot += a[k] * b[k]
		na += a[k] * a[k]
		nb += b[k] * b[k]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

func friendIndicator(g *socialgraph.Graph, u, v int) float64 {
	for _, n := range g.FriendNeighbors(u) {
		if int(n) == v {
			return 1
		}
	}
	return 0
}

func commonNeighbors(g *socialgraph.Graph, u, v int) int {
	a, b := g.FriendNeighbors(u), g.FriendNeighbors(v)
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

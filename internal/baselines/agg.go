package baselines

import (
	"math"

	"repro/internal/lda"
	"repro/internal/mathx"
	"repro/internal/socialgraph"
	"repro/internal/sparse"
)

// aggTopK truncates memberships to each user's strongest communities when
// aggregating Eq. 21 (consistent with the paper's top-five-communities
// convention and necessary for tractability at |C| = 150).
const aggTopK = 5

// Aggregated implements the straightforward "first detection, then
// aggregation" community profiling the paper builds its CRM+Agg and
// COLD+Agg baselines from: given the memberships π* of any detector and an
// LDA run over all documents, Eq. 20 aggregates content profiles θ* and
// Eq. 21 aggregates diffusion profiles η*.
type Aggregated struct {
	C, Z int
	// Pi is the detector's soft membership (|U| x |C|).
	Pi *sparse.Dense
	// ThetaStar is Eq. 20's aggregated content profile (row-normalized).
	ThetaStar *sparse.Dense
	// EtaStar is Eq. 21's aggregated diffusion profile (normalized per
	// source community).
	EtaStar *sparse.Tensor3

	lda       *lda.Model
	docTheta  [][]float64
	rankTable *sparse.Dense
	topIdx    [][]int
	topVal    [][]float64
}

// Aggregate builds the profiles from detector memberships pi over graph g,
// with the shared LDA model and its per-document topic distributions.
func Aggregate(g *socialgraph.Graph, pi *sparse.Dense, ldaM *lda.Model, docTheta [][]float64) *Aggregated {
	C := pi.Cols
	Z := ldaM.NumTopics
	a := &Aggregated{
		C: C, Z: Z, Pi: pi,
		ThetaStar: sparse.NewDense(C, Z),
		EtaStar:   sparse.NewTensor3(C, C, Z),
		lda:       ldaM,
		docTheta:  docTheta,
	}
	// Top-K membership truncation per user.
	a.topIdx = make([][]int, g.NumUsers)
	a.topVal = make([][]float64, g.NumUsers)
	for u := 0; u < g.NumUsers; u++ {
		idx := mathx.TopKIndices(pi.Row(u), aggTopK)
		vals := make([]float64, len(idx))
		for k, c := range idx {
			vals[k] = pi.At(u, c)
		}
		a.topIdx[u] = idx
		a.topVal[u] = vals
	}

	// Eq. 20: theta*_c = Σ_u π*_u,c Σ_i θ*_dui / |D_u|.
	userAvg := make([][]float64, g.NumUsers)
	for u := 0; u < g.NumUsers; u++ {
		avg := make([]float64, Z)
		ds := g.UserDocs(u)
		for _, d := range ds {
			for z, v := range docTheta[d] {
				avg[z] += v
			}
		}
		if len(ds) > 0 {
			for z := range avg {
				avg[z] /= float64(len(ds))
			}
		}
		userAvg[u] = avg
	}
	for u := 0; u < g.NumUsers; u++ {
		row := pi.Row(u)
		for c := 0; c < C; c++ {
			w := row[c]
			if w < 1e-6 {
				continue
			}
			dst := a.ThetaStar.Row(c)
			for z, v := range userAvg[u] {
				dst[z] += w * v
			}
		}
	}
	a.ThetaStar.NormalizeRows()

	// Eq. 21: eta*_{c,c',z} ∝ Σ_{(i,j)∈E} π*_u,c π*_v,c' θ*_i,z θ*_j,z.
	for _, e := range g.Diffs {
		u := int(g.Docs[e.I].User)
		v := int(g.Docs[e.J].User)
		ti, tj := docTheta[e.I], docTheta[e.J]
		for ku, c := range a.topIdx[u] {
			wu := a.topVal[u][ku]
			for kv, c2 := range a.topIdx[v] {
				w := wu * a.topVal[v][kv]
				if w < 1e-8 {
					continue
				}
				for z := 0; z < Z; z++ {
					a.EtaStar.Add(c, c2, z, w*ti[z]*tj[z])
				}
			}
		}
	}
	// Normalize per source community (Definition 5 shape).
	for c := 0; c < C; c++ {
		var tot float64
		for c2 := 0; c2 < C; c2++ {
			for z := 0; z < Z; z++ {
				tot += a.EtaStar.At(c, c2, z)
			}
		}
		if tot <= 0 {
			continue
		}
		for c2 := 0; c2 < C; c2++ {
			for z := 0; z < Z; z++ {
				a.EtaStar.Set(c, c2, z, a.EtaStar.At(c, c2, z)/tot)
			}
		}
	}

	// Prediction caches.
	a.rankTable = sparse.NewDense(C, Z)
	for c := 0; c < C; c++ {
		for z := 0; z < Z; z++ {
			var s float64
			for c2 := 0; c2 < C; c2++ {
				s += a.EtaStar.At(c, c2, z) * a.ThetaStar.At(c2, z)
			}
			a.rankTable.Set(c, z, s)
		}
	}
	return a
}

// DiffusionScore scores doc i diffusing doc j with the aggregated
// profiles: Σ_{c,c',z} η*_{c,c',z} π*_u,c π*_v,c' θ*_i,z θ*_j,z.
func (a *Aggregated) DiffusionScore(g *socialgraph.Graph, i, j int) float64 {
	u := int(g.Docs[i].User)
	v := int(g.Docs[j].User)
	ti, tj := a.docTheta[i], a.docTheta[j]
	var s float64
	for ku, c := range a.topIdx[u] {
		wu := a.topVal[u][ku]
		for kv, c2 := range a.topIdx[v] {
			w := wu * a.topVal[v][kv]
			if w < 1e-8 {
				continue
			}
			var t float64
			for z := 0; z < a.Z; z++ {
				t += a.EtaStar.At(c, c2, z) * ti[z] * tj[z]
			}
			s += w * t
		}
	}
	return s
}

// RankScores scores communities for a query (Eq. 19 with the aggregated
// profiles and the LDA topic-word distributions).
func (a *Aggregated) RankScores(query []int32) []float64 {
	logq := make([]float64, a.Z)
	for z := 0; z < a.Z; z++ {
		var lw float64
		for _, w := range query {
			lw += math.Log(a.lda.PhiAt(z, int(w)) + 1e-300)
		}
		logq[z] = lw
	}
	mathx.Softmax(logq, logq)
	scores := make([]float64, a.C)
	for c := 0; c < a.C; c++ {
		var s float64
		for z := 0; z < a.Z; z++ {
			s += a.rankTable.At(c, z) * logq[z]
		}
		scores[c] = s
	}
	return scores
}

// ProfileWordProbs returns the |C| x |W| matrix of each aggregated content
// profile's word distribution P[c][w] = Σ_z θ*_c,z φ^LDA_z,w (Fig. 8's
// profile-level perplexity evaluates these directly).
func (a *Aggregated) ProfileWordProbs(numWords int) *sparse.Dense {
	out := sparse.NewDense(a.C, numWords)
	for c := 0; c < a.C; c++ {
		theta := a.ThetaStar.Row(c)
		dst := out.Row(c)
		for z := 0; z < a.Z; z++ {
			tz := theta[z]
			if tz == 0 {
				continue
			}
			for w := 0; w < numWords; w++ {
				dst[w] += tz * a.lda.PhiAt(z, w)
			}
		}
	}
	return out
}

// TopCommunity returns the argmax detector membership of user u.
func (a *Aggregated) TopCommunity(u int) int {
	return mathx.MaxIndex(a.Pi.Row(u))
}

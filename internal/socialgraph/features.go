package socialgraph

import "math"

// FeatureDim is the length of the pairwise feature vector f_uv used by the
// individual-preference diffusion factor ν^T f_uv (Sect. 3.1): popularity
// and activeness of each endpoint plus a bias term.
const FeatureDim = 5

// buildFeatures computes the two per-user features of Sect. 3.1:
//
//   - popularity  = |Followers(u)| / |Followees(u)|   (in/out friendship degree)
//   - activeness  = |Retweets(u)| / |Tweets(u)|       (diffusing docs / all docs)
//
// both passed through log1p to keep the ratios in a sane numeric range for
// the logistic regression (the raw ratio is unbounded; the log transform
// preserves ordering, which is all the linear term uses).
func (g *Graph) buildFeatures() {
	if g.featsOK {
		return
	}
	g.BuildIndexes()
	in := make([]int, g.NumUsers)
	out := make([]int, g.NumUsers)
	for _, f := range g.Friends {
		out[f.U]++
		in[f.V]++
	}
	retweets := make([]int, g.NumUsers)
	for _, e := range g.Diffs {
		retweets[g.Docs[e.I].User]++
	}
	g.popularity = make([]float64, g.NumUsers)
	g.activeness = make([]float64, g.NumUsers)
	for u := 0; u < g.NumUsers; u++ {
		g.popularity[u] = math.Log1p(ratio(in[u], out[u]))
		g.activeness[u] = math.Log1p(ratio(retweets[u], len(g.userDocs[u])))
	}
	g.featsOK = true
}

func ratio(num, den int) float64 {
	if den == 0 {
		return float64(num)
	}
	return float64(num) / float64(den)
}

// Popularity returns user u's popularity feature.
func (g *Graph) Popularity(u int) float64 {
	g.buildFeatures()
	return g.popularity[u]
}

// Activeness returns user u's activeness feature.
func (g *Graph) Activeness(u int) float64 {
	g.buildFeatures()
	return g.activeness[u]
}

// PairFeatures fills dst (length FeatureDim) with f_uv = [pop(u), act(u),
// pop(v), act(v), 1] and returns it; if dst is nil a new slice is
// allocated.
func (g *Graph) PairFeatures(dst []float64, u, v int) []float64 {
	g.buildFeatures()
	if dst == nil {
		dst = make([]float64, FeatureDim)
	}
	dst[0] = g.popularity[u]
	dst[1] = g.activeness[u]
	dst[2] = g.popularity[v]
	dst[3] = g.activeness[v]
	dst[4] = 1
	return dst
}

// TimeBuckets maps each document's timestamp into nb equal-width buckets
// spanning [minTime, maxTime] and returns the per-document bucket ids plus
// the bucket count actually used (1 if all timestamps coincide). The
// topic-popularity factor n_tz counts topic assignments per bucket.
func (g *Graph) TimeBuckets(nb int) ([]int, int) {
	if nb < 1 {
		nb = 1
	}
	if len(g.Docs) == 0 {
		return nil, 1
	}
	minT, maxT := g.Docs[0].Time, g.Docs[0].Time
	for _, d := range g.Docs[1:] {
		if d.Time < minT {
			minT = d.Time
		}
		if d.Time > maxT {
			maxT = d.Time
		}
	}
	buckets := make([]int, len(g.Docs))
	if maxT == minT {
		return buckets, 1
	}
	span := float64(maxT - minT)
	for i, d := range g.Docs {
		b := int(float64(d.Time-minT) / span * float64(nb))
		if b >= nb {
			b = nb - 1
		}
		buckets[i] = b
	}
	return buckets, nb
}

// Package eval implements the paper's evaluation protocol (Sect. 6.1):
// AUC for link prediction, conductance for detection quality, mean average
// precision/recall/F1 at K for community ranking, perplexity for content
// profiles, k-fold link cross-validation and the paired one-tailed t-test
// used for significance claims.
package eval

import (
	"math"
	"sort"

	"repro/internal/mathx"
	"repro/internal/rng"
	"repro/internal/socialgraph"
)

// AUC returns the probability that a randomly chosen positive score ranks
// above a randomly chosen negative score (Mann–Whitney statistic), with
// ties counted half. It returns NaN if either side is empty.
func AUC(pos, neg []float64) float64 {
	if len(pos) == 0 || len(neg) == 0 {
		return math.NaN()
	}
	type scored struct {
		v     float64
		isPos bool
	}
	all := make([]scored, 0, len(pos)+len(neg))
	for _, v := range pos {
		all = append(all, scored{v, true})
	}
	for _, v := range neg {
		all = append(all, scored{v, false})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })
	// Average ranks with tie handling.
	var rankSumPos float64
	i := 0
	for i < len(all) {
		j := i
		for j < len(all) && all[j].v == all[i].v {
			j++
		}
		avgRank := float64(i+j+1) / 2 // 1-based average rank of the tie group
		for k := i; k < j; k++ {
			if all[k].isPos {
				rankSumPos += avgRank
			}
		}
		i = j
	}
	nPos, nNeg := float64(len(pos)), float64(len(neg))
	u := rankSumPos - nPos*(nPos+1)/2
	return u / (nPos * nNeg)
}

// Conductance returns the average conductance of the given community
// member sets over the friendship graph (undirected view):
// cut(S) / min(vol(S), vol(V∖S)). Communities that are empty or span the
// whole volume are skipped. Lower is better.
func Conductance(g *socialgraph.Graph, members [][]int) float64 {
	deg := make([]float64, g.NumUsers)
	var totalVol float64
	for _, f := range g.Friends {
		deg[f.U]++
		deg[f.V]++
		totalVol += 2
	}
	inSet := make([]bool, g.NumUsers)
	var sum float64
	var counted int
	for _, ms := range members {
		if len(ms) == 0 {
			continue
		}
		for _, u := range ms {
			inSet[u] = true
		}
		var vol, cut float64
		for _, u := range ms {
			vol += deg[u]
		}
		for _, f := range g.Friends {
			if inSet[f.U] != inSet[f.V] {
				cut += 1
			}
		}
		for _, u := range ms {
			inSet[u] = false
		}
		denom := math.Min(vol, totalVol-vol)
		if denom <= 0 {
			continue
		}
		sum += cut / denom
		counted++
	}
	if counted == 0 {
		return math.NaN()
	}
	return sum / float64(counted)
}

// KFold partitions [0, n) into k disjoint test folds after a seeded
// shuffle. Fold f's test set is folds[f]; its training set is everything
// else.
func KFold(n, k int, seed uint64) [][]int {
	if k < 2 {
		k = 2
	}
	if k > n {
		k = n
	}
	perm := rng.New(seed).Perm(n)
	folds := make([][]int, k)
	for i, idx := range perm {
		folds[i%k] = append(folds[i%k], idx)
	}
	return folds
}

// SplitByFold returns the train/test index sets for fold f.
func SplitByFold(folds [][]int, f int) (train, test []int) {
	for i, fold := range folds {
		if i == f {
			test = append(test, fold...)
		} else {
			train = append(train, fold...)
		}
	}
	return train, test
}

// PrecisionRecallAtK evaluates a ranked list of communities against a
// relevant-user set, per Sect. 6.1: P(K,q) = |U*_q ∩ U_K| / |U_K| and
// R(K,q) = |U*_q ∩ U_K| / |U*_q| where U_K is the union of users in the
// top-K communities. It returns P(i,q) and R(i,q) for i = 1..K.
func PrecisionRecallAtK(rankedMembers [][]int, relevant map[int]bool, K int) (prec, rec []float64) {
	if K > len(rankedMembers) {
		K = len(rankedMembers)
	}
	prec = make([]float64, K)
	rec = make([]float64, K)
	union := make(map[int]bool)
	hits := 0
	for i := 0; i < K; i++ {
		for _, u := range rankedMembers[i] {
			if !union[u] {
				union[u] = true
				if relevant[u] {
					hits++
				}
			}
		}
		if len(union) > 0 {
			prec[i] = float64(hits) / float64(len(union))
		}
		if len(relevant) > 0 {
			rec[i] = float64(hits) / float64(len(relevant))
		}
	}
	return prec, rec
}

// MAFCurve aggregates per-query precision/recall curves into MAP@K,
// MAR@K and MAF@K for K = 1..maxK (Sect. 6.1's definitions: averages of
// P(i,q) over i <= K, then over queries).
func MAFCurve(perQueryPrec, perQueryRec [][]float64, maxK int) (maps, mars, mafs []float64) {
	maps = make([]float64, maxK)
	mars = make([]float64, maxK)
	mafs = make([]float64, maxK)
	nq := len(perQueryPrec)
	if nq == 0 {
		return
	}
	for K := 1; K <= maxK; K++ {
		var mp, mr float64
		for q := 0; q < nq; q++ {
			var sp, sr float64
			for i := 0; i < K && i < len(perQueryPrec[q]); i++ {
				sp += perQueryPrec[q][i]
				sr += perQueryRec[q][i]
			}
			mp += sp / float64(K)
			mr += sr / float64(K)
		}
		mp /= float64(nq)
		mr /= float64(nq)
		maps[K-1] = mp
		mars[K-1] = mr
		if mp+mr > 0 {
			mafs[K-1] = 2 * mp * mr / (mp + mr)
		}
	}
	return
}

// Perplexity computes exp(-Σ log p(w|u) / N) over the documents, given a
// per-user-word probability function (the content-profile quality metric
// of Fig. 8).
func Perplexity(wordProb func(u int, w int32) float64, docs []socialgraph.Doc) float64 {
	var logLik float64
	var n int
	for _, d := range docs {
		for _, w := range d.Words {
			p := wordProb(int(d.User), w)
			if p <= 0 || math.IsNaN(p) {
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

// negativeDraws bounds the rejection sampling of n negative pairs: a graph
// with too few non-links (two users linked both ways, documents of one
// user only) yields fewer than n pairs instead of a loop that never ends.
func negativeDraws(n int) int { return 50*n + 100 }

// SampleNegativePairs draws up to n (u, v) user pairs that do not appear in
// the friendship link set (for friendship AUC) using rejection sampling; it
// gives up after negativeDraws(n) draws.
func SampleNegativePairs(g *socialgraph.Graph, n int, seed uint64) [][2]int {
	r := rng.New(seed)
	existing := make(map[int64]bool, len(g.Friends))
	for _, f := range g.Friends {
		existing[int64(f.U)*int64(g.NumUsers)+int64(f.V)] = true
	}
	out := make([][2]int, 0, n)
	for tries := 0; len(out) < n && tries < negativeDraws(n); tries++ {
		u := r.Intn(g.NumUsers)
		v := r.Intn(g.NumUsers)
		if u == v || existing[int64(u)*int64(g.NumUsers)+int64(v)] {
			continue
		}
		out = append(out, [2]int{u, v})
	}
	return out
}

// SampleNegativeDocPairs draws up to n (i, j) document pairs with distinct
// users that are not observed diffusion links (for diffusion AUC); it gives
// up after negativeDraws(n) draws.
func SampleNegativeDocPairs(g *socialgraph.Graph, n int, seed uint64) [][2]int {
	r := rng.New(seed)
	nd := len(g.Docs)
	existing := make(map[int64]bool, len(g.Diffs))
	for _, e := range g.Diffs {
		existing[int64(e.I)*int64(nd)+int64(e.J)] = true
	}
	out := make([][2]int, 0, n)
	for tries := 0; len(out) < n && tries < negativeDraws(n); tries++ {
		i := r.Intn(nd)
		j := r.Intn(nd)
		if i == j || g.Docs[i].User == g.Docs[j].User || existing[int64(i)*int64(nd)+int64(j)] {
			continue
		}
		out = append(out, [2]int{i, j})
	}
	return out
}

// NMI returns the normalized mutual information I(A;B)/sqrt(H(A)·H(B))
// between two hard labelings of the same items — the standard
// detection-vs-ground-truth agreement score the scenario regression suite
// applies to planted communities. It is symmetric, 1 for identical
// partitions (up to label renaming) and near 0 for independent ones.
// Degenerate cases follow the usual convention: two single-cluster
// labelings agree perfectly (1); if only one side is single-cluster the
// score is 0. An empty or mismatched pair returns NaN.
func NMI(a, b []int32) float64 {
	if len(a) == 0 || len(a) != len(b) {
		return math.NaN()
	}
	n := float64(len(a))
	countA := make(map[int32]float64)
	countB := make(map[int32]float64)
	joint := make(map[[2]int32]float64)
	for i := range a {
		countA[a[i]]++
		countB[b[i]]++
		joint[[2]int32{a[i], b[i]}]++
	}
	entropy := func(counts map[int32]float64) float64 {
		var h float64
		for _, c := range counts {
			p := c / n
			h -= p * math.Log(p)
		}
		return h
	}
	ha, hb := entropy(countA), entropy(countB)
	if ha == 0 && hb == 0 {
		return 1
	}
	if ha == 0 || hb == 0 {
		return 0
	}
	var mi float64
	for k, c := range joint {
		pxy := c / n
		px := countA[k[0]] / n
		py := countB[k[1]] / n
		mi += pxy * math.Log(pxy/(px*py))
	}
	return mi / math.Sqrt(ha*hb)
}

// PairedTTest re-exports the mathx paired one-tailed t-test for
// convenience in the experiment harness.
func PairedTTest(a, b []float64) (float64, error) {
	return mathx.PairedTTestOneTailed(a, b)
}

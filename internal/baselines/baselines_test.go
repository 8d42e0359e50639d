package baselines

import (
	"math"
	"sync"
	"testing"

	"repro/internal/eval"
	"repro/internal/lda"
	"repro/internal/socialgraph"
	"repro/internal/synth"
)

var (
	graphOnce sync.Once
	bGraph    *socialgraph.Graph
	bTruth    *synth.GroundTruth
)

func testGraph(t *testing.T) (*socialgraph.Graph, *synth.GroundTruth) {
	t.Helper()
	graphOnce.Do(func() {
		bGraph, bTruth = synth.Generate(synth.TwitterLike(200, 51))
	})
	return bGraph, bTruth
}

func diffusionAUC(t *testing.T, g *socialgraph.Graph, score func(g *socialgraph.Graph, i, j int) float64) float64 {
	t.Helper()
	var pos, neg []float64
	for k, e := range g.Diffs {
		if k%3 == 0 {
			pos = append(pos, score(g, int(e.I), int(e.J)))
		}
	}
	for _, p := range eval.SampleNegativeDocPairs(g, len(pos), 7) {
		neg = append(neg, score(g, p[0], p[1]))
	}
	return eval.AUC(pos, neg)
}

func checkMembership(t *testing.T, name string, membership func(u int) []float64, users, C int) {
	t.Helper()
	for u := 0; u < users; u += 13 {
		row := membership(u)
		if len(row) != C {
			t.Fatalf("%s: membership dim %d, want %d", name, len(row), C)
		}
		var s float64
		for _, v := range row {
			if v < 0 || math.IsNaN(v) {
				t.Fatalf("%s: bad membership value %v", name, v)
			}
			s += v
		}
		if math.Abs(s-1) > 1e-6 {
			t.Fatalf("%s: membership sums to %v", name, s)
		}
	}
}

func TestPMTLM(t *testing.T) {
	g, _ := testGraph(t)
	m := TrainPMTLM(g, PMTLMConfig{NumTopics: 10, LDAIters: 25, Seed: 1})
	checkMembership(t, "PMTLM", m.Membership, g.NumUsers, 10)
	for _, r := range m.etaZ {
		if r <= 0 || math.IsNaN(r) {
			t.Fatalf("bad eta rate %v", r)
		}
	}
	if auc := diffusionAUC(t, g, m.DiffusionScore); auc < 0.55 {
		t.Fatalf("PMTLM diffusion AUC = %v", auc)
	}
	if s := m.FriendshipScore(0, 1); s < 0 || math.IsNaN(s) {
		t.Fatalf("FriendshipScore = %v", s)
	}
}

func TestWTM(t *testing.T) {
	g, _ := testGraph(t)
	m := TrainWTM(g, WTMConfig{NumTopics: 10, LDAIters: 25, Seed: 2})
	if auc := diffusionAUC(t, g, m.DiffusionScore); auc < 0.6 {
		t.Fatalf("WTM diffusion AUC = %v (features should separate planted links)", auc)
	}
	for i, v := range m.w {
		if math.IsNaN(v) {
			t.Fatalf("weight %d is NaN", i)
		}
	}
}

func TestCRM(t *testing.T) {
	g, gt := testGraph(t)
	m := TrainCRM(g, CRMConfig{NumCommunities: 20, Iters: 30, Seed: 3})
	checkMembership(t, "CRM", m.Membership, g.NumUsers, 20)
	if m.pIn <= m.pOut {
		t.Fatalf("blockmodel rates inverted: in=%v out=%v", m.pIn, m.pOut)
	}
	// Detection should beat chance against the planted home communities:
	// measure argmax purity.
	counts := map[[2]int]int{}
	sizes := map[int]int{}
	for u := 0; u < g.NumUsers; u++ {
		row := m.Membership(u)
		best := 0
		for c := range row {
			if row[c] > row[best] {
				best = c
			}
		}
		counts[[2]int{best, int(gt.HomeCommunity[u])}]++
		sizes[best]++
	}
	pure := 0
	for c := range sizes {
		bestN := 0
		for k, v := range counts {
			if k[0] == c && v > bestN {
				bestN = v
			}
		}
		pure += bestN
	}
	if purity := float64(pure) / float64(g.NumUsers); purity < 0.3 {
		t.Fatalf("CRM purity = %v, want > 0.3 (chance ~0.15)", purity)
	}
	if auc := diffusionAUC(t, g, m.DiffusionScore); auc < 0.5 {
		t.Fatalf("CRM diffusion AUC = %v", auc)
	}
}

func TestCOLD(t *testing.T) {
	g, _ := testGraph(t)
	m, err := TrainCOLD(g, COLDConfig{NumCommunities: 10, NumTopics: 10, EMIters: 8, Workers: 1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	checkMembership(t, "COLD", m.Membership, g.NumUsers, 10)
	if !m.Model.Cfg.NoFriendship || !m.Model.Cfg.NoIndividual || !m.Model.Cfg.NoTopicPopularity {
		t.Fatal("COLD wrapper lost its restriction flags")
	}
	if auc := diffusionAUC(t, g, m.DiffusionScore); auc < 0.6 {
		t.Fatalf("COLD diffusion AUC = %v", auc)
	}
	if len(m.RankScores([]int32{0})) != 10 {
		t.Fatal("RankScores dim wrong")
	}
}

func TestAggregated(t *testing.T) {
	g, _ := testGraph(t)
	crm := TrainCRM(g, CRMConfig{NumCommunities: 10, Iters: 25, Seed: 5})
	docs := make([][]int32, len(g.Docs))
	for i := range g.Docs {
		docs[i] = g.Docs[i].Words
	}
	ldaM := lda.Train(docs, g.NumWords, lda.Config{NumTopics: 10, Iters: 25, Seed: 6})
	docTheta := make([][]float64, len(g.Docs))
	for i := range g.Docs {
		docTheta[i] = ldaM.DocTopics(i)
	}
	agg := Aggregate(g, crm.Pi, ldaM, docTheta)

	// Eq. 20 profiles are row-normalized distributions.
	for c := 0; c < agg.C; c++ {
		var s float64
		for z := 0; z < agg.Z; z++ {
			v := agg.ThetaStar.At(c, z)
			if v < 0 {
				t.Fatalf("negative theta* at (%d,%d)", c, z)
			}
			s += v
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("theta* row %d sums to %v", c, s)
		}
	}
	// Eq. 21 profiles are normalized per source community (or all-zero for
	// communities with no diffusion mass).
	for c := 0; c < agg.C; c++ {
		var s float64
		for c2 := 0; c2 < agg.C; c2++ {
			for z := 0; z < agg.Z; z++ {
				s += agg.EtaStar.At(c, c2, z)
			}
		}
		if s != 0 && math.Abs(s-1) > 1e-6 {
			t.Fatalf("eta* row %d sums to %v", c, s)
		}
	}
	if auc := diffusionAUC(t, g, agg.DiffusionScore); auc < 0.5 {
		t.Fatalf("aggregated diffusion AUC = %v", auc)
	}
	if len(agg.RankScores([]int32{0})) != agg.C {
		t.Fatal("RankScores dim wrong")
	}
}

func TestSampleNegDocPairsHelpers(t *testing.T) {
	g, _ := testGraph(t)
	pairs := sampleNegDocPairs(g, 50, 9)
	if len(pairs) != 50 {
		t.Fatalf("sampled %d pairs", len(pairs))
	}
	existing := map[[2]int]bool{}
	for _, e := range g.Diffs {
		existing[[2]int{int(e.I), int(e.J)}] = true
	}
	for _, p := range pairs {
		if existing[p] || g.Docs[p[0]].User == g.Docs[p[1]].User {
			t.Fatalf("bad negative pair %v", p)
		}
	}
}

func TestCommonNeighbors(t *testing.T) {
	g := &socialgraph.Graph{NumUsers: 4, NumWords: 1,
		Docs: []socialgraph.Doc{{User: 0, Words: []int32{0}}},
		Friends: []socialgraph.FriendLink{
			{U: 0, V: 2}, {U: 1, V: 2}, {U: 0, V: 3}, {U: 1, V: 3}, {U: 0, V: 1},
		}}
	if got := commonNeighbors(g, 0, 1); got != 2 {
		t.Fatalf("commonNeighbors = %d, want 2", got)
	}
	if friendIndicator(g, 0, 1) != 1 || friendIndicator(g, 2, 3) != 0 {
		t.Fatal("friendIndicator wrong")
	}
}

func TestCosine(t *testing.T) {
	if got := cosine([]float64{1, 0}, []float64{1, 0}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("cosine = %v", got)
	}
	if got := cosine([]float64{1, 0}, []float64{0, 1}); got != 0 {
		t.Fatalf("orthogonal cosine = %v", got)
	}
	if got := cosine([]float64{0, 0}, []float64{1, 1}); got != 0 {
		t.Fatalf("zero-vector cosine = %v", got)
	}
}

package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro/internal/eval"
	"repro/internal/socialgraph"
	"repro/internal/synth"
)

// trainSmall trains a small model for model-level tests.
func trainSmall(t *testing.T, mod func(*Config)) (*socialgraph.Graph, *Model) {
	t.Helper()
	g := testGraph(150, 11)
	cfg := Config{
		NumCommunities: 10, NumTopics: 12, EMIters: 10, Workers: 1,
		Seed: 5, Rho: 0.1,
	}
	if mod != nil {
		mod(&cfg)
	}
	m, _, err := Train(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g, m
}

func modelAUCs(g *socialgraph.Graph, m *Model) (fAUC, dAUC float64) {
	var pos, neg []float64
	for k, f := range g.Friends {
		if k%3 == 0 {
			pos = append(pos, m.FriendshipProb(int(f.U), int(f.V)))
		}
	}
	for _, p := range eval.SampleNegativePairs(g, len(pos), 99) {
		neg = append(neg, m.FriendshipProb(p[0], p[1]))
	}
	fAUC = eval.AUC(pos, neg)
	pos, neg = nil, nil
	for k, e := range g.Diffs {
		if k%3 == 0 {
			pos = append(pos, m.DiffusionProb(g, int(g.Docs[e.I].User), int(e.J), m.DocBucket[e.I]))
		}
	}
	for _, p := range eval.SampleNegativeDocPairs(g, len(pos), 77) {
		neg = append(neg, m.DiffusionProb(g, int(g.Docs[p[0]].User), p[1], m.DocBucket[p[0]]))
	}
	dAUC = eval.AUC(pos, neg)
	return
}

func TestTrainLearnsPlantedStructure(t *testing.T) {
	g, m := trainSmall(t, nil)
	fAUC, dAUC := modelAUCs(g, m)
	if fAUC < 0.6 {
		t.Errorf("friendship AUC = %v, want >= 0.6", fAUC)
	}
	if dAUC < 0.7 {
		t.Errorf("diffusion AUC = %v, want >= 0.7", dAUC)
	}
}

func TestModelDistributionsNormalized(t *testing.T) {
	_, m := trainSmall(t, nil)
	for u := 0; u < m.NumUsers; u += 17 {
		var s float64
		for _, v := range m.Pi.Row(u) {
			if v <= 0 {
				t.Fatalf("pi[%d] has non-positive entry", u)
			}
			s += v
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("pi[%d] sums to %v", u, s)
		}
	}
	for c := 0; c < m.Cfg.NumCommunities; c++ {
		var s float64
		for _, v := range m.Theta.Row(c) {
			s += v
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("theta[%d] sums to %v", c, s)
		}
	}
	for z := 0; z < m.Cfg.NumTopics; z++ {
		var s float64
		for _, v := range m.Phi.Row(z) {
			s += v
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("phi[%d] sums to %v", z, s)
		}
	}
}

func TestDeterministicTraining(t *testing.T) {
	g := testGraph(80, 13)
	cfg := Config{NumCommunities: 6, NumTopics: 8, EMIters: 5, Workers: 1, Seed: 42, Rho: 0.2}
	m1, _, err := Train(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Fresh copy of the same graph (indexes rebuilt) and same seed.
	g2 := testGraph(80, 13)
	m2, _, err := Train(g2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m1.DocCommunity {
		if m1.DocCommunity[i] != m2.DocCommunity[i] || m1.DocTopic[i] != m2.DocTopic[i] {
			t.Fatalf("serial training not deterministic at doc %d", i)
		}
	}
	for i := range m1.Nu {
		if m1.Nu[i] != m2.Nu[i] {
			t.Fatalf("nu differs: %v vs %v", m1.Nu, m2.Nu)
		}
	}
}

func TestParallelMatchesSerialQuality(t *testing.T) {
	g := testGraph(150, 14)
	cfg := Config{NumCommunities: 8, NumTopics: 10, EMIters: 8, Seed: 6, Rho: 0.125}
	cfg.Workers = 1
	mS, _, err := Train(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 2
	mP, diag, err := Train(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if diag.Segments == 0 {
		t.Fatal("parallel run reported no segments")
	}
	if len(diag.WorkerActual) != 2 || len(diag.WorkerEstimated) != 2 {
		t.Fatalf("worker diagnostics missing: %+v", diag)
	}
	fS, dS := modelAUCs(g, mS)
	fP, dP := modelAUCs(g, mP)
	if math.Abs(fS-fP) > 0.12 || math.Abs(dS-dP) > 0.12 {
		t.Fatalf("parallel quality diverges: serial (%.3f, %.3f) vs parallel (%.3f, %.3f)", fS, dS, fP, dP)
	}
}

func TestHeterogeneityAblationHurtsDiffusion(t *testing.T) {
	g, full := trainSmall(t, nil)
	_, noHet := trainSmall(t, func(c *Config) { c.NoHeterogeneity = true })
	_, dFull := modelAUCs(g, full)
	_, dNoHet := modelAUCs(g, noHet)
	if dNoHet >= dFull {
		t.Fatalf("no-heterogeneity dAUC %v >= full %v (planted data has heterogeneous diffusion)", dNoHet, dFull)
	}
}

func TestNoJointModelingRuns(t *testing.T) {
	g, m := trainSmall(t, func(c *Config) { c.NoJointModeling = true; c.EMIters = 6 })
	// Phase 2 freezes communities per user: all of a user's docs share one.
	for u := 0; u < g.NumUsers; u++ {
		docs := g.UserDocs(u)
		for _, d := range docs[1:] {
			if m.DocCommunity[d] != m.DocCommunity[docs[0]] {
				t.Fatalf("no-joint user %d docs in different communities", u)
			}
		}
	}
	fAUC, dAUC := modelAUCs(g, m)
	if fAUC < 0.55 || dAUC < 0.6 {
		t.Fatalf("no-joint model too weak: fAUC=%v dAUC=%v", fAUC, dAUC)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	g, m := trainSmall(t, nil)
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(m); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Predictions must be identical after the round trip.
	for u := 0; u < 20; u++ {
		if got, want := m2.FriendshipProb(u, u+1), m.FriendshipProb(u, u+1); math.Abs(got-want) > 1e-9 {
			t.Fatalf("FriendshipProb differs after load: %v vs %v", got, want)
		}
	}
	for j := 0; j < 10; j++ {
		got := m2.DiffusionProb(g, 0, j+1, 0)
		want := m.DiffusionProb(g, 0, j+1, 0)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("DiffusionProb differs after load: %v vs %v", got, want)
		}
	}
	s1 := m.RankCommunities([]int32{0, 1})
	s2 := m2.RankCommunities([]int32{0, 1})
	for c := range s1 {
		if math.Abs(s1[c]-s2[c]) > 1e-9 {
			t.Fatalf("RankCommunities differs after load")
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Load(bytes.NewBufferString("{}")); err == nil {
		t.Fatal("empty model accepted")
	}
}

func TestPredictionRanges(t *testing.T) {
	g, m := trainSmall(t, nil)
	for i := 0; i < 20; i++ {
		p := m.DiffusionProb(g, i, i+1, 0)
		if p < 0 || p > 1 || math.IsNaN(p) {
			t.Fatalf("DiffusionProb = %v", p)
		}
		q := m.FriendshipProb(i, i+1)
		if q < 0 || q > 1 || math.IsNaN(q) {
			t.Fatalf("FriendshipProb = %v", q)
		}
	}
	// DocTopicDist is a distribution.
	pz := m.DocTopicDist(g.Docs[0].Words, int(g.Docs[0].User))
	var s float64
	for _, p := range pz {
		if p < 0 {
			t.Fatalf("negative topic prob")
		}
		s += p
	}
	if math.Abs(s-1) > 1e-9 {
		t.Fatalf("DocTopicDist sums to %v", s)
	}
}

func TestTopCommunitiesAndMembers(t *testing.T) {
	_, m := trainSmall(t, nil)
	top := m.TopCommunities(0, 3)
	if len(top) != 3 {
		t.Fatalf("TopCommunities returned %d", len(top))
	}
	row := m.Pi.Row(0)
	if row[top[0]] < row[top[1]] || row[top[1]] < row[top[2]] {
		t.Fatalf("TopCommunities not descending: %v", top)
	}
	members := m.CommunityMembers(5)
	if len(members) != m.Cfg.NumCommunities {
		t.Fatalf("CommunityMembers length %d", len(members))
	}
	var total int
	for _, ms := range members {
		total += len(ms)
	}
	if total != m.NumUsers*5 {
		t.Fatalf("top-5 membership total %d, want %d", total, m.NumUsers*5)
	}
}

func TestCOLDStyleNoFriendship(t *testing.T) {
	g, m := trainSmall(t, func(c *Config) { c.NoFriendship = true; c.NoIndividual = true; c.NoTopicPopularity = true })
	_, dAUC := modelAUCs(g, m)
	if dAUC < 0.6 {
		t.Fatalf("COLD-style model dAUC = %v", dAUC)
	}
}

func TestTrainOnDBLPPreset(t *testing.T) {
	g, _ := synth.Generate(synth.DBLPLike(200, 21))
	m, _, err := Train(g, Config{NumCommunities: 10, NumTopics: 12, EMIters: 10, Workers: 1, Seed: 2, Rho: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	fAUC, dAUC := modelAUCs(g, m)
	if fAUC < 0.6 || dAUC < 0.65 {
		t.Fatalf("DBLP-like quality too low: fAUC=%v dAUC=%v", fAUC, dAUC)
	}
}

// modelDigest is an FNV-64a over the little-endian bits of Π, Θ, Φ and η,
// in that order: the digest cpd-bench's train workload prints for each
// sampler.
func modelDigest(m *Model) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, block := range [][]float64{m.Pi.Data, m.Theta.Data, m.Phi.Data, m.Eta.Data} {
		for _, v := range block {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// TestTrainDigestsPinned pins both samplers' trained models at the shape
// of cpd-bench's train workload — TwitterLike(150, 99), |C| = |Z| = 50,
// seed 42, 8 exact and 20 alias EM iterations — for one and for two
// workers. A kernel change that is meant to be bit-identical must leave
// both digests as they are. The pins are amd64's: where the compiler
// fuses multiply-adds the bits legitimately differ.
func TestTrainDigestsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned for amd64, not %s", runtime.GOARCH)
	}
	g, _ := synth.Generate(synth.TwitterLike(150, 99))
	for _, tc := range []struct {
		sampler string
		iters   int
		digest  uint64
	}{
		{SamplerExact, 8, 0x3ba65658cda4b3a8},
		{SamplerAlias, 20, 0xbb670ab034554af3},
	} {
		for _, workers := range []int{1, 2} {
			m, _, err := Train(g, Config{
				NumCommunities: 50, NumTopics: 50, Workers: workers,
				Seed: 42, Sampler: tc.sampler, EMIters: tc.iters,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := modelDigest(m); got != tc.digest {
				t.Errorf("%s sampler, %d workers: digest %016x, pinned %016x", tc.sampler, workers, got, tc.digest)
			}
		}
	}
}

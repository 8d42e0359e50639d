package core

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/socialgraph"
	"repro/internal/sparse"
	"repro/internal/synth"
)

func testGraph(users int, seed uint64) *socialgraph.Graph {
	g, _ := synth.Generate(synth.TwitterLike(users, seed))
	return g
}

func testConfig() Config {
	return Config{
		NumCommunities: 8, NumTopics: 10, EMIters: 5, Workers: 1,
		Seed: 3, Rho: 0.125, WarmStartSweeps: 3,
	}
}

// checkCounters verifies every counter table against a recount from the
// raw assignments — the core Gibbs invariant.
func checkCounters(t *testing.T, st *state) {
	t.Helper()
	cfg := st.cfg
	nCZ := sparse.NewDense(cfg.NumCommunities, cfg.NumTopics)
	nZW := sparse.NewDense(cfg.NumTopics, st.g.NumWords)
	nTZ := sparse.NewDense(st.nTZ.rows, cfg.NumTopics)
	for i, d := range st.g.Docs {
		c, z := int(st.docC[i]), int(st.docZ[i])
		nCZ.Add(c, z, 1)
		for _, w := range d.Words {
			nZW.Add(z, int(w), 1)
		}
		nTZ.Add(st.docBucket[i], z, 1)
	}
	for c := 0; c < cfg.NumCommunities; c++ {
		var rowSum float64
		for z := 0; z < cfg.NumTopics; z++ {
			if got := float64(st.nCZ.at(c, z)); got != nCZ.At(c, z) {
				t.Fatalf("nCZ[%d][%d] = %v, recount %v", c, z, got, nCZ.At(c, z))
			}
			rowSum += nCZ.At(c, z)
		}
		if got := float64(st.nCT.at(c)); got != rowSum {
			t.Fatalf("nCT[%d] = %v, recount %v", c, got, rowSum)
		}
	}
	if st.nZW.rows != st.g.NumWords || st.nZW.cols != cfg.NumTopics {
		t.Fatalf("nZW is %d x %d, want words x topics = %d x %d", st.nZW.rows, st.nZW.cols, st.g.NumWords, cfg.NumTopics)
	}
	for z := 0; z < cfg.NumTopics; z++ {
		var rowSum float64
		for w := 0; w < st.g.NumWords; w++ {
			// The sampler keeps n_z^w word-major: row w, column z.
			if got := float64(st.nZW.at(w, z)); got != nZW.At(z, w) {
				t.Fatalf("nZW[%d][%d] = %v, recount %v", z, w, got, nZW.At(z, w))
			}
			rowSum += nZW.At(z, w)
		}
		if got := float64(st.nZT.at(z)); got != rowSum {
			t.Fatalf("nZT[%d] = %v, recount %v", z, got, rowSum)
		}
	}
	for b := 0; b < st.nTZ.rows; b++ {
		for z := 0; z < cfg.NumTopics; z++ {
			if got := float64(st.nTZ.at(b, z)); got != nTZ.At(b, z) {
				t.Fatalf("nTZ[%d][%d] = %v, recount %v", b, z, got, nTZ.At(b, z))
			}
		}
	}
}

func TestCountersConsistentAfterSweeps(t *testing.T) {
	g := testGraph(80, 1)
	cfg := testConfig().withDefaults()
	st := newState(g, cfg)
	checkCounters(t, st)
	sc := newScratch(cfg, rng.New(9))
	for i := 0; i < 3; i++ {
		st.refreshCaches()
		st.sweepSerial(sc)
	}
	checkCounters(t, st)
	// Block moves preserve the invariant too.
	st.contentOn = false
	st.sweepSerial(sc)
	checkCounters(t, st)
}

func TestPiHatMatchesBruteForce(t *testing.T) {
	g := testGraph(50, 2)
	cfg := testConfig().withDefaults()
	st := newState(g, cfg)
	sc := newScratch(cfg, rng.New(1))
	var sv sparse.SmoothedVec
	var idx []int32
	var val []float64
	for u := 0; u < g.NumUsers; u += 7 {
		st.piHat(int32(u), -1, &sv, &idx, &val, sc)
		dense := sv.Dense()
		var sum float64
		for c := 0; c < cfg.NumCommunities; c++ {
			want := st.piHatAt(int32(u), int32(c))
			if math.Abs(dense[c]-want) > 1e-12 {
				t.Fatalf("piHat[%d][%d] = %v, want %v", u, c, dense[c], want)
			}
			sum += dense[c]
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("piHat[%d] sums to %v", u, sum)
		}
	}
	// Exclusion removes exactly one count.
	u := int(g.Docs[0].User)
	d := int32(0)
	st.piHat(int32(u), d, &sv, &idx, &val, sc)
	exclSum := sv.Base*float64(cfg.NumCommunities) + sv.ResidualSum()
	den := st.piHatDen(int32(u))
	if math.Abs(exclSum-(1-1/den)) > 1e-9 {
		t.Fatalf("excluded piHat sums to %v, want %v", exclSum, 1-1/den)
	}
}

func TestBlockMoveAlignsUserDocs(t *testing.T) {
	g := testGraph(60, 3)
	cfg := testConfig().withDefaults()
	st := newState(g, cfg)
	sc := newScratch(cfg, rng.New(5))
	for u := 0; u < g.NumUsers; u++ {
		st.sampleUserCommunityBlock(int32(u), sc)
		docs := g.UserDocs(u)
		for _, d := range docs[1:] {
			if st.docC[d] != st.docC[docs[0]] {
				t.Fatalf("user %d docs not aligned after block move", u)
			}
		}
	}
	checkCounters(t, st)
}

func TestEtaNormalizedAfterMStep(t *testing.T) {
	g := testGraph(60, 4)
	cfg := testConfig().withDefaults()
	st := newState(g, cfg)
	st.mStepEta()
	C, Z := cfg.NumCommunities, cfg.NumTopics
	for c := 0; c < C; c++ {
		var s float64
		for c2 := 0; c2 < C; c2++ {
			for z := 0; z < Z; z++ {
				v := st.eta.At(c, c2, z)
				if v <= 0 {
					t.Fatalf("eta[%d][%d][%d] = %v, want > 0 (smoothed)", c, c2, z, v)
				}
				s += v
			}
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("eta row %d sums to %v", c, s)
		}
	}
}

func TestNuStaysZeroWhenDisabled(t *testing.T) {
	g := testGraph(60, 5)
	cfg := testConfig()
	cfg.NoIndividual = true
	m, _, err := Train(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range m.Nu {
		if w != 0 {
			t.Fatalf("Nu trained despite NoIndividual: %v", m.Nu)
		}
	}
}

func TestDiffusionArgFinite(t *testing.T) {
	g := testGraph(60, 6)
	cfg := testConfig().withDefaults()
	st := newState(g, cfg)
	sc := newScratch(cfg, rng.New(2))
	for e := range g.Diffs {
		x := st.diffusionArg(e, sc)
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatalf("diffusionArg(%d) = %v", e, x)
		}
	}
}

func TestNegFriendSampling(t *testing.T) {
	g := testGraph(60, 7)
	cfg := testConfig().withDefaults()
	st := newState(g, cfg)
	if len(st.negFriends) == 0 {
		t.Fatal("no negative friendship pairs sampled")
	}
	existing := map[int64]bool{}
	for _, f := range g.Friends {
		existing[int64(f.U)*int64(g.NumUsers)+int64(f.V)] = true
	}
	for _, f := range st.negFriends {
		if f.U == f.V {
			t.Fatal("negative pair is a self-loop")
		}
		if existing[int64(f.U)*int64(g.NumUsers)+int64(f.V)] {
			t.Fatal("negative pair is an observed link")
		}
	}
	// Disabled by -1.
	cfg2 := testConfig()
	cfg2.NegFriendPerPos = -1
	st2 := newState(g, cfg2.withDefaults())
	if len(st2.negFriends) != 0 {
		t.Fatal("NegFriendPerPos=-1 still sampled negatives")
	}
}

func TestConfigValidation(t *testing.T) {
	g := testGraph(30, 8)
	if _, _, err := Train(g, Config{NumCommunities: 0, NumTopics: 5}); err == nil {
		t.Fatal("accepted zero communities")
	}
	if _, _, err := Train(g, Config{NumCommunities: 5, NumTopics: 0}); err == nil {
		t.Fatal("accepted zero topics")
	}
	if _, _, err := Train(g, Config{NumCommunities: 5, NumTopics: 5, Workers: -1}); err == nil {
		t.Fatal("accepted negative workers")
	}
	empty := &socialgraph.Graph{NumUsers: 2, NumWords: 3}
	if _, _, err := Train(empty, testConfig()); err == nil {
		t.Fatal("accepted empty graph")
	}
	bad := testGraph(30, 9)
	bad.Friends = append(bad.Friends, socialgraph.FriendLink{U: 0, V: 9999})
	if _, _, err := Train(bad, testConfig()); err == nil {
		t.Fatal("accepted invalid graph")
	}
}

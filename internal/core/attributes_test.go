package core

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/sparse"
	"repro/internal/synth"
)

func TestAttributeExtensionTrains(t *testing.T) {
	cfg := synth.TwitterLike(250, 61)
	cfg.AttrVocab = 60
	cfg.AttrsPerUserMean = 4
	g, gt := synth.Generate(cfg)
	// Matching the planted community count keeps learned communities from
	// merging attribute blocks, which is what the coherence check relies
	// on.
	m, _, err := Train(g, Config{
		NumCommunities: 20, NumTopics: 25, EMIters: 15, Workers: 1,
		Seed: 6, Rho: 0.05, ModelAttributes: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Xi == nil || m.NumAttrs != 60 {
		t.Fatal("attribute profiles missing")
	}
	// Rows are distributions.
	for c := 0; c < 20; c++ {
		var s float64
		for _, v := range m.Xi.Row(c) {
			if v <= 0 {
				t.Fatalf("xi[%d] has non-positive entry", c)
			}
			s += v
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("xi[%d] sums to %v", c, s)
		}
	}
	// Attribute coherence: planted attributes are block-anchored per
	// ground-truth community, so a learned community's top attributes
	// should cluster in one planted block far more often than chance.
	// Small (Zipf-tail) communities carry too few attribute tokens to
	// judge, so check the ten largest learned communities.
	sizes := make([]float64, 20)
	for u := 0; u < m.NumUsers; u++ {
		sizes[m.TopCommunity(u)]++
	}
	big := make(map[int]bool)
	for _, c := range topIdx(sizes, 10) {
		big[c] = true
	}
	block := cfg.AttrVocab / cfg.Communities
	coherent, judged := 0, 0
	for c := 0; c < 20; c++ {
		if !big[c] {
			continue
		}
		judged++
		tops := m.TopAttributes(c, 4)
		blocks := map[int]int{}
		for _, a := range tops {
			blocks[a/block]++
		}
		best := 0
		for _, n := range blocks {
			if n > best {
				best = n
			}
		}
		if best >= 3 {
			coherent++
		}
	}
	// Chance level for 3-of-4 same block is ~1.5%; majority coherence is a
	// strong recovery signal.
	if coherent*2 < judged+1 {
		t.Fatalf("only %d/%d large communities have coherent attribute profiles", coherent, judged)
	}
	_ = gt

	// The JSON reader keeps Xi.
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(m); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Xi == nil || m2.Xi.At(0, 0) != m.Xi.At(0, 0) {
		t.Fatal("Xi lost in round trip")
	}
}

func TestAttributeCountersConsistent(t *testing.T) {
	cfg := synth.TwitterLike(80, 62)
	cfg.AttrVocab = 40
	cfg.AttrsPerUserMean = 2
	g, _ := synth.Generate(cfg)
	tc := testConfig()
	tc.ModelAttributes = true
	conf := tc.withDefaults()
	st := newState(g, conf)
	if !st.attrOn {
		t.Fatal("attribute state not enabled")
	}
	sc := newScratch(conf, rng.New(3))
	for i := 0; i < 3; i++ {
		st.refreshCaches()
		st.sweepSerial(sc)
	}
	// Recount nCA from assignments.
	recount := make(map[[2]int]int64)
	var total int64
	for u := 0; u < g.NumUsers; u++ {
		for k, a := range g.Attrs[u] {
			recount[[2]int{int(st.attrC[u][k]), int(a)}]++
			total++
		}
	}
	for c := 0; c < conf.NumCommunities; c++ {
		var rowSum int64
		for a := 0; a < g.NumAttrs; a++ {
			want := recount[[2]int{c, a}]
			if got := st.nCA.at(c, a); got != want {
				t.Fatalf("nCA[%d][%d] = %d, recount %d", c, a, got, want)
			}
			rowSum += want
		}
		if got := st.nCATot.at(c); got != rowSum {
			t.Fatalf("nCATot[%d] = %d, recount %d", c, got, rowSum)
		}
	}
	if total == 0 {
		t.Fatal("no attribute tokens in test graph")
	}
	// Doc counters stay consistent too with attributes enabled.
	checkCounters(t, st)
}

func TestAttributesInformPiHat(t *testing.T) {
	cfg := synth.TwitterLike(60, 63)
	cfg.AttrVocab = 40
	cfg.AttrsPerUserMean = 3
	g, _ := synth.Generate(cfg)
	tc := testConfig()
	tc.ModelAttributes = true
	conf := tc.withDefaults()
	st := newState(g, conf)
	// Denominator counts docs + attrs.
	u := int32(0)
	wantDen := float64(st.nDoc[0]+st.nAttr[0]) + float64(conf.NumCommunities)*conf.Rho
	if got := st.piHatDen(u); got != wantDen {
		t.Fatalf("piHatDen = %v, want %v", got, wantDen)
	}
	// piHat total mass is 1.
	sc := newScratch(conf, rng.New(4))
	var sv sparse.SmoothedVec
	var idx []int32
	var val []float64
	st.piHat(u, -1, &sv, &idx, &val, sc)
	sum := sv.Base*float64(conf.NumCommunities) + sv.ResidualSum()
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("attributed piHat sums to %v", sum)
	}
}

func TestAttributesRejectedWithNoJoint(t *testing.T) {
	cfg := synth.TwitterLike(60, 64)
	cfg.AttrVocab = 20
	g, _ := synth.Generate(cfg)
	_, _, err := Train(g, Config{
		NumCommunities: 5, NumTopics: 5, EMIters: 2,
		ModelAttributes: true, NoJointModeling: true,
	})
	if err == nil {
		t.Fatal("ModelAttributes + NoJointModeling accepted")
	}
}

func TestAttributesIgnoredWithoutFlag(t *testing.T) {
	cfg := synth.TwitterLike(60, 65)
	cfg.AttrVocab = 20
	g, _ := synth.Generate(cfg)
	m, _, err := Train(g, Config{
		NumCommunities: 5, NumTopics: 5, EMIters: 3, Workers: 1, Seed: 1, Rho: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Xi != nil {
		t.Fatal("Xi built without ModelAttributes")
	}
}

func TestAttributeParallelMatchesSerial(t *testing.T) {
	cfg := synth.TwitterLike(120, 66)
	cfg.AttrVocab = 40
	cfg.AttrsPerUserMean = 3
	g, _ := synth.Generate(cfg)
	base := Config{
		NumCommunities: 8, NumTopics: 10, EMIters: 6, Seed: 2, Rho: 0.125,
		ModelAttributes: true,
	}
	base.Workers = 1
	mS, _, err := Train(g, base)
	if err != nil {
		t.Fatal(err)
	}
	base.Workers = 2
	mP, _, err := Train(g, base)
	if err != nil {
		t.Fatal(err)
	}
	if mS.Xi == nil || mP.Xi == nil {
		t.Fatal("Xi missing")
	}
}

// topIdx returns the indices of the k largest values.
func topIdx(xs []float64, k int) []int {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k && i < len(idx); i++ {
		best := i
		for j := i + 1; j < len(idx); j++ {
			if xs[idx[j]] > xs[idx[best]] {
				best = j
			}
		}
		idx[i], idx[best] = idx[best], idx[i]
	}
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}

package apps

import (
	"bytes"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/socialgraph"
	"repro/internal/sparse"
	"repro/internal/synth"
)

var (
	testOnce  sync.Once
	testModel *core.Model
	testGraph *socialgraph.Graph
	testVocab *corpus.Vocabulary
)

// sharedModel trains one small model for all app tests.
func sharedModel(t *testing.T) (*core.Model, *socialgraph.Graph, *corpus.Vocabulary) {
	t.Helper()
	testOnce.Do(func() {
		cfg := synth.TwitterLike(150, 31)
		g, _ := synth.Generate(cfg)
		m, _, err := core.Train(g, core.Config{
			NumCommunities: 8, NumTopics: 10, EMIters: 8, Workers: 1,
			Seed: 4, Rho: 0.125,
		})
		if err != nil {
			panic(err)
		}
		testModel, testGraph, testVocab = m, g, synth.BuildVocabulary(cfg)
	})
	return testModel, testGraph, testVocab
}

func TestRankCommunitiesOrdering(t *testing.T) {
	m, _, _ := sharedModel(t)
	ranked := RankCommunities(m, []int32{0, 1})
	if len(ranked) != m.Cfg.NumCommunities {
		t.Fatalf("ranked %d communities", len(ranked))
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i-1].Score < ranked[i].Score {
			t.Fatalf("ranking not descending at %d", i)
		}
	}
}

func TestRankCommunitiesText(t *testing.T) {
	m, _, v := sharedModel(t)
	p := corpus.Pipeline{MinDocTokens: 1}
	ranked, err := RankCommunitiesText(m, v, p, v.Word(0)+" "+v.Word(1))
	if err != nil || len(ranked) == 0 {
		t.Fatalf("RankCommunitiesText: %v", err)
	}
	if _, err := RankCommunitiesText(m, v, p, "zzz-not-a-word"); err == nil {
		t.Fatal("unknown-word query accepted")
	}
}

func TestDiffusionProbDelegates(t *testing.T) {
	m, g, _ := sharedModel(t)
	p := DiffusionProb(m, g, 1, 0, m.DocBucket[0])
	if p < 0 || p > 1 {
		t.Fatalf("DiffusionProb = %v", p)
	}
	if p != m.DiffusionProb(g, 1, 0, m.DocBucket[0]) {
		t.Fatal("wrapper differs from model method")
	}
}

func TestBuildDiffusionGraphFilter(t *testing.T) {
	m, _, v := sharedModel(t)
	for _, z := range []int{-1, 0} {
		dg := BuildDiffusionGraph(m, v, z)
		if len(dg.Edges) == 0 {
			t.Fatalf("topic %d: no edges", z)
		}
		// All kept edges exceed the mean strength.
		var total float64
		C := m.Cfg.NumCommunities
		for a := 0; a < C; a++ {
			for b := 0; b < C; b++ {
				if z < 0 {
					for zz := 0; zz < m.Cfg.NumTopics; zz++ {
						total += m.Eta.At(a, b, zz)
					}
				} else {
					total += m.Eta.At(a, b, z)
				}
			}
		}
		mean := total / float64(C*C)
		for _, e := range dg.Edges {
			if e.Strength <= mean {
				t.Fatalf("edge below mean kept: %v <= %v", e.Strength, mean)
			}
		}
		// Sorted descending.
		for i := 1; i < len(dg.Edges); i++ {
			if dg.Edges[i-1].Strength < dg.Edges[i].Strength {
				t.Fatal("edges not sorted")
			}
		}
	}
}

func TestWriteDOT(t *testing.T) {
	m, _, v := sharedModel(t)
	dg := BuildDiffusionGraph(m, v, -1)
	var buf bytes.Buffer
	if err := dg.WriteDOT(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.HasPrefix(s, "digraph diffusion {") || !strings.HasSuffix(strings.TrimSpace(s), "}") {
		t.Fatalf("malformed DOT:\n%s", s)
	}
	if !strings.Contains(s, "->") {
		t.Fatal("DOT has no edges")
	}
}

func TestCommunityLabel(t *testing.T) {
	m, _, v := sharedModel(t)
	if got := CommunityLabel(m, nil, 3, 2); got != "c03" {
		t.Fatalf("nil-vocab label = %q", got)
	}
	got := CommunityLabel(m, v, 0, 3)
	if len(strings.Fields(got)) != 3 {
		t.Fatalf("label = %q, want 3 words", got)
	}
}

func TestOpenness(t *testing.T) {
	m, _, _ := sharedModel(t)
	open := Openness(m)
	if len(open) != m.Cfg.NumCommunities {
		t.Fatalf("openness length %d", len(open))
	}
	var total int
	for _, o := range open {
		if o < 0 {
			t.Fatal("negative openness")
		}
		total += o
	}
	if total == 0 {
		t.Fatal("no inter-community flows at all")
	}
}

func TestTopDiffusionTopics(t *testing.T) {
	m, _, _ := sharedModel(t)
	for a := 0; a < m.Cfg.NumCommunities; a++ {
		base := EtaBase(m, a)
		for b := 0; b < m.Cfg.NumCommunities; b++ {
			all := TopDiffusionTopics(m, a, b, 99)
			supported := 0
			for z := 0; z < m.Cfg.NumTopics; z++ {
				if v := m.Eta.At(a, b, z); v < base {
					t.Fatalf("η cell (%d, %d, %d) = %g lies below the row's base %g", a, b, z, v, base)
				} else if v != base {
					supported++
				}
			}
			if len(all) != supported {
				t.Fatalf("c%d -> c%d: %d topics listed, %d cells above the base", a, b, len(all), supported)
			}
			for i := 1; i < len(all); i++ {
				if all[i-1].Score < all[i].Score || all[i-1].Score == all[i].Score && all[i-1].Community > all[i].Community {
					t.Fatalf("c%d -> c%d: topics not ordered by strength, then id: %+v", a, b, all)
				}
			}
			if top := TopDiffusionTopics(m, a, b, 2); len(top) != min(2, supported) {
				t.Fatalf("c%d -> c%d: k = 2 listed %d of %d", a, b, len(top), supported)
			}
		}
	}
}

// etaFromLinks builds η the way the M-step does (core/mstep.go): link
// counts per (c, c', z), smoothed by 0.05 per cell and normalized per
// source community c.
func etaFromLinks(C, Z int, links map[[3]int]float64) *sparse.Tensor3 {
	eta := sparse.NewTensor3(C, C, Z)
	for cell, n := range links {
		eta.Set(cell[0], cell[1], cell[2], n)
	}
	for c := 0; c < C; c++ {
		row := eta.Data[c*C*Z : (c+1)*C*Z]
		total := 0.0
		for _, n := range row {
			total += n
		}
		den := total + 0.05*float64(C*Z)
		for i := range row {
			row[i] = (row[i] + 0.05) / den
		}
	}
	return eta
}

// TestTopDiffusionTopicsSkipsBase: a pair no diffusion link supports
// lists nothing — not its base-valued ties — and a supported pair lists
// exactly its supported topics, ties by topic id.
func TestTopDiffusionTopicsSkipsBase(t *testing.T) {
	const C, Z = 3, 5
	m := &core.Model{
		Cfg: core.Config{NumCommunities: C, NumTopics: Z},
		Eta: etaFromLinks(C, Z, map[[3]int]float64{{0, 1, 3}: 2, {0, 1, 1}: 2, {0, 1, 4}: 5, {0, 2, 0}: 1}),
	}
	if got := TopDiffusionTopics(m, 0, 0, 5); len(got) != 0 {
		t.Fatalf("c0 -> c0 has no links, listed %+v", got)
	}
	if got := TopDiffusionTopics(m, 1, 2, 5); len(got) != 0 {
		t.Fatalf("c1 diffuses nothing, c1 -> c2 listed %+v", got)
	}
	var ids []int
	for _, ts := range TopDiffusionTopics(m, 0, 1, 5) {
		ids = append(ids, ts.Community)
	}
	if want := []int{4, 1, 3}; !slices.Equal(ids, want) {
		t.Fatalf("c0 -> c1 listed topics %v, want %v", ids, want)
	}
	if got := TopDiffusionTopics(m, 0, 2, 5); len(got) != 1 || got[0].Community != 0 {
		t.Fatalf("c0 -> c2 listed %+v, want topic 0 alone", got)
	}
}

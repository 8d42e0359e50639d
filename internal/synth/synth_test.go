package synth

import (
	"fmt"
	"testing"

	"repro/internal/socialgraph"
)

func TestGenerateValid(t *testing.T) {
	for _, cfg := range []Config{TwitterLike(150, 1), DBLPLike(150, 2)} {
		g, gt := Generate(cfg)
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if g.NumUsers != cfg.Users {
			t.Fatalf("%s: %d users, want %d (every user gets >=1 doc)", cfg.Name, g.NumUsers, cfg.Users)
		}
		if len(gt.DocCommunity) != len(g.Docs) || len(gt.DocTopic) != len(g.Docs) {
			t.Fatalf("%s: ground truth misaligned", cfg.Name)
		}
		if len(g.Diffs) == 0 || len(g.Friends) == 0 {
			t.Fatalf("%s: no links generated", cfg.Name)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	g1, _ := Generate(TwitterLike(100, 9))
	g2, _ := Generate(TwitterLike(100, 9))
	if len(g1.Docs) != len(g2.Docs) || len(g1.Friends) != len(g2.Friends) || len(g1.Diffs) != len(g2.Diffs) {
		t.Fatal("same seed produced different graphs")
	}
	for i := range g1.Docs {
		if g1.Docs[i].User != g2.Docs[i].User || len(g1.Docs[i].Words) != len(g2.Docs[i].Words) {
			t.Fatal("same seed produced different docs")
		}
	}
	g3, _ := Generate(TwitterLike(100, 10))
	if len(g3.Diffs) == len(g1.Diffs) && len(g3.Friends) == len(g1.Friends) && len(g3.Docs) == len(g1.Docs) {
		t.Log("different seeds produced same shape (possible but suspicious)")
	}
}

func TestDatasetShapeContrast(t *testing.T) {
	// The Table 3 contrast: Twitter |E| < |F|, DBLP |E| > |F|.
	tw, _ := Generate(TwitterLike(300, 3))
	db, _ := Generate(DBLPLike(300, 4))
	twRatio := float64(len(tw.Diffs)) / float64(len(tw.Friends))
	dbRatio := float64(len(db.Diffs)) / float64(len(db.Friends))
	if twRatio >= 1 {
		t.Fatalf("twitter |E|/|F| = %v, want < 1", twRatio)
	}
	if dbRatio <= 1 {
		t.Fatalf("dblp |E|/|F| = %v, want > 1", dbRatio)
	}
	// Twitter has more docs per user.
	twDocs := float64(len(tw.Docs)) / float64(tw.NumUsers)
	dbDocs := float64(len(db.Docs)) / float64(db.NumUsers)
	if twDocs <= dbDocs {
		t.Fatalf("docs/user: twitter %v <= dblp %v", twDocs, dbDocs)
	}
}

func TestDiffusionSemantics(t *testing.T) {
	g, _ := Generate(TwitterLike(200, 5))
	for _, e := range g.Diffs {
		if g.Docs[e.I].User == g.Docs[e.J].User {
			t.Fatal("self-user diffusion generated")
		}
		if g.Docs[e.I].Time < g.Docs[e.J].Time {
			t.Fatal("diffusing doc precedes source doc")
		}
	}
}

func TestFriendshipAssortativity(t *testing.T) {
	g, gt := Generate(TwitterLike(300, 6))
	intra, inter := 0, 0
	for _, f := range g.Friends {
		if gt.HomeCommunity[f.U] == gt.HomeCommunity[f.V] {
			intra++
		} else {
			inter++
		}
	}
	if intra <= inter {
		t.Fatalf("friendship not assortative: intra=%d inter=%d", intra, inter)
	}
}

func TestPlantedEtaRowsNormalized(t *testing.T) {
	_, gt := Generate(TwitterLike(100, 7))
	C := gt.Eta.D1
	Z := gt.Eta.D3
	for c := 0; c < C; c++ {
		var s float64
		for c2 := 0; c2 < C; c2++ {
			for z := 0; z < Z; z++ {
				v := gt.Eta.At(c, c2, z)
				if v < 0 {
					t.Fatalf("negative eta at (%d,%d,%d)", c, c2, z)
				}
				s += v
			}
		}
		if s < 0.999 || s > 1.001 {
			t.Fatalf("eta row %d sums to %v", c, s)
		}
	}
}

func TestDiffusionFollowsPlantedEta(t *testing.T) {
	// Diffusing users should come from communities eta favours for the
	// source (community, topic) — check self+corridor mass dominates.
	cfg := TwitterLike(400, 8)
	cfg.NoiseDiff = 0 // isolate the community factor
	g, gt := Generate(cfg)
	onEta, offEta := 0, 0
	for _, e := range g.Diffs {
		cSrc := int(gt.DocCommunity[e.J])
		cDif := int(gt.HomeCommunity[g.Docs[e.I].User])
		if cDif == cSrc || cDif == (cSrc-1+cfg.Communities)%cfg.Communities {
			onEta++ // self-diffusion or the planted corridor (c-1 -> c)
		} else {
			offEta++
		}
	}
	if onEta <= offEta {
		t.Fatalf("diffusion ignores planted eta: on=%d off=%d", onEta, offEta)
	}
}

func TestBuildVocabulary(t *testing.T) {
	cfg := TwitterLike(10, 1)
	v := BuildVocabulary(cfg)
	if v.Len() != cfg.VocabSize {
		t.Fatalf("vocab size %d, want %d", v.Len(), cfg.VocabSize)
	}
	seen := map[string]bool{}
	for i := 0; i < v.Len(); i++ {
		w := v.Word(i)
		if seen[w] {
			t.Fatalf("duplicate word %q", w)
		}
		seen[w] = true
	}
	// Words in the same block share the theme prefix.
	block := cfg.VocabSize / cfg.Topics
	w0, w1 := v.Word(0), v.Word(1)
	if w0[:4] != w1[:4] {
		t.Fatalf("block words %q and %q do not share a prefix", w0, w1)
	}
	across := v.Word(block)
	if w0[:4] == across[:4] && block >= 2 {
		t.Logf("adjacent blocks share prefix (%q, %q) — only possible with theme wrap", w0, across)
	}
}

func TestTimestampsWithinBuckets(t *testing.T) {
	cfg := DBLPLike(100, 11)
	g, _ := Generate(cfg)
	for _, d := range g.Docs {
		if d.Time < 0 || d.Time >= int64(cfg.TimeBuckets) {
			t.Fatalf("doc time %d outside [0, %d)", d.Time, cfg.TimeBuckets)
		}
	}
}

func TestGeneratePanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad config did not panic")
		}
	}()
	Generate(Config{Users: 0, Communities: 5, Topics: 5, VocabSize: 10})
}

var sinkGraph *socialgraph.Graph

// BenchmarkGenerate times one TwitterLike graph at ×1, ×4 and ×16 of 150
// users: with every fixed distribution drawn from a prepared cumulative
// table, time per graph grows close to linearly with the users.
func BenchmarkGenerate(b *testing.B) {
	for _, users := range []int{150, 600, 2400} {
		b.Run(fmt.Sprintf("users=%d", users), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g, _ := Generate(TwitterLike(users, 99))
				sinkGraph = g
			}
		})
	}
}

package socialgraph

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// smallGraph builds a hand-checked graph:
//
//	users 0,1,2; docs: d0,d1 by u0; d2 by u1; d3 by u2
//	friends: 0->1, 1->2
//	diffs: d2 diffuses d0 at t=5, d3 diffuses d2 at t=9
func smallGraph() *Graph {
	return &Graph{
		NumUsers: 3,
		NumWords: 10,
		Docs: []Doc{
			{User: 0, Time: 1, Words: []int32{0, 1}},
			{User: 0, Time: 2, Words: []int32{2}},
			{User: 1, Time: 4, Words: []int32{3, 4}},
			{User: 2, Time: 9, Words: []int32{5}},
		},
		Friends: []FriendLink{{0, 1}, {1, 2}},
		Diffs:   []DiffLink{{I: 2, J: 0, T: 5}, {I: 3, J: 2, T: 9}},
	}
}

func TestValidateOK(t *testing.T) {
	if err := smallGraph().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*Graph)
	}{
		{"doc user out of range", func(g *Graph) { g.Docs[0].User = 9 }},
		{"empty doc", func(g *Graph) { g.Docs[0].Words = nil }},
		{"word out of range", func(g *Graph) { g.Docs[0].Words = []int32{99} }},
		{"negative word", func(g *Graph) { g.Docs[0].Words = []int32{-1} }},
		{"friend out of range", func(g *Graph) { g.Friends[0].V = 9 }},
		{"friend self-loop", func(g *Graph) { g.Friends[0].V = g.Friends[0].U }},
		{"diff out of range", func(g *Graph) { g.Diffs[0].J = 99 }},
		{"diff self-loop", func(g *Graph) { g.Diffs[0].J = g.Diffs[0].I }},
		{"negative users", func(g *Graph) { g.NumUsers = -1 }},
	}
	for _, c := range cases {
		g := smallGraph()
		c.mod(g)
		if err := g.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestIndexes(t *testing.T) {
	g := smallGraph()
	if got := g.UserDocs(0); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("UserDocs(0) = %v", got)
	}
	// Λ_1 = {0, 2} (both directions).
	if got := g.FriendNeighbors(1); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("FriendNeighbors(1) = %v", got)
	}
	// Λ for doc 2: incident to both diffusion links.
	if got := g.DocDiffLinks(2); len(got) != 2 {
		t.Fatalf("DocDiffLinks(2) = %v", got)
	}
	if got := g.DocDiffLinks(1); len(got) != 0 {
		t.Fatalf("DocDiffLinks(1) = %v", got)
	}
}

func TestNeighborDedup(t *testing.T) {
	g := smallGraph()
	g.Friends = append(g.Friends, FriendLink{1, 0}) // reverse duplicate
	g.InvalidateIndexes()
	if got := g.FriendNeighbors(0); len(got) != 1 || got[0] != 1 {
		t.Fatalf("FriendNeighbors(0) = %v, want deduped {1}", got)
	}
}

func TestDropUsersWithoutDocs(t *testing.T) {
	g := smallGraph()
	g.NumUsers = 5 // users 3, 4 have no docs
	g.Friends = append(g.Friends, FriendLink{0, 4})
	removed := g.DropUsersWithoutDocs()
	if removed != 2 {
		t.Fatalf("removed = %d, want 2", removed)
	}
	if g.NumUsers != 3 {
		t.Fatalf("NumUsers = %d", g.NumUsers)
	}
	if len(g.Friends) != 2 {
		t.Fatalf("dangling friendship link kept: %v", g.Friends)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.DropUsersWithoutDocs() != 0 {
		t.Fatal("second drop removed users")
	}
}

func TestFeatures(t *testing.T) {
	g := smallGraph()
	// User 1: followers(in)=1 (0->1), followees(out)=1 (1->2) => ratio 1.
	if got := g.Popularity(1); math.Abs(got-math.Log1p(1)) > 1e-12 {
		t.Fatalf("Popularity(1) = %v", got)
	}
	// User 1: 1 diffusing doc (d2) of 1 doc => activeness ratio 1.
	if got := g.Activeness(1); math.Abs(got-math.Log1p(1)) > 1e-12 {
		t.Fatalf("Activeness(1) = %v", got)
	}
	// User 0: no retweets among 2 docs.
	if got := g.Activeness(0); got != 0 {
		t.Fatalf("Activeness(0) = %v", got)
	}
	f := g.PairFeatures(nil, 1, 2)
	if len(f) != FeatureDim || f[FeatureDim-1] != 1 {
		t.Fatalf("PairFeatures = %v", f)
	}
	if f[0] != g.Popularity(1) || f[2] != g.Popularity(2) {
		t.Fatalf("PairFeatures order wrong: %v", f)
	}
}

func TestTimeBuckets(t *testing.T) {
	g := smallGraph()
	buckets, nb := g.TimeBuckets(4)
	if nb != 4 {
		t.Fatalf("nb = %d", nb)
	}
	if buckets[0] != 0 {
		t.Fatalf("earliest doc bucket = %d", buckets[0])
	}
	if buckets[3] != 3 {
		t.Fatalf("latest doc bucket = %d", buckets[3])
	}
	// Degenerate: all same timestamp.
	for i := range g.Docs {
		g.Docs[i].Time = 7
	}
	buckets, nb = g.TimeBuckets(4)
	if nb != 1 {
		t.Fatalf("constant-time nb = %d", nb)
	}
	for _, b := range buckets {
		if b != 0 {
			t.Fatalf("constant-time bucket = %d", b)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	g := smallGraph()
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumUsers != g.NumUsers || g2.NumWords != g.NumWords {
		t.Fatal("header mismatch")
	}
	if len(g2.Docs) != len(g.Docs) || len(g2.Friends) != len(g.Friends) || len(g2.Diffs) != len(g.Diffs) {
		t.Fatal("length mismatch")
	}
	for i := range g.Docs {
		if g2.Docs[i].User != g.Docs[i].User || g2.Docs[i].Time != g.Docs[i].Time {
			t.Fatalf("doc %d mismatch", i)
		}
		for k := range g.Docs[i].Words {
			if g2.Docs[i].Words[k] != g.Docs[i].Words[k] {
				t.Fatalf("doc %d words mismatch", i)
			}
		}
	}
}

func TestRoundTripRandom(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		g := &Graph{NumUsers: 2 + r.Intn(5), NumWords: 5 + r.Intn(10)}
		for i := 0; i < 3+r.Intn(10); i++ {
			words := make([]int32, 1+r.Intn(4))
			for k := range words {
				words[k] = int32(r.Intn(g.NumWords))
			}
			g.Docs = append(g.Docs, Doc{User: int32(r.Intn(g.NumUsers)), Time: int64(r.Intn(100)), Words: words})
		}
		for i := 0; i < r.Intn(6); i++ {
			u, v := r.Intn(g.NumUsers), r.Intn(g.NumUsers)
			if u != v {
				g.Friends = append(g.Friends, FriendLink{int32(u), int32(v)})
			}
		}
		var buf bytes.Buffer
		if _, err := g.WriteTo(&buf); err != nil {
			return false
		}
		first := buf.String()
		g2, err := Read(strings.NewReader(first))
		if err != nil {
			return false
		}
		var buf2 bytes.Buffer
		if _, err := g2.WriteTo(&buf2); err != nil {
			return false
		}
		return first == buf2.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestReadMalformed(t *testing.T) {
	cases := []string{
		"",                                    // no header
		"doc 0 1 2\n",                         // doc before header
		"graph 1\n",                           // short header
		"graph 1 10\ngraph 1 10\n",            // duplicate header
		"graph 1 10\ndoc 0 1\n",               // doc without words
		"graph 1 10\ndoc x 1 2\n",             // bad user
		"graph 1 10\nfriend 0\n",              // short friend
		"graph 1 10\nwat 1 2\n",               // unknown record
		"graph 2 10\ndoc 0 1 2\ndiff 0 0 1\n", // self-loop diff fails validation
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("Read(%q) succeeded, want error", c)
		}
	}
	// Comments and blank lines are fine.
	ok := "# comment\n\ngraph 1 10\ndoc 0 1 2 3\n"
	if _, err := Read(strings.NewReader(ok)); err != nil {
		t.Fatalf("Read with comments: %v", err)
	}
}

func TestStats(t *testing.T) {
	st := smallGraph().Stats()
	if st.Users != 3 || st.FriendLinks != 2 || st.DiffLinks != 2 || st.Docs != 4 || st.Words != 10 {
		t.Fatalf("Stats = %+v", st)
	}
}

func TestSubsample(t *testing.T) {
	g := smallGraph()
	// p=1 returns the graph unchanged.
	if got := Subsample(g, 1, 1); got != g {
		t.Fatal("p=1 should return the same graph")
	}
	// p=0 keeps nothing.
	empty := Subsample(g, 0, 1)
	if len(empty.Docs) != 0 || len(empty.Diffs) != 0 {
		t.Fatalf("p=0 kept data: %+v", empty.Stats())
	}
	// Random fractions always produce valid graphs.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		p := r.Float64()
		s := Subsample(smallGraph(), p, seed)
		return s.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSubsampleFraction(t *testing.T) {
	// On a big synthetic-ish graph the kept fraction should be near p.
	r := rng.New(5)
	g := &Graph{NumUsers: 50, NumWords: 20}
	for i := 0; i < 2000; i++ {
		g.Docs = append(g.Docs, Doc{User: int32(r.Intn(50)), Words: []int32{int32(r.Intn(20))}})
	}
	s := Subsample(g, 0.5, 7)
	got := float64(len(s.Docs)) / float64(len(g.Docs))
	if math.Abs(got-0.5) > 0.05 {
		t.Fatalf("kept fraction = %v, want ~0.5", got)
	}
}

package eval

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/socialgraph"
)

func TestAUCKnownCases(t *testing.T) {
	if got := AUC([]float64{2, 3}, []float64{0, 1}); got != 1 {
		t.Fatalf("perfect separation AUC = %v", got)
	}
	if got := AUC([]float64{0, 1}, []float64{2, 3}); got != 0 {
		t.Fatalf("reversed AUC = %v", got)
	}
	if got := AUC([]float64{1, 1}, []float64{1, 1}); got != 0.5 {
		t.Fatalf("all-ties AUC = %v", got)
	}
	// Hand-computed: pos {3,1}, neg {2,0}: pairs (3>2),(3>0),(1<2),(1>0)
	// => 3/4.
	if got := AUC([]float64{3, 1}, []float64{2, 0}); got != 0.75 {
		t.Fatalf("AUC = %v, want 0.75", got)
	}
	if got := AUC(nil, []float64{1}); !math.IsNaN(got) {
		t.Fatalf("empty pos AUC = %v, want NaN", got)
	}
}

func TestAUCInvariantToMonotoneTransform(t *testing.T) {
	f := func(seedPos, seedNeg []float64) bool {
		if len(seedPos) == 0 || len(seedNeg) == 0 {
			return true
		}
		clean := func(xs []float64) []float64 {
			out := make([]float64, 0, len(xs))
			for _, x := range xs {
				if !math.IsNaN(x) && !math.IsInf(x, 0) {
					out = append(out, math.Mod(x, 100))
				}
			}
			return out
		}
		pos, neg := clean(seedPos), clean(seedNeg)
		if len(pos) == 0 || len(neg) == 0 {
			return true
		}
		apply := func(xs []float64) []float64 {
			out := make([]float64, len(xs))
			for i, x := range xs {
				out[i] = math.Atan(x) * 3 // strictly monotone
			}
			return out
		}
		a := AUC(pos, neg)
		b := AUC(apply(pos), apply(neg))
		return math.Abs(a-b) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// twoCliqueGraph: users 0-3 form a clique, 4-7 form a clique, one bridge.
func twoCliqueGraph() *socialgraph.Graph {
	g := &socialgraph.Graph{NumUsers: 8, NumWords: 1}
	for u := 0; u < 8; u++ {
		g.Docs = append(g.Docs, socialgraph.Doc{User: int32(u), Words: []int32{0}})
	}
	for a := 0; a < 4; a++ {
		for b := a + 1; b < 4; b++ {
			g.Friends = append(g.Friends, socialgraph.FriendLink{U: int32(a), V: int32(b)})
			g.Friends = append(g.Friends, socialgraph.FriendLink{U: int32(a + 4), V: int32(b + 4)})
		}
	}
	g.Friends = append(g.Friends, socialgraph.FriendLink{U: 0, V: 4})
	return g
}

func TestConductanceTwoCliques(t *testing.T) {
	g := twoCliqueGraph()
	good := [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}}
	bad := [][]int{{0, 1, 4, 5}, {2, 3, 6, 7}}
	cg := Conductance(g, good)
	cb := Conductance(g, bad)
	if !(cg < cb) {
		t.Fatalf("clique split %v not below random split %v", cg, cb)
	}
	// Clique split cuts only the bridge: cut=1, vol=13 per side.
	if math.Abs(cg-1.0/13) > 1e-9 {
		t.Fatalf("clique conductance = %v, want %v", cg, 1.0/13)
	}
	// Empty and full sets are skipped.
	if got := Conductance(g, [][]int{{}}); !math.IsNaN(got) {
		t.Fatalf("empty-only conductance = %v", got)
	}
}

func TestKFold(t *testing.T) {
	folds := KFold(10, 3, 1)
	if len(folds) != 3 {
		t.Fatalf("folds = %d", len(folds))
	}
	seen := map[int]int{}
	for _, f := range folds {
		for _, i := range f {
			seen[i]++
		}
	}
	if len(seen) != 10 {
		t.Fatalf("folds cover %d items", len(seen))
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("item %d appears %d times", i, n)
		}
	}
	train, test := SplitByFold(folds, 1)
	if len(train)+len(test) != 10 || len(test) != len(folds[1]) {
		t.Fatalf("SplitByFold sizes: %d train %d test", len(train), len(test))
	}
	// k > n clamps.
	if got := KFold(2, 5, 1); len(got) != 2 {
		t.Fatalf("clamped folds = %d", len(got))
	}
}

func TestPrecisionRecallAtK(t *testing.T) {
	ranked := [][]int{{1, 2}, {3}, {4, 5}}
	relevant := map[int]bool{1: true, 3: true, 9: true}
	prec, rec := PrecisionRecallAtK(ranked, relevant, 3)
	// K=1: union {1,2}, hits 1: P=0.5, R=1/3.
	if prec[0] != 0.5 || math.Abs(rec[0]-1.0/3) > 1e-12 {
		t.Fatalf("K=1: P=%v R=%v", prec[0], rec[0])
	}
	// K=2: union {1,2,3}, hits 2: P=2/3, R=2/3.
	if math.Abs(prec[1]-2.0/3) > 1e-12 || math.Abs(rec[1]-2.0/3) > 1e-12 {
		t.Fatalf("K=2: P=%v R=%v", prec[1], rec[1])
	}
	// K=3: union 5 users, hits 2: P=0.4.
	if math.Abs(prec[2]-0.4) > 1e-12 {
		t.Fatalf("K=3: P=%v", prec[2])
	}
	// Duplicate members across communities counted once.
	prec2, _ := PrecisionRecallAtK([][]int{{1}, {1}}, map[int]bool{1: true}, 2)
	if prec2[1] != 1 {
		t.Fatalf("duplicate member P@2 = %v", prec2[1])
	}
}

func TestMAFCurve(t *testing.T) {
	// One query, P(i)=1 and R(i)=0.5 for all i => MAP=1, MAR=0.5,
	// MAF=2*1*0.5/1.5.
	maps, mars, mafs := MAFCurve([][]float64{{1, 1}}, [][]float64{{0.5, 0.5}}, 2)
	if maps[1] != 1 || mars[1] != 0.5 {
		t.Fatalf("MAP=%v MAR=%v", maps[1], mars[1])
	}
	want := 2 * 1 * 0.5 / 1.5
	if math.Abs(mafs[1]-want) > 1e-12 {
		t.Fatalf("MAF=%v want %v", mafs[1], want)
	}
	// Empty input.
	m0, _, _ := MAFCurve(nil, nil, 3)
	if m0[0] != 0 {
		t.Fatalf("empty MAP = %v", m0)
	}
}

func TestPerplexityUniform(t *testing.T) {
	docs := []socialgraph.Doc{{User: 0, Words: []int32{0, 1, 2}}}
	const vocab = 50
	uniform := func(u int, w int32) float64 { return 1.0 / vocab }
	if got := Perplexity(uniform, docs); math.Abs(got-vocab) > 1e-9 {
		t.Fatalf("uniform perplexity = %v, want %v", got, float64(vocab))
	}
	// Better model, lower perplexity.
	better := func(u int, w int32) float64 { return 0.5 }
	if got := Perplexity(better, docs); math.Abs(got-2) > 1e-9 {
		t.Fatalf("perplexity = %v, want 2", got)
	}
	// Zero probabilities are floored, not NaN/Inf.
	zero := func(u int, w int32) float64 { return 0 }
	if got := Perplexity(zero, docs); math.IsNaN(got) || math.IsInf(got, 0) {
		t.Fatalf("zero-prob perplexity = %v", got)
	}
	if got := Perplexity(uniform, nil); !math.IsNaN(got) {
		t.Fatalf("no-docs perplexity = %v", got)
	}
}

func TestSampleNegativePairsExcludesPositives(t *testing.T) {
	g := twoCliqueGraph()
	existing := map[[2]int]bool{}
	for _, f := range g.Friends {
		existing[[2]int{int(f.U), int(f.V)}] = true
	}
	for _, p := range SampleNegativePairs(g, 20, 3) {
		if p[0] == p[1] {
			t.Fatal("self pair sampled")
		}
		if existing[p] {
			t.Fatalf("observed link sampled as negative: %v", p)
		}
	}
}

func TestSampleNegativeDocPairs(t *testing.T) {
	g := twoCliqueGraph()
	g.Diffs = append(g.Diffs, socialgraph.DiffLink{I: 0, J: 4})
	for _, p := range SampleNegativeDocPairs(g, 20, 4) {
		if p[0] == p[1] {
			t.Fatal("self doc pair")
		}
		if g.Docs[p[0]].User == g.Docs[p[1]].User {
			t.Fatal("same-user doc pair")
		}
		if p[0] == 0 && p[1] == 4 {
			t.Fatal("observed diffusion link sampled")
		}
	}
}

// TestSampleNegativeTerminates: a graph with no negative pair to draw —
// two users linked both ways, documents of one user only — makes each
// sampler give up with what it found (nothing) instead of looping forever.
// Each runs in a goroutine under a deadline, so a sampler that never
// returns fails the test rather than hanging it.
func TestSampleNegativeTerminates(t *testing.T) {
	linked := &socialgraph.Graph{NumUsers: 2, Friends: []socialgraph.FriendLink{{U: 0, V: 1}, {U: 1, V: 0}}}
	oneUser := &socialgraph.Graph{NumUsers: 2, NumWords: 2, Docs: []socialgraph.Doc{
		{User: 0, Words: []int32{0}}, {User: 0, Words: []int32{1}}, {User: 0, Words: []int32{0, 1}},
	}}
	for _, c := range []struct {
		name   string
		sample func() [][2]int
	}{
		{"friend pairs", func() [][2]int { return SampleNegativePairs(linked, 10, 1) }},
		{"document pairs", func() [][2]int { return SampleNegativeDocPairs(oneUser, 10, 1) }},
	} {
		done := make(chan [][2]int, 1)
		go func() { done <- c.sample() }()
		select {
		case got := <-done:
			if len(got) != 0 {
				t.Fatalf("%s: sampled %v from a graph with no negative pair", c.name, got)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: the sampler did not return within 10 s", c.name)
		}
	}
}

func BenchmarkAUC(b *testing.B) {
	pos := make([]float64, 1000)
	neg := make([]float64, 1000)
	for i := range pos {
		pos[i] = float64(i%97) * 0.01
		neg[i] = float64(i%89) * 0.009
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AUC(pos, neg)
	}
}

func TestNMI(t *testing.T) {
	perm := func(xs []int32, shift int32) []int32 {
		out := make([]int32, len(xs))
		for i, x := range xs {
			out[i] = (x + shift) % 3
		}
		return out
	}
	a := []int32{0, 0, 0, 1, 1, 1, 2, 2, 2}
	cases := []struct {
		name string
		a, b []int32
		want float64
		tol  float64
	}{
		{"identical", a, a, 1, 1e-12},
		{"label-renamed", a, perm(a, 1), 1, 1e-12},
		{"both single cluster", []int32{4, 4, 4}, []int32{9, 9, 9}, 1, 0},
		{"one side single cluster", a, []int32{7, 7, 7, 7, 7, 7, 7, 7, 7}, 0, 0},
		{"independent halves", []int32{0, 0, 1, 1}, []int32{0, 1, 0, 1}, 0, 1e-12},
	}
	for _, tc := range cases {
		if got := NMI(tc.a, tc.b); math.Abs(got-tc.want) > tc.tol {
			t.Errorf("%s: NMI = %v, want %v", tc.name, got, tc.want)
		}
	}
	if !math.IsNaN(NMI(nil, nil)) {
		t.Error("empty labelings must give NaN")
	}
	if !math.IsNaN(NMI([]int32{1}, []int32{1, 2})) {
		t.Error("mismatched lengths must give NaN")
	}
	// Partial agreement sits strictly between the extremes and is symmetric.
	b := []int32{0, 0, 1, 1, 1, 1, 2, 2, 0}
	ab, ba := NMI(a, b), NMI(b, a)
	if ab <= 0 || ab >= 1 {
		t.Errorf("partial agreement NMI = %v, want in (0,1)", ab)
	}
	if math.Abs(ab-ba) > 1e-12 {
		t.Errorf("NMI not symmetric: %v vs %v", ab, ba)
	}
}

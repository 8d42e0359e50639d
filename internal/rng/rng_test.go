package rng

import (
	"math"
	"strconv"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := New(43)
	same := 0
	a = New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("nearby seeds produced %d/100 identical draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(1)
	s1 := r.Split(0)
	s2 := r.Split(1)
	same := 0
	for i := 0; i < 100; i++ {
		if s1.Uint64() == s2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split streams overlap: %d/100", same)
	}
}

func TestFloat64Bounds(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		u := r.Float64()
		if u < 0 || u >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", u)
		}
	}
	for i := 0; i < 1000; i++ {
		if u := r.Float64Open(); u <= 0 || u >= 1 {
			t.Fatalf("Float64Open out of (0,1): %v", u)
		}
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(3)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		v := r.Intn(n)
		if v < 0 || v >= n {
			t.Fatalf("Intn out of range: %d", v)
		}
		counts[v]++
	}
	exp := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-exp) > 5*math.Sqrt(exp) {
			t.Fatalf("bucket %d count %d deviates from %v", i, c, exp)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		r := New(seed)
		p := r.Perm(20)
		seen := make([]bool, 20)
		for _, v := range p {
			if v < 0 || v >= 20 || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormMoments(t *testing.T) {
	r := New(11)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := r.Norm()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("Norm mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("Norm variance = %v", variance)
	}
}

func TestExpMoments(t *testing.T) {
	r := New(12)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		x := r.Exp()
		if x < 0 {
			t.Fatalf("Exp negative: %v", x)
		}
		sum += x
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Fatalf("Exp mean = %v", mean)
	}
}

func TestGammaMoments(t *testing.T) {
	r := New(13)
	const n = 100000
	for _, shape := range []float64{0.3, 1, 2.5, 8} {
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			x := r.Gamma(shape)
			if x <= 0 {
				t.Fatalf("Gamma(%v) non-positive: %v", shape, x)
			}
			sum += x
			sumSq += x * x
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		if math.Abs(mean-shape) > 0.06*shape+0.02 {
			t.Errorf("Gamma(%v) mean = %v", shape, mean)
		}
		if math.Abs(variance-shape) > 0.12*shape+0.05 {
			t.Errorf("Gamma(%v) variance = %v", shape, variance)
		}
	}
}

func TestGammaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Gamma(0) did not panic")
		}
	}()
	New(1).Gamma(0)
}

func TestBetaMoments(t *testing.T) {
	r := New(14)
	const n = 100000
	a, b := 2.0, 5.0
	var sum float64
	for i := 0; i < n; i++ {
		x := r.Beta(a, b)
		if x < 0 || x > 1 {
			t.Fatalf("Beta out of range: %v", x)
		}
		sum += x
	}
	want := a / (a + b)
	if mean := sum / n; math.Abs(mean-want) > 0.01 {
		t.Fatalf("Beta mean = %v, want %v", mean, want)
	}
}

func TestDirichlet(t *testing.T) {
	r := New(15)
	alpha := []float64{1, 2, 3}
	dst := make([]float64, 3)
	sums := make([]float64, 3)
	const n = 50000
	for i := 0; i < n; i++ {
		r.Dirichlet(dst, alpha)
		var s float64
		for _, v := range dst {
			if v < 0 {
				t.Fatalf("Dirichlet negative component: %v", dst)
			}
			s += v
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("Dirichlet sums to %v", s)
		}
		for k, v := range dst {
			sums[k] += v
		}
	}
	for k, want := range []float64{1.0 / 6, 2.0 / 6, 3.0 / 6} {
		if got := sums[k] / n; math.Abs(got-want) > 0.01 {
			t.Errorf("Dirichlet mean[%d] = %v, want %v", k, got, want)
		}
	}
}

func TestCategoricalDistribution(t *testing.T) {
	r := New(16)
	w := []float64{1, 0, 3}
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.Categorical(w)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight category drawn %d times", counts[1])
	}
	if got := float64(counts[2]) / n; math.Abs(got-0.75) > 0.01 {
		t.Fatalf("category 2 frequency = %v, want 0.75", got)
	}
}

func TestCategoricalPanics(t *testing.T) {
	r := New(1)
	for _, w := range [][]float64{{0, 0}, {-1, 2}, {math.NaN()}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Categorical(%v) did not panic", w)
				}
			}()
			r.Categorical(w)
		}()
	}
}

func TestCategoricalLogMatchesCategorical(t *testing.T) {
	r := New(17)
	w := []float64{0.2, 0.5, 0.3}
	logits := make([]float64, 3)
	for i, v := range w {
		logits[i] = math.Log(v) - 10 // shift invariance
	}
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.CategoricalLog(logits)]++
	}
	for i, want := range w {
		if got := float64(counts[i]) / n; math.Abs(got-want) > 0.01 {
			t.Errorf("CategoricalLog freq[%d] = %v, want %v", i, got, want)
		}
	}
	// Very negative logits are fine.
	deep := []float64{-1e6, -1e6 + math.Log(3)}
	c := 0
	for i := 0; i < 10000; i++ {
		if r.CategoricalLog(deep) == 1 {
			c++
		}
	}
	if got := float64(c) / 10000; math.Abs(got-0.75) > 0.03 {
		t.Fatalf("deep logit freq = %v, want 0.75", got)
	}
}

func TestPoissonMoments(t *testing.T) {
	r := New(18)
	for _, lambda := range []float64{0.5, 4, 80} {
		var sum float64
		const n = 50000
		for i := 0; i < n; i++ {
			k := r.Poisson(lambda)
			if k < 0 {
				t.Fatalf("Poisson negative: %d", k)
			}
			sum += float64(k)
		}
		if mean := sum / n; math.Abs(mean-lambda) > 0.05*lambda+0.05 {
			t.Errorf("Poisson(%v) mean = %v", lambda, mean)
		}
	}
	if New(1).Poisson(0) != 0 {
		t.Fatal("Poisson(0) != 0")
	}
}

// categoricalLogScan is CategoricalLog as it was before the draw became
// lazy: every candidate's Gumbel value, two logarithms each, in one
// ascending strict-> scan. It is the oracle the lazy kernel must match in
// both the index it returns and the state it leaves the generator in.
func categoricalLogScan(r *RNG, logits []float64) int {
	best, bestV := -1, math.Inf(-1)
	for i, l := range logits {
		if math.IsNaN(l) {
			panic("rng: CategoricalLog with NaN logit")
		}
		v := l - math.Log(r.Exp()) // l + Gumbel noise
		if v > bestV {
			best, bestV = i, v
		}
	}
	if best < 0 {
		panic("rng: CategoricalLog with empty logits")
	}
	return best
}

// draw runs f and reports the index it returned, or ok=false if it
// panicked.
func draw(f func() int) (idx int, ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	return f(), true
}

// sameDraw holds a lazy draw to the scan's: both panic, or both return the
// same index and leave generators that started equal in the same state.
func sameDraw(t testing.TB, what string, seed uint64, logits []float64, lazy func(r *RNG) int) {
	t.Helper()
	a, b := New(seed), New(seed)
	want, wantOK := draw(func() int { return categoricalLogScan(a, logits) })
	got, gotOK := draw(func() int { return lazy(b) })
	if wantOK != gotOK {
		t.Fatalf("%s: scan returned=%v, lazy returned=%v, seed %d logits %v", what, wantOK, gotOK, seed, logits)
	}
	if !wantOK {
		return
	}
	if got != want {
		t.Fatalf("%s: lazy draw picked %d, scan picked %d, seed %d logits %v", what, got, want, seed, logits)
	}
	if a.s != b.s {
		t.Fatalf("%s: generator states differ after the draw, seed %d n=%d", what, seed, len(logits))
	}
}

// randomLogits draws one test vector: n in 1…300 (small sizes favoured,
// some past the stack buffer), a scale in 0.01…1000, and — per regime —
// ±Inf entries, duplicated entries, or logits so coarse (floats are 2
// apart at 1e16) that the Gumbel noise rounds into exact ties between
// neighbours.
func randomLogits(r *RNG) []float64 {
	n := 1 + r.Intn(12)
	switch r.Intn(4) {
	case 0:
		n = 1 + r.Intn(64)
	case 1:
		n = 1 + r.Intn(300)
	}
	scale := math.Pow(10, -2+5*r.Float64())
	logits := make([]float64, n)
	for i := range logits {
		logits[i] = scale * r.Norm()
	}
	switch r.Intn(6) {
	case 0: // infinities; sometimes every entry
		p := r.Float64()
		for i := range logits {
			switch {
			case r.Float64() < p:
				logits[i] = math.Inf(-1)
			case r.Float64() < 0.05:
				logits[i] = math.Inf(1)
			}
		}
	case 1: // duplicates
		for i := range logits {
			logits[i] = logits[r.Intn(n)]
		}
	case 2: // coarse: ties between computed values
		for i := range logits {
			logits[i] = 1e16 + 2*float64(r.Intn(4))
		}
	}
	return logits
}

func TestCategoricalLogMatchesScan(t *testing.T) {
	trials := 120000
	if testing.Short() {
		trials = 20000
	}
	r := New(99)
	for trial := 0; trial < trials; trial++ {
		logits := randomLogits(r)
		sameDraw(t, "CategoricalLog", r.Uint64(), logits, func(g *RNG) int { return g.CategoricalLog(logits) })
	}
}

// TestCategoricalLogBoundedMatchesScan offers the bounded draw the same
// vectors behind upper bounds that are exact, barely above, or far above
// the logits: whatever the bounds let it skip, the draw is the scan's over
// the exact logits.
func TestCategoricalLogBoundedMatchesScan(t *testing.T) {
	trials := 120000
	if testing.Short() {
		trials = 20000
	}
	r := New(100)
	for trial := 0; trial < trials; trial++ {
		logits := randomLogits(r)
		upper := make([]float64, len(logits))
		loose := []float64{0, 1e-9, 0.5, 30}[r.Intn(4)]
		for i, l := range logits {
			upper[i] = l + loose*r.Float64()
		}
		calls := 0
		sameDraw(t, "CategoricalLogBounded", r.Uint64(), logits, func(g *RNG) int {
			return g.CategoricalLogBounded(upper, func(i int) float64 { calls++; return logits[i] })
		})
		if calls > len(logits) {
			t.Fatalf("exact called %d times for %d candidates", calls, len(logits))
		}
	}
}

// TestCategoricalLogTiesKeepLowestIndex pins the tie rule where it is
// forced: at 1e16 floats are 2 apart, so every computed value is the logit
// plus its Gumbel noise rounded to an even number, and neighbours tie. The
// scan keeps the lowest index — also when the largest logit, which the
// lazy draw evaluates first, sits further up and ties with index 0 only
// after rounding.
func TestCategoricalLogTiesKeepLowestIndex(t *testing.T) {
	stepped := []float64{1e16, 1e16 + 2, 1e16}
	ties := 0
	for seed := uint64(0); seed < 2000; seed++ {
		sameDraw(t, "stepped ties", seed, stepped, func(g *RNG) int { return g.CategoricalLog(stepped) })
		g := New(seed)
		v0 := stepped[0] - math.Log(g.Exp())
		v1 := stepped[1] - math.Log(g.Exp())
		v2 := stepped[2] - math.Log(g.Exp())
		if v0 == v1 && v0 >= v2 {
			ties++
			if got := New(seed).CategoricalLog(stepped); got != 0 {
				t.Fatalf("seed %d: values tie at %v, picked index %d, want 0", seed, v0, got)
			}
		}
	}
	if ties < 50 {
		t.Fatalf("only %d of 2000 draws tied; the test no longer forces ties", ties)
	}
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

func TestCategoricalLogPanics(t *testing.T) {
	ninf, nan := math.Inf(-1), math.NaN()
	mustPanic(t, "empty logits", func() { New(1).CategoricalLog(nil) })
	mustPanic(t, "all -Inf", func() { New(1).CategoricalLog([]float64{ninf, ninf, ninf}) })
	mustPanic(t, "NaN logit", func() { New(1).CategoricalLog([]float64{0, nan, 1}) })
	// A NaN logit panics even where the scan would have picked a winner
	// long before reaching it.
	mustPanic(t, "NaN behind +Inf", func() { New(1).CategoricalLog([]float64{math.Inf(1), nan}) })

	id := func(v []float64) func(int) float64 { return func(i int) float64 { return v[i] } }
	mustPanic(t, "bounded: NaN upper", func() { New(1).CategoricalLogBounded([]float64{0, nan}, id([]float64{0, 0})) })
	mustPanic(t, "bounded: all -Inf upper", func() { New(1).CategoricalLogBounded([]float64{ninf, ninf}, id([]float64{ninf, ninf})) })
	mustPanic(t, "bounded: every exact -Inf", func() { New(1).CategoricalLogBounded([]float64{0, 0}, id([]float64{ninf, ninf})) })
	mustPanic(t, "bounded: NaN in an evaluated exact", func() { New(1).CategoricalLogBounded([]float64{5, 0}, id([]float64{nan, 0})) })
	mustPanic(t, "bounded: exact above upper", func() { New(1).CategoricalLogBounded([]float64{5, 0}, id([]float64{5.5, 0})) })
	// An exact the bounds rule out is never computed, NaN or not.
	for seed := uint64(0); seed < 50; seed++ {
		if got := New(seed).CategoricalLogBounded([]float64{0, -1e6}, id([]float64{0, nan})); got != 0 {
			t.Fatalf("seed %d: picked %d", seed, got)
		}
	}
}

// TestLazyStats checks the counters: every candidate is considered, at
// least one and at most all are evaluated, a peaked vector evaluates a
// small share, and Drain moves the counts out.
func TestLazyStats(t *testing.T) {
	r := New(5)
	logits := make([]float64, 200)
	for i := range logits {
		logits[i] = -float64(i)
	}
	for i := 0; i < 100; i++ {
		r.CategoricalLog(logits)
	}
	if r.Lazy.Considered != 100*200 {
		t.Fatalf("Considered = %d, want %d", r.Lazy.Considered, 100*200)
	}
	if r.Lazy.Evaluated < 100 || r.Lazy.Evaluated > r.Lazy.Considered/10 {
		t.Fatalf("Evaluated = %d of %d on a peaked vector", r.Lazy.Evaluated, r.Lazy.Considered)
	}
	var total LazyStats
	total.Drain(&r.Lazy)
	total.Drain(&r.Lazy)
	if total.Considered != 100*200 || r.Lazy != (LazyStats{}) || total.Share() <= 0 || total.Share() > 0.1 {
		t.Fatalf("after Drain: total %+v (share %v), generator %+v", total, total.Share(), r.Lazy)
	}
}

func BenchmarkCategoricalLog(b *testing.B) {
	for _, n := range []int{8, 64, 128, 256} {
		r := New(1)
		logits := make([]float64, n)
		for i := range logits {
			logits[i] = 3 * r.Norm()
		}
		b.Run("lazy/n="+strconv.Itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink = r.CategoricalLog(logits)
			}
		})
		b.Run("scan/n="+strconv.Itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink = categoricalLogScan(r, logits)
			}
		})
	}
}

var sink int

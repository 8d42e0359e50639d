package mathx

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// topKIndicesOracle is TopKIndices as it stood before the unique-answer
// fast path: the whole function was this partial selection sort, and its
// tie and NaN order is what every caller (and every golden) was pinned on.
func topKIndicesOracle(xs []float64, k int) []int {
	if k > len(xs) {
		k = len(xs)
	}
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		best := i
		for j := i + 1; j < len(idx); j++ {
			if xs[idx[j]] > xs[idx[best]] {
				best = j
			}
		}
		idx[i], idx[best] = idx[best], idx[i]
	}
	return idx[:k]
}

// requireTopKMatchesOracle holds TopKIndices to the oracle for one input;
// a negative k, which made the oracle panic, must answer empty.
func requireTopKMatchesOracle(t *testing.T, xs []float64, k int) {
	t.Helper()
	got := TopKIndices(xs, k)
	if k < 0 {
		if len(got) != 0 {
			t.Fatalf("TopKIndices(%v, %d) = %v, want empty", xs, k, got)
		}
		return
	}
	if want := topKIndicesOracle(xs, k); !slices.Equal(got, want) {
		t.Fatalf("TopKIndices(%v, %d) = %v, oracle %v", xs, k, got, want)
	}
}

// FuzzTopKIndices decodes the input as float64 values (eight bytes each,
// so NaN payloads, ±Inf, ±0 and subnormals all occur; at most 300) and
// compares with the oracle at the fuzzed k and at the edges of its range.
func FuzzTopKIndices(f *testing.F) {
	vec := func(v ...float64) []byte {
		b := make([]byte, 8*len(v))
		for i, x := range v {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
		}
		return b
	}
	negZero := math.Copysign(0, -1)
	f.Add(vec(3, 1, 4, 1, 5, 9, 2, 6), 3)
	f.Add(vec(7, 7, 7), 2)                   // all tied
	f.Add(vec(1, 1, 5), 3)                   // the swap moves index 0 behind index 1
	f.Add(vec(9, 4, 4, 1), 2)                // tie across the k-th place
	f.Add(vec(9, 4, 1, 1), 2)                // tie below it
	f.Add(vec(9, 9, 4, 1), 3)                // tie above it
	f.Add(vec(1, math.NaN(), 2), 2)          // NaN
	f.Add(vec(math.NaN(), math.NaN()), 1)    // only NaN
	f.Add(vec(0, negZero, 1, negZero, 0), 3) // signed zeros compare equal
	f.Add(vec(math.Inf(1), 2, math.Inf(1), math.Inf(-1), math.Inf(-1)), 4)
	f.Add(vec(5), -1)
	f.Add(vec(), 1)
	f.Fuzz(func(t *testing.T, data []byte, k int) {
		xs := make([]float64, min(len(data)/8, 300))
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		n := len(xs)
		for _, k := range []int{k, k % (n + 2), -1, 0, 1, n - 1, n, n + 1} {
			requireTopKMatchesOracle(t, xs, k)
		}
	})
}

// TestTopKIndicesMatchesOracle is the seeded sweep behind the fuzzer:
// vectors drawn from a few values (ties everywhere), from a continuum (no
// ties, the fast path answers) and with NaN / ±Inf / ±0 planted, at every
// edge k. It also pins the property the serving user index leans on: the
// top-K list's k-prefix is the top-k list, for every k <= K.
func TestTopKIndicesMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
	fast := 0
	for trial := 0; trial < 4000; trial++ {
		n := r.Intn(200)
		xs := make([]float64, n)
		for i := range xs {
			switch trial % 4 {
			case 0:
				xs[i] = float64(r.Intn(4)) // heavy ties
			case 1:
				xs[i] = r.NormFloat64()
			case 2:
				xs[i] = r.Float64()
				if r.Intn(10) == 0 {
					xs[i] = special[r.Intn(len(special))]
				}
			default: // distinct but for one planted duplicate
				xs[i] = r.Float64()
				if i > 0 && r.Intn(n) == 0 {
					xs[i] = xs[r.Intn(i)]
				}
			}
		}
		for _, k := range []int{-1, 0, 1, 2, 5, 32, n - 1, n, n + 1, r.Intn(n + 1)} {
			requireTopKMatchesOracle(t, xs, k)
		}
		K := min(n, 1+r.Intn(40))
		top := TopKIndices(xs, K)
		for k := 0; k <= K; k++ {
			if got := TopKIndices(xs, k); !slices.Equal(got, top[:k]) {
				t.Fatalf("top-%d %v is not the prefix of top-%d %v (xs %v)", k, got, K, top, xs)
			}
		}
		if n > 0 {
			if _, ok := uniqueTopK(xs, K); ok {
				fast++
			}
		}
	}
	// Half the trials have no ties among the kept: the fast path must be
	// what answers them, or the test compares the fallback with itself.
	if fast < 1000 {
		t.Fatalf("the unique-answer path answered only %d of 4000 trials", fast)
	}
}

func TestTopKIndicesNegativeK(t *testing.T) {
	if got := TopKIndices([]float64{3, 1, 2}, -1); len(got) != 0 {
		t.Fatalf("TopKIndices(k=-1) = %v, want empty", got)
	}
	if got := TopKIndices(nil, -5); len(got) != 0 {
		t.Fatalf("TopKIndices(nil, -5) = %v, want empty", got)
	}
}

var topKSink []int

// BenchmarkTopKIndices prices the two shapes the serving indexes ask for
// on a 64-community model — a user's top 5 and a word's 32 postings —
// beside the selection sort on the same tie-free rows.
func BenchmarkTopKIndices(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	rows := make([][]float64, 256)
	for i := range rows {
		rows[i] = make([]float64, 64)
		for j := range rows[i] {
			rows[i][j] = r.Float64()
		}
	}
	for _, bc := range []struct {
		name string
		k    int
		fn   func([]float64, int) []int
	}{
		{"k5", 5, TopKIndices}, {"k5-oracle", 5, topKIndicesOracle},
		{"k32", 32, TopKIndices}, {"k32-oracle", 32, topKIndicesOracle},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				topKSink = bc.fn(rows[i&255], bc.k)
			}
		})
	}
}

// Package mathx provides the numeric kernel shared by the CPD sampler, the
// baselines and the evaluation code: stable logistic-family functions,
// special functions (log-gamma, regularized incomplete beta) and the
// Student-t tail probability used for the paper's significance tests.
//
// Everything here is pure stdlib; the implementations favour numerical
// stability over raw speed except where noted.
package mathx

import (
	"errors"
	"math"
)

// Sigmoid returns 1/(1+exp(-x)) computed without overflow for large |x|.
func Sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

// LogSigmoid returns log(sigmoid(x)) = -log(1+exp(-x)) stably.
func LogSigmoid(x float64) float64 {
	return -Log1pExp(-x)
}

// Log1pExp returns log(1+exp(x)) without overflow.
func Log1pExp(x float64) float64 {
	switch {
	case x > 35:
		return x
	case x < -35:
		return math.Exp(x)
	default:
		return math.Log1p(math.Exp(x))
	}
}

// Logit is the inverse of Sigmoid. It panics outside (0,1).
func Logit(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic("mathx: Logit argument outside (0,1)")
	}
	return math.Log(p / (1 - p))
}

// Softmax overwrites dst with the softmax of src (dst and src may alias).
// It panics if the slices have different lengths.
func Softmax(dst, src []float64) {
	if len(dst) != len(src) {
		panic("mathx: Softmax length mismatch")
	}
	if len(src) == 0 {
		return
	}
	m := src[0]
	for _, x := range src[1:] {
		if x > m {
			m = x
		}
	}
	var s float64
	for i, x := range src {
		e := math.Exp(x - m)
		dst[i] = e
		s += e
	}
	for i := range dst {
		dst[i] /= s
	}
}

// LogGamma returns log|Gamma(x)|.
func LogGamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// LogBeta returns log Beta(a, b) = lgamma(a)+lgamma(b)-lgamma(a+b).
func LogBeta(a, b float64) float64 {
	return LogGamma(a) + LogGamma(b) - LogGamma(a+b)
}

// RegIncBeta returns the regularized incomplete beta function I_x(a, b) for
// a, b > 0 and x in [0,1], via the continued-fraction expansion (Lentz).
func RegIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	case a <= 0 || b <= 0:
		return math.NaN()
	}
	lbeta := LogBeta(a, b)
	front := math.Exp(a*math.Log(x)+b*math.Log(1-x)-lbeta) / a
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x)
	}
	// Symmetry relation I_x(a,b) = 1 - I_{1-x}(b,a).
	frontSym := math.Exp(b*math.Log(1-x)+a*math.Log(x)-lbeta) / b
	return 1 - frontSym*betaCF(b, a, 1-x)
}

// betaCF evaluates the continued fraction for the incomplete beta function
// using the modified Lentz method.
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		tiny    = 1e-300
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// StudentTTail returns P(T > t) for a Student-t variable with df degrees of
// freedom, t >= 0. For t < 0 it returns 1 - P(T > -t).
func StudentTTail(t, df float64) float64 {
	if df <= 0 {
		return math.NaN()
	}
	if t < 0 {
		return 1 - StudentTTail(-t, df)
	}
	x := df / (df + t*t)
	return 0.5 * RegIncBeta(df/2, 0.5, x)
}

// ErrTTest is returned by PairedTTest for degenerate inputs.
var ErrTTest = errors.New("mathx: paired t-test requires >=2 paired samples with nonzero variance")

// PairedTTestOneTailed performs a paired, one-tailed Student t-test of the
// hypothesis mean(a) > mean(b) and returns the p-value. This is the test the
// paper applies to its 10-fold cross-validation scores ("student's t-test
// one-tailed p-value p < 0.01").
func PairedTTestOneTailed(a, b []float64) (p float64, err error) {
	if len(a) != len(b) || len(a) < 2 {
		return math.NaN(), ErrTTest
	}
	n := float64(len(a))
	diffs := make([]float64, len(a))
	for i := range a {
		diffs[i] = a[i] - b[i]
	}
	mean := Mean(diffs)
	sd := StdDev(diffs)
	if sd == 0 {
		if mean > 0 {
			return 0, nil
		}
		return 1, nil
	}
	t := mean / (sd / math.Sqrt(n))
	return StudentTTail(t, n-1), nil
}

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (0 when len < 2).
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// Dot returns the dense dot product of a and b. It panics on length
// mismatch.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("mathx: Dot length mismatch")
	}
	var s float64
	for i, x := range a {
		s += x * b[i]
	}
	return s
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// MaxIndex returns the index of the largest element (first on ties), or -1
// for an empty slice.
func MaxIndex(xs []float64) int {
	if len(xs) == 0 {
		return -1
	}
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

// TopKIndices returns the indices of the k largest elements of xs in
// descending order of value. k is clamped to [0, len(xs)].
//
// When the answer is unique — no NaN, the kept values strictly decreasing
// and the k-th strictly above everything dropped — any correct selection
// returns it, so a bounded sorted insert (O(n) plus the rare insertions)
// answers. Ties and NaN are ordered by the partial selection sort this
// function has always been (selectTopK), which then runs instead: the
// result equals that reference's for every input.
func TopKIndices(xs []float64, k int) []int {
	if k > len(xs) {
		k = len(xs)
	}
	if k <= 0 {
		return []int{}
	}
	if top, ok := uniqueTopK(xs, k); ok {
		return top
	}
	return selectTopK(xs, k)
}

// uniqueTopK keeps the k largest elements seen so far sorted descending
// (values beside indices, on the stack for k <= 32) and reports ok only
// when that answer is the only one a correct top-k could give (see
// TopKIndices). 1 <= k <= len(xs).
//
// No comparison with a NaN is true, so a NaN among the first k elements
// enters the kept list and never leaves it, failing the strict-order check
// at the end. A NaN further on is passed over — as it is by selectTopK,
// which selects a NaN only from the position a round starts at (below k)
// and moves no element it has not selected.
func uniqueTopK(xs []float64, k int) ([]int, bool) {
	var valBuf [32]float64
	var topBuf [32]int
	vals, top := valBuf[:], topBuf[:]
	if k > len(valBuf) {
		vals, top = make([]float64, k), make([]int, k)
	}
	vals, top = vals[:k], top[:k]
	for n, x := range xs[:k] {
		insertDescending(vals, top, n, x, n)
	}
	last := vals[k-1]
	dropped := math.Inf(-1) // largest value not kept
	for i, x := range xs[k:] {
		if !(x > last) {
			if x > dropped {
				dropped = x
			}
			continue
		}
		if last > dropped {
			dropped = last
		}
		insertDescending(vals, top, k-1, x, k+i) // over the evicted last
		last = vals[k-1]
	}
	for j := 1; j < k; j++ {
		if !(vals[j-1] > vals[j]) {
			return nil, false
		}
	}
	if k < len(xs) && !(last > dropped) {
		return nil, false
	}
	return append([]int(nil), top...), true
}

// insertDescending places (x, i) into the descending vals[:n] / top[:n],
// behind any equal value, growing both by one.
func insertDescending(vals []float64, top []int, n int, x float64, i int) {
	for n > 0 && x > vals[n-1] {
		vals[n], top[n] = vals[n-1], top[n-1]
		n--
	}
	vals[n], top[n] = x, i
}

// selectTopK is the reference order: k rounds of selection sort over the
// identity permutation, each taking the first largest remaining element.
func selectTopK(xs []float64, k int) []int {
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

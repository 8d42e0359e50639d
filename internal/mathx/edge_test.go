package mathx

import (
	"math"
	"testing"
)

// Edge-case and property-style tests for the numeric kernel: empty
// inputs, single-element distributions, and the extreme log-space values
// the samplers produce on degenerate scenario data.

func TestSigmoidFamilyExtremes(t *testing.T) {
	if got := Sigmoid(1000); got != 1 {
		t.Errorf("Sigmoid(1000) = %v", got)
	}
	if got := Sigmoid(-1000); got != 0 {
		t.Errorf("Sigmoid(-1000) = %v", got)
	}
	if got := Sigmoid(0); got != 0.5 {
		t.Errorf("Sigmoid(0) = %v", got)
	}
	// Symmetry σ(-x) = 1 - σ(x) across the stable range.
	for _, x := range []float64{0.1, 1, 10, 30, 100} {
		if diff := math.Abs(Sigmoid(-x) - (1 - Sigmoid(x))); diff > 1e-15 {
			t.Errorf("sigmoid symmetry broken at %v: diff %v", x, diff)
		}
	}
	// LogSigmoid stays finite and negative where naive log(sigmoid)
	// underflows to -Inf.
	if got := LogSigmoid(-800); math.IsInf(got, 0) || got > -799 {
		t.Errorf("LogSigmoid(-800) = %v", got)
	}
	if got := LogSigmoid(800); got != 0 && got > 0 {
		t.Errorf("LogSigmoid(800) = %v", got)
	}
	// Log1pExp is continuous across both branch cuts (±35).
	for _, x := range []float64{-35, 35} {
		lo, hi := Log1pExp(x-1e-9), Log1pExp(x+1e-9)
		if math.Abs(hi-lo) > 1e-6 {
			t.Errorf("Log1pExp discontinuous at %v: %v vs %v", x, lo, hi)
		}
	}
}

func TestSoftmaxEdges(t *testing.T) {
	// Single element is a point mass regardless of magnitude.
	for _, x := range []float64{0, -1e308, 709} {
		dst := []float64{math.NaN()}
		Softmax(dst, []float64{x})
		if dst[0] != 1 {
			t.Errorf("Softmax([%v]) = %v", x, dst[0])
		}
	}
	// -Inf logits get exactly zero mass, the rest renormalizes.
	dst := make([]float64, 3)
	Softmax(dst, []float64{0, math.Inf(-1), 0})
	if dst[1] != 0 || math.Abs(dst[0]-0.5) > 1e-15 {
		t.Errorf("Softmax with -Inf = %v", dst)
	}
	// Empty softmax is a no-op.
	Softmax(nil, nil)
	// Aliasing dst == src is allowed.
	buf := []float64{1, 2, 3}
	Softmax(buf, buf)
	var sum float64
	for _, v := range buf {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("aliased softmax sums to %v", sum)
	}
}

func TestTopKIndicesEdges(t *testing.T) {
	if got := TopKIndices(nil, 3); len(got) != 0 {
		t.Errorf("TopK of empty = %v", got)
	}
	if got := TopKIndices([]float64{1, 2}, 0); len(got) != 0 {
		t.Errorf("TopK k=0 = %v", got)
	}
	if got := TopKIndices([]float64{5}, 10); len(got) != 1 || got[0] != 0 {
		t.Errorf("TopK k>len = %v", got)
	}
	// Ties resolve to the first index, making serving output stable.
	if got := TopKIndices([]float64{7, 7, 7}, 2); got[0] != 0 || got[1] != 1 {
		t.Errorf("tied TopK = %v", got)
	}
	if got := MaxIndex(nil); got != -1 {
		t.Errorf("MaxIndex(empty) = %v", got)
	}
}

func TestMomentsDegenerate(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 || StdDev([]float64{5}) != 0 {
		t.Error("empty/singleton moments must be 0")
	}
	if Sum(nil) != 0 {
		t.Error("empty sum must be 0")
	}
}

func TestPairedTTestDegenerate(t *testing.T) {
	if _, err := PairedTTestOneTailed([]float64{1}, []float64{2}); err == nil {
		t.Error("single pair accepted")
	}
	if _, err := PairedTTestOneTailed([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("mismatched lengths accepted")
	}
	// Zero variance, positive mean difference: certain win, p = 0.
	if p, err := PairedTTestOneTailed([]float64{2, 3, 4}, []float64{1, 2, 3}); err != nil || p != 0 {
		t.Errorf("constant positive diff: p=%v err=%v", p, err)
	}
	// Zero variance, non-positive difference: p = 1.
	if p, err := PairedTTestOneTailed([]float64{1, 2}, []float64{1, 2}); err != nil || p != 1 {
		t.Errorf("identical samples: p=%v err=%v", p, err)
	}
}

func TestSpecialFunctionIdentities(t *testing.T) {
	// Incomplete beta bounds and symmetry I_x(a,b) = 1 - I_{1-x}(b,a).
	if RegIncBeta(2, 3, 0) != 0 || RegIncBeta(2, 3, 1) != 1 {
		t.Error("RegIncBeta bounds broken")
	}
	if !math.IsNaN(RegIncBeta(0, 1, 0.5)) {
		t.Error("RegIncBeta with a<=0 must be NaN")
	}
	for _, tc := range [][3]float64{{2, 5, 0.3}, {0.5, 0.5, 0.9}, {10, 1, 0.01}} {
		a, b, x := tc[0], tc[1], tc[2]
		lhs := RegIncBeta(a, b, x)
		rhs := 1 - RegIncBeta(b, a, 1-x)
		if math.Abs(lhs-rhs) > 1e-10 {
			t.Errorf("RegIncBeta symmetry fails at (%v,%v,%v): %v vs %v", a, b, x, lhs, rhs)
		}
	}
	// Student-t tails: df<=0 is NaN, t=0 is one half, symmetry holds.
	if !math.IsNaN(StudentTTail(1, 0)) {
		t.Error("StudentTTail with df=0 must be NaN")
	}
	if math.Abs(StudentTTail(0, 5)-0.5) > 1e-12 {
		t.Error("StudentTTail(0) must be 0.5")
	}
	if diff := math.Abs(StudentTTail(-2, 7) - (1 - StudentTTail(2, 7))); diff > 1e-12 {
		t.Errorf("StudentTTail symmetry diff %v", diff)
	}
}

func TestLogitPanicsOutsideOpenInterval(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Logit(%v) did not panic", p)
				}
			}()
			Logit(p)
		}()
	}
	// Inverse property where defined. Near saturation (|x| ~ 20) the
	// 1-p term cancels catastrophically, so only ~7 digits survive.
	for _, x := range []float64{-20, -1, 0, 1, 20} {
		if diff := math.Abs(Logit(Sigmoid(x)) - x); diff > 1e-6*math.Max(1, math.Abs(x)) {
			t.Errorf("Logit∘Sigmoid(%v) off by %v", x, diff)
		}
	}
}

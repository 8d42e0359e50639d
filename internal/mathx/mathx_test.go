package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestSigmoidBasics(t *testing.T) {
	if got := Sigmoid(0); got != 0.5 {
		t.Fatalf("Sigmoid(0) = %v, want 0.5", got)
	}
	if got := Sigmoid(100); got != 1 {
		t.Fatalf("Sigmoid(100) = %v, want 1", got)
	}
	if got := Sigmoid(-100); got >= 1e-40 {
		t.Fatalf("Sigmoid(-100) = %v, want ~0", got)
	}
	if got := Sigmoid(-1000); got != 0 || math.IsNaN(got) {
		t.Fatalf("Sigmoid(-1000) = %v, want exactly 0 without NaN", got)
	}
}

func TestSigmoidSymmetry(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		x = math.Mod(x, 50)
		return almostEq(Sigmoid(x)+Sigmoid(-x), 1, 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLogSigmoidMatchesLog(t *testing.T) {
	for _, x := range []float64{-30, -5, -1, 0, 1, 5, 30} {
		want := math.Log(Sigmoid(x))
		if got := LogSigmoid(x); !almostEq(got, want, 1e-9) {
			t.Errorf("LogSigmoid(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestLog1pExpExtremes(t *testing.T) {
	if got := Log1pExp(1000); got != 1000 {
		t.Fatalf("Log1pExp(1000) = %v, want 1000", got)
	}
	if got := Log1pExp(-1000); got != 0 {
		t.Fatalf("Log1pExp(-1000) = %v, want 0", got)
	}
	if got := Log1pExp(0); !almostEq(got, math.Ln2, 1e-12) {
		t.Fatalf("Log1pExp(0) = %v, want ln 2", got)
	}
}

func TestLogitInvertsSigmoid(t *testing.T) {
	for _, p := range []float64{0.01, 0.25, 0.5, 0.75, 0.99} {
		if got := Sigmoid(Logit(p)); !almostEq(got, p, 1e-12) {
			t.Errorf("Sigmoid(Logit(%v)) = %v", p, got)
		}
	}
}

func TestLogitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Logit(0) did not panic")
		}
	}()
	Logit(0)
}

func TestSoftmax(t *testing.T) {
	dst := make([]float64, 3)
	Softmax(dst, []float64{1, 2, 3})
	if !almostEq(Sum(dst), 1, 1e-12) {
		t.Fatalf("softmax does not sum to 1: %v", dst)
	}
	if !(dst[2] > dst[1] && dst[1] > dst[0]) {
		t.Fatalf("softmax not monotone: %v", dst)
	}
	// Ratio property: dst[i]/dst[j] = exp(x_i - x_j).
	if !almostEq(dst[2]/dst[1], math.E, 1e-9) {
		t.Fatalf("softmax ratio wrong: %v", dst[2]/dst[1])
	}
	// In-place aliasing.
	x := []float64{5, 5}
	Softmax(x, x)
	if !almostEq(x[0], 0.5, 1e-12) {
		t.Fatalf("in-place softmax: %v", x)
	}
}

func TestRegIncBetaKnownValues(t *testing.T) {
	// I_x(1,1) = x.
	for _, x := range []float64{0.1, 0.5, 0.9} {
		if got := RegIncBeta(1, 1, x); !almostEq(got, x, 1e-10) {
			t.Errorf("I_%v(1,1) = %v", x, got)
		}
	}
	// I_x(1,b) = 1-(1-x)^b.
	if got := RegIncBeta(1, 3, 0.3); !almostEq(got, 1-math.Pow(0.7, 3), 1e-10) {
		t.Errorf("I_0.3(1,3) = %v", got)
	}
	// Symmetry I_x(a,b) = 1 - I_{1-x}(b,a).
	f := func(ra, rb, rx float64) bool {
		a := math.Abs(math.Mod(ra, 5)) + 0.2
		b := math.Abs(math.Mod(rb, 5)) + 0.2
		x := math.Abs(math.Mod(rx, 1))
		return almostEq(RegIncBeta(a, b, x), 1-RegIncBeta(b, a, 1-x), 1e-8)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if got := RegIncBeta(2, 3, 0); got != 0 {
		t.Errorf("I_0 = %v", got)
	}
	if got := RegIncBeta(2, 3, 1); got != 1 {
		t.Errorf("I_1 = %v", got)
	}
}

func TestStudentTTailKnownValues(t *testing.T) {
	// df=1 is the Cauchy distribution: P(T > 1) = 1/4.
	if got := StudentTTail(1, 1); !almostEq(got, 0.25, 1e-9) {
		t.Fatalf("P(T_1 > 1) = %v, want 0.25", got)
	}
	if got := StudentTTail(0, 5); !almostEq(got, 0.5, 1e-12) {
		t.Fatalf("P(T_5 > 0) = %v, want 0.5", got)
	}
	// Symmetry.
	if got := StudentTTail(-1, 1); !almostEq(got, 0.75, 1e-9) {
		t.Fatalf("P(T_1 > -1) = %v, want 0.75", got)
	}
	// Large df approaches the normal tail.
	if got := StudentTTail(1.96, 1e6); !almostEq(got, 0.025, 1e-3) {
		t.Fatalf("P(T_inf > 1.96) = %v, want ~0.025", got)
	}
	// Monotone decreasing in t.
	prev := 1.0
	for tt := 0.0; tt < 5; tt += 0.5 {
		cur := StudentTTail(tt, 7)
		if cur > prev {
			t.Fatalf("tail not monotone at t=%v", tt)
		}
		prev = cur
	}
}

func TestPairedTTest(t *testing.T) {
	// Clearly better scores should give a small p-value.
	a := []float64{0.9, 0.91, 0.89, 0.92, 0.9}
	b := []float64{0.7, 0.72, 0.69, 0.71, 0.7}
	p, err := PairedTTestOneTailed(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if p > 0.001 {
		t.Fatalf("p = %v, want < 0.001", p)
	}
	// Reversed direction: p near 1.
	p, err = PairedTTestOneTailed(b, a)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.999 {
		t.Fatalf("reversed p = %v, want > 0.999", p)
	}
	// Degenerate inputs.
	if _, err := PairedTTestOneTailed([]float64{1}, []float64{2}); err == nil {
		t.Fatal("expected error for single sample")
	}
	if _, err := PairedTTestOneTailed([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("expected error for length mismatch")
	}
	// Zero variance, positive mean difference.
	p, err = PairedTTestOneTailed([]float64{2, 2}, []float64{1, 1})
	if err != nil || p != 0 {
		t.Fatalf("constant-diff p = %v err = %v", p, err)
	}
}

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); !almostEq(got, 5, 1e-12) {
		t.Fatalf("Mean = %v", got)
	}
	if got := Variance(xs); !almostEq(got, 32.0/7, 1e-12) {
		t.Fatalf("Variance = %v", got)
	}
	if got := StdDev(xs); !almostEq(got, math.Sqrt(32.0/7), 1e-12) {
		t.Fatalf("StdDev = %v", got)
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Fatal("degenerate mean/variance wrong")
	}
}

func TestDotAndSum(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %v", got)
	}
	if got := Sum([]float64{1, 2, 3}); got != 6 {
		t.Fatalf("Sum = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Dot length mismatch did not panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestMaxIndexAndTopK(t *testing.T) {
	if MaxIndex(nil) != -1 {
		t.Fatal("MaxIndex(nil)")
	}
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	if got := MaxIndex(xs); got != 5 {
		t.Fatalf("MaxIndex = %v", got)
	}
	top := TopKIndices(xs, 3)
	want := []int{5, 7, 4}
	for i := range want {
		if top[i] != want[i] {
			t.Fatalf("TopKIndices = %v, want %v", top, want)
		}
	}
	if got := TopKIndices(xs, 100); len(got) != len(xs) {
		t.Fatalf("TopKIndices over-length = %v", got)
	}
	// Values must be in descending order (property).
	f := func(raw []float64) bool {
		for i := range raw {
			if math.IsNaN(raw[i]) {
				raw[i] = 0
			}
		}
		k := 3
		got := TopKIndices(raw, k)
		for i := 1; i < len(got); i++ {
			if raw[got[i-1]] < raw[got[i]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

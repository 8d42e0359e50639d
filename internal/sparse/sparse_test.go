package sparse

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestDenseBasics(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(0, 1, 5)
	m.Add(0, 1, 2)
	if m.At(0, 1) != 7 {
		t.Fatalf("At = %v", m.At(0, 1))
	}
	if got := m.Row(0)[1]; got != 7 {
		t.Fatalf("Row alias = %v", got)
	}
	if m.Sum() != 7 {
		t.Fatalf("Sum = %v", m.Sum())
	}
	c := m.Clone()
	c.Set(0, 1, 0)
	if m.At(0, 1) != 7 {
		t.Fatal("Clone aliases original")
	}
	m.Fill(2)
	if m.Sum() != 12 {
		t.Fatalf("Fill sum = %v", m.Sum())
	}
	m.Scale(0.5)
	if m.Sum() != 6 {
		t.Fatalf("Scale sum = %v", m.Sum())
	}
}

func TestDensePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative dims did not panic")
		}
	}()
	NewDense(-1, 2)
}

func TestNormalizeRows(t *testing.T) {
	m := NewDense(2, 2)
	copy(m.Data, []float64{1, 3, 0, 0})
	m.NormalizeRows()
	if m.At(0, 0) != 0.25 || m.At(0, 1) != 0.75 {
		t.Fatalf("row 0 = %v", m.Row(0))
	}
	if m.At(1, 0) != 0.5 || m.At(1, 1) != 0.5 {
		t.Fatalf("zero row fallback = %v", m.Row(1))
	}
}

func TestTensor3(t *testing.T) {
	tt := NewTensor3(2, 3, 4)
	tt.Set(1, 2, 3, 5)
	tt.Add(1, 2, 3, 1)
	if tt.At(1, 2, 3) != 6 {
		t.Fatalf("At = %v", tt.At(1, 2, 3))
	}
	s := NewDense(2, 3)
	tt.SliceKInto(3, s)
	if s.At(1, 2) != 6 || s.At(0, 0) != 0 {
		t.Fatalf("SliceKInto = %v", s.Data)
	}
	// SliceKInto copies.
	s.Set(1, 2, 0)
	if tt.At(1, 2, 3) != 6 {
		t.Fatal("SliceKInto aliases tensor")
	}
	c := tt.Clone()
	c.Set(0, 0, 0, 9)
	if tt.At(0, 0, 0) != 0 {
		t.Fatal("Clone aliases tensor")
	}
}

// randomSmoothed builds a random smoothed vector and its dense expansion.
func randomSmoothed(r *rng.RNG, dim int) (*SmoothedVec, []float64) {
	sv := &SmoothedVec{Dim: dim, Base: r.Float64() * 0.1}
	for i := 0; i < dim; i++ {
		if r.Float64() < 0.2 {
			sv.Idx = append(sv.Idx, int32(i))
			sv.Val = append(sv.Val, r.Float64())
		}
	}
	return sv, sv.Dense()
}

func TestSmoothedDotMatchesDense(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		dim := 2 + r.Intn(30)
		x, xd := randomSmoothed(r, dim)
		y, yd := randomSmoothed(r, dim)
		var want float64
		for i := range xd {
			want += xd[i] * yd[i]
		}
		return math.Abs(x.Dot(y)-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// summingDot is Dot as it was before it could be handed the residual sums:
// both are re-summed inside the product.
func summingDot(x, y *SmoothedVec) float64 {
	s := x.Base * y.Base * float64(x.Dim)
	s += x.Base * y.ResidualSum()
	s += y.Base * x.ResidualSum()
	i, j := 0, 0
	for i < len(x.Idx) && j < len(y.Idx) {
		switch {
		case x.Idx[i] < y.Idx[j]:
			i++
		case x.Idx[i] > y.Idx[j]:
			j++
		default:
			s += x.Val[i] * y.Val[j]
			i++
			j++
		}
	}
	return s
}

// TestDotSumsBitEqualsDot: a caller that sums a vector's residual once —
// in slice order, as ResidualSum does — and hands the sum to DotSums gets
// the bits the summing product gives, whatever the two supports look like.
func TestDotSumsBitEqualsDot(t *testing.T) {
	r := rng.New(11)
	const dim = 24
	sum := func(v *SmoothedVec) float64 {
		var s float64
		for _, x := range v.Val {
			s += x
		}
		return s
	}
	check := func(what string, x, y *SmoothedVec) {
		t.Helper()
		want := summingDot(x, y)
		if got := x.DotSums(y, sum(x), sum(y)); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: DotSums %v, summing product %v", what, got, want)
		}
		if got := x.Dot(y); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: Dot %v, summing product %v", what, got, want)
		}
	}
	empty := &SmoothedVec{Dim: dim, Base: 0.03}
	for i := 0; i < 500; i++ {
		x, _ := randomSmoothed(r, dim)
		y, _ := randomSmoothed(r, dim)
		check("random", x, y)
		check("empty right", x, empty)
		check("empty left", empty, y)
		check("identical", x, x)
		// Disjoint: y keeps only the coordinates x lacks.
		dis := &SmoothedVec{Dim: dim, Base: y.Base}
		for k, c := range y.Idx {
			if residualIndex(x, c) < 0 {
				dis.Idx = append(dis.Idx, c)
				dis.Val = append(dis.Val, y.Val[k])
			}
		}
		check("disjoint", x, dis)
	}
	check("both empty", empty, empty)
}

func residualIndex(x *SmoothedVec, c int32) int {
	for k, i := range x.Idx {
		if i == c {
			return k
		}
	}
	return -1
}

func TestBilinearAggMatchesDense(t *testing.T) {
	// The central scalability property: the O(nnz^2) smoothed evaluation
	// must equal the O(C^2) dense evaluation exactly.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		dim := 2 + r.Intn(20)
		m := NewDense(dim, dim)
		for i := range m.Data {
			m.Data[i] = r.Norm()
		}
		w := make([]float64, dim)
		for i := range w {
			w[i] = r.Float64()
		}
		agg := NewBilinearAgg(m, w)
		x, xd := randomSmoothed(r, dim)
		y, yd := randomSmoothed(r, dim)
		want := EvalDense(m, w, xd, yd)
		got := agg.Eval(m, w, x, y)
		return math.Abs(got-want) < 1e-8*(1+math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBilinearAggComponents(t *testing.T) {
	m := NewDense(2, 2)
	copy(m.Data, []float64{1, 2, 3, 4})
	w := []float64{1, 0.5}
	agg := NewBilinearAgg(m, w)
	// G = M w = [1+1, 3+2] = [2, 5]; H = M^T w = [1+1.5, 2+2] = [2.5, 4];
	// T = w^T M w = 1*2 + 0.5*5 = 4.5.
	if agg.G[0] != 2 || agg.G[1] != 5 {
		t.Fatalf("G = %v", agg.G)
	}
	if agg.H[0] != 2.5 || agg.H[1] != 4 {
		t.Fatalf("H = %v", agg.H)
	}
	if agg.T != 4.5 {
		t.Fatalf("T = %v", agg.T)
	}
}

func TestBilinearAggPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-square did not panic")
		}
	}()
	NewBilinearAgg(NewDense(2, 3), []float64{1, 2})
}

func TestSmoothedResidualSumAndDense(t *testing.T) {
	sv := &SmoothedVec{Dim: 4, Base: 0.1, Idx: []int32{1, 3}, Val: []float64{0.5, 0.2}}
	if got := sv.ResidualSum(); math.Abs(got-0.7) > 1e-12 {
		t.Fatalf("ResidualSum = %v", got)
	}
	d := sv.Dense()
	want := []float64{0.1, 0.6, 0.1, 0.3}
	for i := range want {
		if math.Abs(d[i]-want[i]) > 1e-12 {
			t.Fatalf("Dense = %v", d)
		}
	}
}

func BenchmarkBilinearSparse(b *testing.B) {
	r := rng.New(1)
	const dim = 100
	m := NewDense(dim, dim)
	for i := range m.Data {
		m.Data[i] = r.Float64()
	}
	w := make([]float64, dim)
	for i := range w {
		w[i] = r.Float64()
	}
	agg := NewBilinearAgg(m, w)
	x, _ := randomSmoothedNNZ(r, dim, 5)
	y, _ := randomSmoothedNNZ(r, dim, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg.Eval(m, w, x, y)
	}
}

func BenchmarkBilinearDense(b *testing.B) {
	r := rng.New(1)
	const dim = 100
	m := NewDense(dim, dim)
	for i := range m.Data {
		m.Data[i] = r.Float64()
	}
	w := make([]float64, dim)
	for i := range w {
		w[i] = r.Float64()
	}
	x, xd := randomSmoothedNNZ(r, dim, 5)
	_, yd := randomSmoothedNNZ(r, dim, 5)
	_ = x
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EvalDense(m, w, xd, yd)
	}
}

func randomSmoothedNNZ(r *rng.RNG, dim, nnz int) (*SmoothedVec, []float64) {
	sv := &SmoothedVec{Dim: dim, Base: 0.01}
	used := map[int32]bool{}
	for len(sv.Idx) < nnz {
		i := int32(r.Intn(dim))
		if used[i] {
			continue
		}
		used[i] = true
		sv.Idx = append(sv.Idx, i)
		sv.Val = append(sv.Val, r.Float64())
	}
	// Indices must be sorted.
	for i := 1; i < len(sv.Idx); i++ {
		for j := i; j > 0 && sv.Idx[j] < sv.Idx[j-1]; j-- {
			sv.Idx[j], sv.Idx[j-1] = sv.Idx[j-1], sv.Idx[j]
			sv.Val[j], sv.Val[j-1] = sv.Val[j-1], sv.Val[j]
		}
	}
	return sv, sv.Dense()
}

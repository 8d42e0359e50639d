package sparse

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// Edge-case and property-style tests for the linear-algebra substrate:
// empty shapes, single-element smoothed distributions, degenerate rows —
// the inputs the scenario harness's adversarial presets push into the
// samplers.

func TestEmptyShapes(t *testing.T) {
	// A 0x0 matrix supports every whole-matrix operation.
	m := NewDense(0, 0)
	m.Fill(1)
	m.Scale(2)
	m.NormalizeRows()
	if s := m.Sum(); s != 0 {
		t.Fatalf("empty matrix sums to %v", s)
	}
	if c := m.Clone(); c.Rows != 0 || c.Cols != 0 || len(c.Data) != 0 {
		t.Fatalf("empty clone %+v", c)
	}

	// Rows x 0 and 0 x Cols matrices behave too.
	wide := NewDense(0, 5)
	wide.NormalizeRows()
	tall := NewDense(5, 0)
	tall.NormalizeRows()
	if tall.Sum() != 0 {
		t.Fatal("5x0 matrix has mass")
	}

	// Empty tensors and their slices.
	tn := NewTensor3(0, 0, 0)
	tn.Fill(3)
	if c := tn.Clone(); len(c.Data) != 0 {
		t.Fatalf("empty tensor clone %+v", c)
	}
}

func TestNormalizeRowsDegenerate(t *testing.T) {
	m := NewDense(4, 3)
	m.Set(0, 1, 2)          // normal row
	m.Set(1, 0, 0)          // all-zero row
	m.Set(2, 0, math.NaN()) // NaN row
	m.Set(3, 0, -1)         // negative-sum row
	m.Set(3, 1, 0.5)
	m.NormalizeRows()
	if got := m.At(0, 1); got != 1 {
		t.Fatalf("normal row not normalized: %v", got)
	}
	for _, r := range []int{1, 2, 3} {
		row := m.Row(r)
		for j, v := range row {
			if math.Abs(v-1.0/3) > 1e-15 {
				t.Fatalf("degenerate row %d[%d] = %v, want uniform 1/3", r, j, v)
			}
		}
	}
}

func TestSmoothedVecSingleElement(t *testing.T) {
	// Dim-1 smoothed distributions: the single-community degenerate case
	// (a giant-community model collapsed to |C| = 1).
	x := &SmoothedVec{Dim: 1, Base: 0.25, Idx: []int32{0}, Val: []float64{0.75}}
	y := &SmoothedVec{Dim: 1, Base: 1}
	if got, want := x.Dot(y), 1.0; math.Abs(got-want) > 1e-15 {
		t.Fatalf("dim-1 dot = %v, want %v", got, want)
	}
	if d := x.Dense(); len(d) != 1 || math.Abs(d[0]-1) > 1e-15 {
		t.Fatalf("dim-1 dense = %v", d)
	}
	// Base-only vectors (no residual): dot reduces to Bx·By·Dim.
	a := &SmoothedVec{Dim: 7, Base: 0.5}
	b := &SmoothedVec{Dim: 7, Base: 0.25}
	if got, want := a.Dot(b), 0.5*0.25*7; math.Abs(got-want) > 1e-15 {
		t.Fatalf("base-only dot = %v, want %v", got, want)
	}
}

// TestSmoothedDotEdgeSparsity is the property test: for random smoothed
// vectors of varying sparsity (including empty residuals and full
// residuals), the O(nnz) dot must equal the dense reference.
func TestSmoothedDotEdgeSparsity(t *testing.T) {
	r := rng.New(8)
	dense := func(x *SmoothedVec) []float64 { return x.Dense() }
	dotRef := func(a, b []float64) float64 {
		var s float64
		for i := range a {
			s += a[i] * b[i]
		}
		return s
	}
	randomVec := func(dim, nnz int) *SmoothedVec {
		v := &SmoothedVec{Dim: dim, Base: r.Float64() * 0.1}
		seen := map[int32]bool{}
		for len(v.Idx) < nnz {
			i := int32(r.Intn(dim))
			if seen[i] {
				continue
			}
			seen[i] = true
			v.Idx = append(v.Idx, i)
		}
		// Indices must be sorted and unique.
		for i := 1; i < len(v.Idx); i++ {
			for j := i; j > 0 && v.Idx[j] < v.Idx[j-1]; j-- {
				v.Idx[j], v.Idx[j-1] = v.Idx[j-1], v.Idx[j]
			}
		}
		for range v.Idx {
			v.Val = append(v.Val, r.Float64())
		}
		return v
	}
	for trial := 0; trial < 50; trial++ {
		dim := 1 + r.Intn(12)
		x := randomVec(dim, r.Intn(dim+1))
		y := randomVec(dim, r.Intn(dim+1))
		got := x.Dot(y)
		want := dotRef(dense(x), dense(y))
		if math.Abs(got-want) > 1e-12*(math.Abs(want)+1) {
			t.Fatalf("trial %d (dim %d): smoothed dot %v != dense %v", trial, dim, got, want)
		}
	}
}

// TestBilinearAggEdgeDims extends the property to the bilinear form
// used by the diffusion likelihood, including dim-1 and empty-residual
// corners.
func TestBilinearAggEdgeDims(t *testing.T) {
	r := rng.New(9)
	for trial := 0; trial < 30; trial++ {
		dim := 1 + r.Intn(8)
		m := NewDense(dim, dim)
		for i := range m.Data {
			m.Data[i] = r.Float64()
		}
		w := make([]float64, dim)
		for i := range w {
			w[i] = r.Float64()
		}
		mkVec := func(nnz int) *SmoothedVec {
			v := &SmoothedVec{Dim: dim, Base: r.Float64() * 0.2}
			for i := 0; i < nnz && i < dim; i++ {
				v.Idx = append(v.Idx, int32(i))
				v.Val = append(v.Val, r.Float64())
			}
			return v
		}
		x, y := mkVec(r.Intn(dim+1)), mkVec(r.Intn(dim+1))
		agg := NewBilinearAgg(m, w)
		got := agg.Eval(m, w, x, y)
		want := EvalDense(m, w, x.Dense(), y.Dense())
		if math.Abs(got-want) > 1e-12*(math.Abs(want)+1) {
			t.Fatalf("trial %d (dim %d): agg eval %v != dense %v", trial, dim, got, want)
		}
	}
}

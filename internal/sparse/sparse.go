// Package sparse provides the linear-algebra substrate for the samplers:
// dense matrices and rank-3 tensors (for the community diffusion profile
// eta), and the smoothed-multinomial decomposition that turns the paper's
// O(|C|) and O(|C|^2) bilinear forms (Eqs. 3–5) into O(nnz) operations. The
// reproduction bands flag "awkward numeric/sparse-matrix support for
// samplers" as the main Go friction point — this package is the answer.
package sparse

import "math"

// Dense is a row-major dense matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64
}

// NewDense allocates a zeroed Rows x Cols matrix.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic("sparse: NewDense with negative dimension")
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// NewDenseView wraps an existing flat, row-major buffer as a Dense without
// copying. The matrix aliases data: mutations are visible both ways, and
// callers backing the view with read-only memory (a mapped snapshot
// section) must treat the matrix as immutable — writes through it fault.
func NewDenseView(rows, cols int, data []float64) *Dense {
	if rows < 0 || cols < 0 {
		panic("sparse: NewDenseView with negative dimension")
	}
	if len(data) != rows*cols {
		panic("sparse: NewDenseView buffer length does not match shape")
	}
	return &Dense{Rows: rows, Cols: cols, Data: data}
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add increments element (i, j) by v.
func (m *Dense) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Fill sets every element to v.
func (m *Dense) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Scale multiplies every element by s.
func (m *Dense) Scale(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// Sum returns the sum of all elements.
func (m *Dense) Sum() float64 {
	var s float64
	for _, v := range m.Data {
		s += v
	}
	return s
}

// NormalizeRows scales each row to sum to 1; rows summing to <= 0 become
// uniform.
func (m *Dense) NormalizeRows() {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var s float64
		for _, v := range row {
			s += v
		}
		if s <= 0 || math.IsNaN(s) {
			u := 1 / float64(m.Cols)
			for j := range row {
				row[j] = u
			}
			continue
		}
		inv := 1 / s
		for j := range row {
			row[j] *= inv
		}
	}
}

// Tensor3 is a dense rank-3 tensor indexed (i, j, k); the community
// diffusion profile eta is a Tensor3 with shape |C| x |C| x |Z|.
type Tensor3 struct {
	D1, D2, D3 int
	Data       []float64
}

// NewTensor3 allocates a zeroed d1 x d2 x d3 tensor.
func NewTensor3(d1, d2, d3 int) *Tensor3 {
	if d1 < 0 || d2 < 0 || d3 < 0 {
		panic("sparse: NewTensor3 with negative dimension")
	}
	return &Tensor3{D1: d1, D2: d2, D3: d3, Data: make([]float64, d1*d2*d3)}
}

// NewTensor3View wraps an existing flat buffer (index order (i, j, k),
// k fastest) as a Tensor3 without copying — the rank-3 analogue of
// NewDenseView, with the same aliasing and read-only caveats.
func NewTensor3View(d1, d2, d3 int, data []float64) *Tensor3 {
	if d1 < 0 || d2 < 0 || d3 < 0 {
		panic("sparse: NewTensor3View with negative dimension")
	}
	if len(data) != d1*d2*d3 {
		panic("sparse: NewTensor3View buffer length does not match shape")
	}
	return &Tensor3{D1: d1, D2: d2, D3: d3, Data: data}
}

// At returns element (i, j, k).
func (t *Tensor3) At(i, j, k int) float64 { return t.Data[(i*t.D2+j)*t.D3+k] }

// Set assigns element (i, j, k).
func (t *Tensor3) Set(i, j, k int, v float64) { t.Data[(i*t.D2+j)*t.D3+k] = v }

// Add increments element (i, j, k) by v.
func (t *Tensor3) Add(i, j, k int, v float64) { t.Data[(i*t.D2+j)*t.D3+k] += v }

// Fill sets every element to v.
func (t *Tensor3) Fill(v float64) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Clone returns a deep copy.
func (t *Tensor3) Clone() *Tensor3 {
	c := NewTensor3(t.D1, t.D2, t.D3)
	copy(c.Data, t.Data)
	return c
}

// SliceKInto gathers t[:, :, k] into dst (shape D1 x D2), reusing dst's
// storage. The slice layers that keep every per-topic matrix in one flat
// buffer (the model and sampler caches) gather through this instead of
// allocating a fresh Dense per topic.
func (t *Tensor3) SliceKInto(k int, dst *Dense) {
	if dst.Rows != t.D1 || dst.Cols != t.D2 {
		panic("sparse: SliceKInto shape mismatch")
	}
	for i := 0; i < t.D1; i++ {
		row := dst.Row(i)
		base := i * t.D2 * t.D3
		for j := range row {
			row[j] = t.Data[base+j*t.D3+k]
		}
	}
}

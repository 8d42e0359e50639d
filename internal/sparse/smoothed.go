package sparse

// SmoothedVec represents a vector of the form
//
//	x = Base * 1 + residual,
//
// where the residual is sparse (sorted unique indices). Dirichlet-smoothed
// empirical multinomials have exactly this shape: the CPD sampler's
// pi-hat_u = (n_u^c + rho) / (n_u + |C| rho) decomposes into the constant
// rho/(n_u+|C|rho) plus a residual supported on the few communities the
// user's documents are currently assigned to. All the link probabilities in
// Eqs. 3–5 are dot products and bilinear forms of such vectors, so this
// decomposition is what makes each Gibbs step O(nnz) rather than O(|C|) or
// O(|C|^2).
type SmoothedVec struct {
	Dim  int
	Base float64
	Idx  []int32
	Val  []float64
}

// Dense expands the smoothed vector to a dense slice (for tests and
// reporting; the samplers never call this).
func (x *SmoothedVec) Dense() []float64 {
	d := make([]float64, x.Dim)
	for i := range d {
		d[i] = x.Base
	}
	for k, i := range x.Idx {
		d[i] += x.Val[k]
	}
	return d
}

// ResidualSum returns the sum of the sparse residual values.
func (x *SmoothedVec) ResidualSum() float64 {
	var s float64
	for _, v := range x.Val {
		s += v
	}
	return s
}

// Dot returns x^T y for two smoothed vectors of the same dimension:
//
//	x^T y = Bx*By*Dim + Bx*sum(py) + By*sum(px) + px^T py,
//
// O(nnz(x)+nnz(y)) instead of O(Dim).
func (x *SmoothedVec) Dot(y *SmoothedVec) float64 {
	return x.DotSums(y, x.ResidualSum(), y.ResidualSum())
}

// DotSums is Dot for a caller that already holds xSum = x.ResidualSum() and
// ySum = y.ResidualSum(): one vector is usually dotted against many, so its
// sum is worth keeping. The result has Dot's bits exactly — the same
// products are added in the same order.
func (x *SmoothedVec) DotSums(y *SmoothedVec, xSum, ySum float64) float64 {
	if x.Dim != y.Dim {
		panic("sparse: SmoothedVec.Dot dimension mismatch")
	}
	s := x.Base * y.Base * float64(x.Dim)
	s += x.Base * ySum
	s += y.Base * xSum
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

// BilinearAgg holds the per-topic aggregates needed to evaluate the CPD
// diffusion bilinear form
//
//	s = (x ∘ w)^T M (y ∘ w)
//
// in O(nnz(x) * nnz(y)) for smoothed x, y: T = w^T M w, G = M (w ∘ w)
// restricted appropriately, H = M^T (w ∘ w). Precomputing costs O(Dim^2)
// once per Gibbs sweep per topic (Sect. 4.3's stale-cache trade-off).
type BilinearAgg struct {
	// T = w^T M w.
	T float64
	// G[c] = sum_c' M[c, c'] w[c'] — i.e. (M w)[c].
	G []float64
	// H[c'] = sum_c w[c] M[c, c'] — i.e. (M^T w)[c'].
	H []float64
}

// NewBilinearAgg precomputes the aggregates for matrix M and weight vector
// w (len(w) must equal both dimensions of M, which must be square).
func NewBilinearAgg(m *Dense, w []float64) *BilinearAgg {
	if m.Rows != m.Cols || len(w) != m.Rows {
		panic("sparse: NewBilinearAgg requires square M with matching w")
	}
	n := m.Rows
	agg := &BilinearAgg{G: make([]float64, n), H: make([]float64, n)}
	for i := 0; i < n; i++ {
		row := m.Row(i)
		var g float64
		for j, v := range row {
			g += v * w[j]
			agg.H[j] += w[i] * v
		}
		agg.G[i] = g
		agg.T += w[i] * g
	}
	return agg
}

// Eval returns (x ∘ w)^T M (y ∘ w) using the precomputed aggregates. The
// caller must pass the same M and w used to build the aggregates (only the
// sparse parts of M are touched — through direct indexing — so the cost is
// O(nnz(x)*nnz(y) + nnz(x) + nnz(y))).
func (a *BilinearAgg) Eval(m *Dense, w []float64, x, y *SmoothedVec) float64 {
	// (x∘w) = Bx*w + (px∘w); expand the bilinear form into four terms.
	s := x.Base * y.Base * a.T
	for k, c := range y.Idx {
		s += x.Base * a.H[c] * y.Val[k] * w[c]
	}
	for k, c := range x.Idx {
		s += y.Base * a.G[c] * x.Val[k] * w[c]
	}
	for kx, cx := range x.Idx {
		xv := x.Val[kx] * w[cx]
		if xv == 0 {
			continue
		}
		row := m.Row(int(cx))
		var t float64
		for ky, cy := range y.Idx {
			t += row[cy] * y.Val[ky] * w[cy]
		}
		s += xv * t
	}
	return s
}

// EvalDense is the O(Dim^2) reference evaluation of the same bilinear form
// on fully dense vectors; tests verify Eval against it, and the
// BenchmarkBilinear* pair quantifies the ablation.
func EvalDense(m *Dense, w, x, y []float64) float64 {
	n := m.Rows
	var s float64
	for i := 0; i < n; i++ {
		xi := x[i] * w[i]
		if xi == 0 {
			continue
		}
		row := m.Row(i)
		var t float64
		for j := 0; j < n; j++ {
			t += row[j] * y[j] * w[j]
		}
		s += xi * t
	}
	return s
}

// Package rng implements the deterministic random number generation
// substrate for the samplers: a xoshiro256** generator seeded through
// splitmix64, plus the non-uniform samplers (Gamma, Dirichlet, Beta,
// categorical, Poisson, truncated draws) the CPD Gibbs sampler and the
// synthetic data generator need and the standard library does not provide.
//
// Every experiment in this repository is reproducible because all
// randomness flows through explicitly seeded *rng.RNG values.
//
// # The lazy Gumbel-max draw
//
// CategoricalLog picks argmax_i logits[i] + G_i with G_i = −log(−log u_i),
// one uniform u_i per candidate, ties to the lowest index. Computing every
// G_i costs two logarithms per candidate; the draw needs almost none of
// them. The contract of CategoricalLog and CategoricalLogBounded is that
// laziness is invisible:
//
//   - Same uniforms. All n uniforms are drawn first, in index order, each as
//     Uint64()>>11 redrawn on 0 — what the full scan consumes — so the
//     generator ends in the same state whichever candidates are evaluated.
//   - Same winner. A candidate that is evaluated gets the scan's expression
//     l − math.Log(−math.Log(u)), bit for bit, and the maximum is taken with
//     the scan's tie rule. A candidate is skipped only when a bound proves
//     its value is strictly below the running maximum, so it could neither
//     win nor tie.
//   - The bound is exact, not probabilistic. −log u ≥ 1−u, so G ≤ −log(1−u),
//     and G increases with u. With u = m·2⁻⁵³ the bit length L of 2⁵³−m
//     gives 1−u ≥ 2^(L−54) from one bits.Len64: G is at most its value at
//     u = 1 − 2^(L−54), a 53-entry table (at most (54−L)·ln 2). Half of all
//     uniforms have L = 53 and G ≤ 0.37; only one in 2^k can add more than
//     k·ln 2 to its logit. The candidate with the largest logit is
//     evaluated first, so the running maximum starts high and a candidate
//     whose logit trails it by a few units is ruled out by its leading bits.
//     The comparison carries a slack (skipBelow) far above the rounding
//     error of either side, which also makes it strict.
//   - What upper must satisfy (CategoricalLogBounded). upper[i] ≥ exact(i)
//     as float64 values, for every i, including the rounding of however the
//     caller computes the two; −Inf where exact(i) is −Inf; never NaN. The
//     bound need not be tight — a loose one only costs evaluations — but
//     one that is too low silently changes the draw for candidates that are
//     skipped, which is why an evaluated exact(i) above upper[i] panics.
//
// LazyStats counts candidates considered and evaluated, so the saving is
// observable without a profiler.
package rng

import (
	"math"
	"math/bits"
)

// RNG is a xoshiro256** pseudo random generator. It is NOT safe for
// concurrent use; the parallel E-step gives each worker its own RNG derived
// with Split.
type RNG struct {
	s [4]uint64
	// Lazy counts the candidates CategoricalLog and CategoricalLogBounded
	// were offered and how many they evaluated, since the owner last
	// drained it.
	Lazy LazyStats
	// spill holds the uniforms of a draw over more than lazyStack
	// candidates.
	spill []uint64
}

// New returns an RNG seeded from seed via splitmix64 (so nearby seeds give
// uncorrelated streams).
func New(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		sm += 0x9E3779B97F4A7C15
		z := sm
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		r.s[i] = z ^ (z >> 31)
	}
	// Avoid the all-zero state (cannot occur from splitmix64, but be safe).
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

// Split returns a new RNG whose stream is independent of r's, derived from
// r's state and the stream index. Used to hand one generator per worker.
func (r *RNG) Split(stream uint64) *RNG {
	return New(r.Uint64() ^ (0x9E3779B97F4A7C15 * (stream + 1)))
}

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	result := bits.RotateLeft64(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	r.s = [4]uint64{s0, s1, s2, bits.RotateLeft64(s3, 45)}
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Float64Open returns a uniform value in (0, 1): never exactly zero, so it
// is safe as a log() or division argument.
func (r *RNG) Float64Open() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return u
		}
	}
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation is overkill here;
	// modulo bias with 64-bit inputs and n < 2^32 is negligible, but reject
	// to keep the distribution exact.
	bound := uint64(n)
	threshold := -bound % bound
	for {
		v := r.Uint64()
		if v >= threshold {
			return int(v % bound)
		}
	}
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts shuffles p in place (Fisher–Yates).
func (r *RNG) ShuffleInts(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Norm returns a standard normal draw (polar Marsaglia method).
func (r *RNG) Norm() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Exp returns an Exponential(1) draw.
func (r *RNG) Exp() float64 {
	return -math.Log(r.Float64Open())
}

// Gamma returns a Gamma(shape, 1) draw using Marsaglia–Tsang for shape >= 1
// and the boost transform Gamma(a) = Gamma(a+1) * U^{1/a} for shape < 1.
// It panics if shape <= 0.
func (r *RNG) Gamma(shape float64) float64 {
	if shape <= 0 {
		panic("rng: Gamma with non-positive shape")
	}
	if shape < 1 {
		return r.Gamma(shape+1) * math.Pow(r.Float64Open(), 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.Norm()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64Open()
		x2 := x * x
		if u < 1-0.0331*x2*x2 {
			return d * v
		}
		if math.Log(u) < 0.5*x2+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Beta returns a Beta(a, b) draw.
func (r *RNG) Beta(a, b float64) float64 {
	x := r.Gamma(a)
	y := r.Gamma(b)
	return x / (x + y)
}

// Dirichlet fills dst with a Dirichlet draw with concentration alpha (one
// entry per dimension). dst and alpha must have the same length.
func (r *RNG) Dirichlet(dst, alpha []float64) {
	if len(dst) != len(alpha) {
		panic("rng: Dirichlet length mismatch")
	}
	var s float64
	for i, a := range alpha {
		g := r.Gamma(a)
		dst[i] = g
		s += g
	}
	if s <= 0 {
		u := 1 / float64(len(dst))
		for i := range dst {
			dst[i] = u
		}
		return
	}
	for i := range dst {
		dst[i] /= s
	}
}

// Categorical draws an index proportional to the non-negative weights. The
// weights need not be normalized. It panics if all weights are zero or any
// is negative/NaN.
func (r *RNG) Categorical(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic("rng: Categorical with negative or NaN weight")
		}
		total += w
	}
	if total <= 0 {
		panic("rng: Categorical with all-zero weights")
	}
	u := r.Float64() * total
	var acc float64
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}

// CategoricalLog draws an index proportional to exp(logits[i]) by the
// Gumbel-max trick, which avoids normalizing and is stable for very
// negative logits: the winner is the lowest index maximizing
// logits[i] − log(−log u_i) over one uniform u_i per candidate, drawn in
// index order. The draw is lazy (see the package comment): the winner and
// the generator's final state are those of the full scan. It panics on an
// empty slice, a NaN logit, or when every logit is −Inf.
func (r *RNG) CategoricalLog(logits []float64) int {
	return r.gumbelMax(logits, nil)
}

// CategoricalLogBounded is CategoricalLog for logits that are expensive to
// compute: exact(i) is candidate i's logit and is called only for the
// candidates upper cannot rule out — usually a handful. The result and the
// generator's final state are those of CategoricalLog over the slice
// [exact(0), …, exact(n−1)].
//
// upper[i] must be at least the float64 exact(i) returns — callers add a
// slack that covers the rounding of both sides — and should be −Inf where
// exact(i) is. It panics on a NaN in upper or in an evaluated exact(i), on
// an evaluated exact(i) above upper[i], and when no candidate is above
// −Inf.
func (r *RNG) CategoricalLogBounded(upper []float64, exact func(i int) float64) int {
	return r.gumbelMax(upper, exact)
}

// LazyStats counts what the lazy Gumbel-max draws of one generator did:
// how many candidates they were offered and for how many of those the two
// logarithms of the Gumbel value (and, for CategoricalLogBounded, the
// exact logit) were computed. Evaluated/Considered near 1 means the bounds
// prune nothing — flat logits, or an upper far above exact.
type LazyStats struct{ Considered, Evaluated uint64 }

// Add accumulates o into s.
func (s *LazyStats) Add(o LazyStats) {
	s.Considered += o.Considered
	s.Evaluated += o.Evaluated
}

// Drain moves src's counts into s, leaving src zero.
func (s *LazyStats) Drain(src *LazyStats) {
	s.Add(*src)
	*src = LazyStats{}
}

// Share is Evaluated/Considered, 0 before the first draw.
func (s LazyStats) Share() float64 {
	if s.Considered == 0 {
		return 0
	}
	return float64(s.Evaluated) / float64(s.Considered)
}

// lazyStack is the number of uniforms a draw keeps on the stack; larger
// draws use the generator's spill buffer.
const lazyStack = 128

// gumbelCap[L] bounds the Gumbel value −log(−log u) of every uniform
// u = m·2⁻⁵³ whose complement 2⁵³−m has bit length L, i.e. 1−u ≥ 2^(L−54):
// the Gumbel value increases with u, so it is at most the value at
// u = 1 − 2^(L−54) (itself at most (54−L)·ln 2, since −log u ≥ 1−u).
var gumbelCap [65]float64 // indexed by bits.Len64; entries above 53 are never read

func init() {
	for L := 1; L <= 53; L++ {
		gumbelCap[L] = -math.Log(-math.Log(1 - math.Ldexp(1, L-54)))
	}
}

// skipBelow returns the threshold under which a candidate's bound
// upper + gumbelCap rules it out against the running maximum bestV. The
// slack makes the comparison strict (a skipped candidate could not even
// have tied) and covers rounding: the bound and the value it stands for
// are each a logit plus a term below 40 in magnitude, correct to a few
// ulps, so where they are within a factor of two of bestV they are off by
// less than 1e-13 + 1e-15·|bestV|, and a bound further below than that is
// below by more than any rounding. A bestV of +Inf gives NaN, which no
// bound is below: nothing is skipped.
func skipBelow(bestV float64) float64 {
	return bestV - (1e-9 + 1e-12*math.Abs(bestV))
}

// gumbelMax is the one Gumbel-max kernel. It draws len(upper) uniforms in
// index order exactly as the full scan does (Uint64()>>11, redrawn on 0),
// evaluates the candidate with the largest bound first, and then evaluates
// another candidate only if its logit bound plus the cap on its Gumbel
// value — read off the leading bits of its uniform — reaches the running
// maximum. With exact == nil the bounds are the logits.
func (r *RNG) gumbelMax(upper []float64, exact func(i int) float64) int {
	n := len(upper)
	if n == 0 {
		panic("rng: CategoricalLog with empty logits")
	}
	first, top := 0, math.Inf(-1)
	for i, l := range upper {
		if !(l <= top) { // larger than every earlier logit, or NaN
			if math.IsNaN(l) {
				panic("rng: CategoricalLog with NaN logit")
			}
			first, top = i, l
		}
	}
	if math.IsInf(top, -1) {
		panic("rng: CategoricalLog with every logit -Inf")
	}

	var stack [lazyStack]uint64
	ms := stack[:]
	if n > lazyStack {
		if cap(r.spill) < n {
			r.spill = make([]uint64, n)
		}
		ms = r.spill
	}
	ms = ms[:n]
	for i := range ms {
		m := r.Uint64() >> 11
		for m == 0 {
			m = r.Uint64() >> 11
		}
		ms[i] = m
	}

	best, bestV := -1, math.Inf(-1)
	if v := gumbelValue(upper, exact, first, ms[first]); v > bestV {
		best, bestV = first, v
	}
	skip := skipBelow(bestV)
	evaluated := 1
	for i, m := range ms {
		if i == first || upper[i]+gumbelCap[bits.Len64(1<<53-m)] < skip {
			continue
		}
		evaluated++
		// The ascending strict-> scan keeps the lowest index among equal
		// values; only the candidate evaluated out of turn can be above i.
		if v := gumbelValue(upper, exact, i, m); v > bestV || (v == bestV && i < best) {
			best, bestV = i, v
			skip = skipBelow(v)
		}
	}
	r.Lazy.Considered += uint64(n)
	r.Lazy.Evaluated += uint64(evaluated)
	if best < 0 {
		panic("rng: CategoricalLog with every logit -Inf")
	}
	return best
}

// gumbelValue is candidate i's Gumbel-max value for the 53-bit uniform m,
// by the expression the full scan evaluates for every candidate.
func gumbelValue(upper []float64, exact func(i int) float64, i int, m uint64) float64 {
	l := upper[i]
	if exact != nil {
		l = exact(i)
		if math.IsNaN(l) {
			panic("rng: CategoricalLog with NaN logit")
		}
		if l > upper[i] {
			panic("rng: CategoricalLogBounded with an exact logit above its upper bound")
		}
	}
	u := float64(int64(m)) * (1.0 / (1 << 53)) // m < 2⁵³: the signed conversion is one instruction
	return l - math.Log(-math.Log(u))
}

// Poisson returns a Poisson(lambda) draw. Knuth's method for small lambda,
// normal approximation with continuity correction for large lambda — the
// synthetic generator only needs modest rates so accuracy at huge lambda is
// not critical.
func (r *RNG) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 50 {
		k := int(math.Floor(lambda + math.Sqrt(lambda)*r.Norm() + 0.5))
		if k < 0 {
			k = 0
		}
		return k
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Package polyagamma samples Pólya-Gamma random variables PG(1, z), the
// data-augmentation device the paper uses to make its sigmoid link
// functions Gibbs-tractable (Sect. 4.1, Eqs. 7–11 and 15–16, following
// Polson, Scott & Windle 2013).
//
// The exact sampler is Devroye's alternating-series method applied to the
// exponentially tilted Jacobi distribution J*(1, z/2); PG(1, z) = J*/4.
// A truncated infinite-sum-of-Gammas sampler is provided as a slower
// reference implementation for cross-validation in tests.
package polyagamma

import (
	"math"

	"repro/internal/rng"
)

// trunc is the left/right split point of the Jacobi density's two series
// representations (Devroye's t = 0.64).
const trunc = 0.64

// Mean returns E[PG(b, z)] = b/(2z) * tanh(z/2), with the z→0 limit b/4.
func Mean(b, z float64) float64 {
	z = math.Abs(z)
	if z < 1e-8 {
		// tanh(z/2)/(2z) → 1/4 as z → 0; second-order expansion keeps the
		// function smooth across the switch.
		return b * (0.25 - z*z/48)
	}
	return b / (2 * z) * math.Tanh(z/2)
}

// Sample draws one PG(1, z) variate using r as the randomness source.
func Sample(r *rng.RNG, z float64) float64 {
	zz := math.Abs(z) / 2
	return sampleJacobiStar(r, zz) / 4
}

// sampleJacobiStar draws from the exponentially tilted Jacobi distribution
// J*(1, zz) with zz >= 0, by Devroye's method: propose from a mixture of a
// truncated inverse Gaussian (left of trunc) and a shifted exponential
// (right of trunc), then accept via the alternating partial sums of the
// Jacobi series coefficients.
func sampleJacobiStar(r *rng.RNG, zz float64) float64 {
	fz := math.Pi*math.Pi/8 + zz*zz/2
	pRight := rightMass(zz, fz)
	for {
		var x float64
		if r.Float64() < pRight {
			x = trunc + r.Exp()/fz
		} else {
			x = truncatedInvGauss(r, zz)
		}
		// Alternating series acceptance (squeeze): S_1 > S_3 > ... > f(x)
		// and S_2 < S_4 < ... < f(x).
		s := aCoef(0, x)
		y := r.Float64() * s
		for n := 1; ; n++ {
			if n%2 == 1 {
				s -= aCoef(n, x)
				if y <= s {
					return x
				}
			} else {
				s += aCoef(n, x)
				if y > s {
					break // reject, draw a new proposal
				}
			}
		}
	}
}

// rightMass returns p/(p+q): the probability that the proposal comes from
// the exponential right tail rather than the truncated inverse Gaussian.
func rightMass(zz, fz float64) float64 {
	t := trunc
	sqrtInvT := math.Sqrt(1 / t)
	b := sqrtInvT * (t*zz - 1)
	a := -sqrtInvT * (t*zz + 1)
	x0 := math.Log(fz) + fz*t
	xb := x0 - zz + logNormCDF(b)
	xa := x0 + zz + logNormCDF(a)
	qdivp := 4 / math.Pi * (math.Exp(xb) + math.Exp(xa))
	return 1 / (1 + qdivp)
}

// logNormCDF returns log(Phi(x)) using erfc for a numerically safe left
// tail.
func logNormCDF(x float64) float64 {
	v := 0.5 * math.Erfc(-x/math.Sqrt2)
	if v > 0 {
		return math.Log(v)
	}
	// Asymptotic expansion for the far left tail: Phi(x) ~ phi(x)/|x|.
	return -0.5*x*x - math.Log(-x) - 0.5*math.Log(2*math.Pi)
}

// aCoef returns the n-th coefficient a_n(x) of the Jacobi density's series,
// using the left expansion for x <= trunc and the right expansion above.
func aCoef(n int, x float64) float64 {
	k := float64(n) + 0.5
	if x > trunc {
		return math.Pi * k * math.Exp(-k*k*math.Pi*math.Pi*x/2)
	}
	return math.Pi * k * math.Pow(2/(math.Pi*x), 1.5) * math.Exp(-2*k*k/x)
}

// truncatedInvGauss draws from an inverse Gaussian IG(mu=1/zz, lambda=1)
// truncated to (0, trunc]. For zz < 1/trunc (mu beyond the truncation
// point) it uses rejection from a scaled chi-like proposal with the
// exponential tilt applied in the acceptance step; otherwise it draws
// untruncated IG variates until one lands inside.
func truncatedInvGauss(r *rng.RNG, zz float64) float64 {
	t := trunc
	if zz < 1/t { // mu = 1/zz > t
		for {
			var e1, e2 float64
			for {
				e1, e2 = r.Exp(), r.Exp()
				if e1*e1 <= 2*e2/t {
					break
				}
			}
			x := t / ((1 + t*e1) * (1 + t*e1))
			if r.Float64() <= math.Exp(-zz*zz*x/2) {
				return x
			}
		}
	}
	mu := 1 / zz
	for {
		y := r.Norm()
		y = y * y
		muY := mu * y
		x := mu + 0.5*mu*muY - 0.5*mu*math.Sqrt(4*muY+muY*muY)
		if r.Float64() > mu/(mu+x) {
			x = mu * mu / x
		}
		if x <= t && x > 0 {
			return x
		}
	}
}

// SampleSum draws PG(1, z) by the defining infinite sum
//
//	PG(1, z) = 1/(2 pi^2) * sum_k Gamma_k / ((k-1/2)^2 + z^2/(4 pi^2))
//
// truncated at terms terms with the truncation's expectation added back.
// It is O(terms) per draw and exists as a reference for validating the
// exact sampler in tests; inference code should use Sample.
func SampleSum(r *rng.RNG, z float64, terms int) float64 {
	z = math.Abs(z)
	c := z * z / (4 * math.Pi * math.Pi)
	var s float64
	for k := 1; k <= terms; k++ {
		d := float64(k) - 0.5
		s += r.Gamma(1) / (d*d + c)
	}
	// Tail correction: E[sum_{k>terms}] with E[Gamma(1,1)] = 1.
	for k := terms + 1; k <= terms+4096; k++ {
		d := float64(k) - 0.5
		s += 1 / (d*d + c)
	}
	return s / (2 * math.Pi * math.Pi)
}

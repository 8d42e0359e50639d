package polyagamma

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// pgVariance is the closed-form Var[PG(1,z)] =
// (sinh(z) - z) / (4 z^3 cosh^2(z/2)), with the z→0 limit 1/24.
func pgVariance(z float64) float64 {
	z = math.Abs(z)
	if z < 1e-4 {
		return 1.0 / 24
	}
	c := math.Cosh(z / 2)
	return (math.Sinh(z) - z) / (4 * z * z * z * c * c)
}

func TestMeanFormula(t *testing.T) {
	// Mean must equal b/(2z) tanh(z/2) and be continuous at 0.
	for _, z := range []float64{0, 1e-9, 1e-6, 0.1, 1, 5, -3} {
		want := 0.25
		az := math.Abs(z)
		if az > 1e-12 {
			want = math.Tanh(az/2) / (2 * az)
		}
		if got := Mean(1, z); math.Abs(got-want) > 1e-9 {
			t.Errorf("Mean(1, %v) = %v, want %v", z, got, want)
		}
	}
	if got := Mean(3, 2); math.Abs(got-3*Mean(1, 2)) > 1e-12 {
		t.Fatalf("Mean not linear in b: %v", got)
	}
	// Continuity across the small-z switch.
	if d := math.Abs(Mean(1, 1e-8) - Mean(1, 2e-8)); d > 1e-12 {
		t.Fatalf("Mean discontinuous near 0: %v", d)
	}
}

func TestSampleMomentsMatchClosedForm(t *testing.T) {
	r := rng.New(99)
	const n = 60000
	for _, z := range []float64{0, 0.5, 1, 2, 5, -2} {
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			x := Sample(r, z)
			if x <= 0 {
				t.Fatalf("PG sample non-positive: %v (z=%v)", x, z)
			}
			sum += x
			sumSq += x * x
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		wantMean := Mean(1, z)
		wantVar := pgVariance(z)
		if math.Abs(mean-wantMean) > 4*math.Sqrt(wantVar/n)+1e-4 {
			t.Errorf("z=%v: sample mean %v, want %v", z, mean, wantMean)
		}
		if math.Abs(variance-wantVar) > 0.08*wantVar+1e-5 {
			t.Errorf("z=%v: sample variance %v, want %v", z, variance, wantVar)
		}
	}
}

func TestSampleMatchesReferenceSum(t *testing.T) {
	// The exact Devroye sampler and the truncated infinite-sum reference
	// must agree in distribution; compare means and a quantile.
	r := rng.New(7)
	const n = 20000
	for _, z := range []float64{0.5, 2} {
		exact := make([]float64, n)
		ref := make([]float64, n)
		var meanE, meanR float64
		for i := 0; i < n; i++ {
			exact[i] = Sample(r, z)
			ref[i] = SampleSum(r, z, 200)
			meanE += exact[i]
			meanR += ref[i]
		}
		meanE /= n
		meanR /= n
		if math.Abs(meanE-meanR) > 0.02*meanR+1e-4 {
			t.Errorf("z=%v: exact mean %v vs reference %v", z, meanE, meanR)
		}
		// Median comparison (loose).
		medE := quickMedian(exact)
		medR := quickMedian(ref)
		if math.Abs(medE-medR) > 0.05*medR+1e-3 {
			t.Errorf("z=%v: exact median %v vs reference %v", z, medE, medR)
		}
	}
}

func quickMedian(xs []float64) float64 {
	cp := append([]float64(nil), xs...)
	// Simple nth-element by sorting a copy; n is small in tests.
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	return cp[len(cp)/2]
}

func TestSampleLargeZ(t *testing.T) {
	// Large tilting must not hang or produce garbage.
	r := rng.New(3)
	for _, z := range []float64{10, 25, 50} {
		var sum float64
		const n = 5000
		for i := 0; i < n; i++ {
			x := Sample(r, z)
			if x <= 0 || math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("bad sample %v at z=%v", x, z)
			}
			sum += x
		}
		want := Mean(1, z)
		if got := sum / n; math.Abs(got-want) > 0.05*want {
			t.Fatalf("z=%v mean %v, want %v", z, got, want)
		}
	}
}

func BenchmarkSample(b *testing.B) {
	r := rng.New(1)
	for _, z := range []float64{0.5, 2, 10} {
		b.Run(formatZ(z), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Sample(r, z)
			}
		})
	}
}

func BenchmarkSampleSumReference(b *testing.B) {
	r := rng.New(1)
	for i := 0; i < b.N; i++ {
		SampleSum(r, 2, 200)
	}
}

func formatZ(z float64) string {
	switch z {
	case 0.5:
		return "z=0.5"
	case 2:
		return "z=2"
	default:
		return "z=10"
	}
}

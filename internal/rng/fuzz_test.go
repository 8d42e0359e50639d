package rng

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzCategoricalLog decodes the input as float64 logits (eight bytes
// each, so NaN, ±Inf, subnormals and 1e300 all occur) and holds the lazy
// draw to the full scan: equal index and equal generator state, or both
// panic. The same vector is then drawn through CategoricalLogBounded
// behind bounds a step above the logits.
func FuzzCategoricalLog(f *testing.F) {
	f.Add(seedVec(0, 0, 0), uint64(1))
	f.Add(seedVec(-3, 2, 0.5, 2), uint64(2))
	f.Add(seedVec(math.Inf(-1), math.Inf(-1)), uint64(3))
	f.Add(seedVec(1, math.NaN()), uint64(4))
	f.Add(seedVec(1e16, 1e16+2, 1e16), uint64(5))
	f.Add(seedVec(math.Inf(1), 7, math.Inf(1)), uint64(6))
	f.Add(seedVec(-1e300, 1e300, math.MaxFloat64, -math.MaxFloat64), uint64(7))
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		logits := make([]float64, len(data)/8)
		for i := range logits {
			logits[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		sameDraw(t, "CategoricalLog", seed, logits, func(r *RNG) int { return r.CategoricalLog(logits) })
		upper := make([]float64, len(logits))
		for i, l := range logits {
			upper[i] = math.Nextafter(l, math.Inf(1))
		}
		sameDraw(t, "CategoricalLogBounded", seed, logits, func(r *RNG) int {
			return r.CategoricalLogBounded(upper, func(i int) float64 { return logits[i] })
		})
	})
}

// FuzzCategoricalLogBounded decodes the input as (logit, slack) pairs of
// float64s and draws through CategoricalLogBounded with each bound a
// non-negative slack above its logit: |slack|, with a NaN slack read as
// +Inf, and a +Inf bound where −Inf plus that slack has no value. Loose,
// tight and infinite bounds side by side must still give the full scan's
// index and generator state, or both panic — the contract the exact
// sampler's topic draw relies on.
func FuzzCategoricalLogBounded(f *testing.F) {
	inf := math.Inf(1)
	f.Add(seedVec(0, 0, 0, 1, 0, 1e-9), uint64(1))
	f.Add(seedVec(-3, 0.5, 2, inf, 0.5, 0, 2, 1e-300), uint64(2))
	f.Add(seedVec(math.Inf(-1), inf, math.Inf(-1), 3, 1, 0), uint64(3))
	f.Add(seedVec(1, math.NaN(), 1, 2), uint64(4))
	f.Add(seedVec(1e16, 2, 1e16+2, 0, 1e16, 1e17), uint64(5))
	f.Add(seedVec(inf, 0, 7, inf, inf, 1), uint64(6))
	f.Add(seedVec(-1e300, 1e300, 1e300, -1, -40, 40), uint64(7))
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		n := len(data) / 16
		logits, upper := make([]float64, n), make([]float64, n)
		for i := range logits {
			l := math.Float64frombits(binary.LittleEndian.Uint64(data[16*i:]))
			slack := math.Abs(math.Float64frombits(binary.LittleEndian.Uint64(data[16*i+8:])))
			if math.IsNaN(slack) {
				slack = math.Inf(1)
			}
			logits[i], upper[i] = l, l+slack
			if math.IsInf(l, -1) && math.IsInf(slack, 1) {
				upper[i] = math.Inf(1)
			}
		}
		sameDraw(t, "CategoricalLogBounded", seed, logits, func(r *RNG) int {
			return r.CategoricalLogBounded(upper, func(i int) float64 { return logits[i] })
		})
	})
}

// FuzzCategoricalPrepared decodes the input as float64 weights (eight
// bytes each: negatives, NaN, +Inf, subnormals and sums that overflow all
// occur) and holds Table.Draw to Categorical: NewTable panics exactly when
// Categorical does, and otherwise every draw picks Categorical's index and
// leaves the generator in Categorical's state.
func FuzzCategoricalPrepared(f *testing.F) {
	f.Add(seedVec(1, 0, 3), uint64(1))
	f.Add(seedVec(0, 0, 2, 0, 0), uint64(2))
	f.Add(seedVec(5e-324, 5e-324, 0), uint64(3))
	f.Add(seedVec(1e300, 1e-300, 1e300), uint64(4))
	f.Add(seedVec(1e308, 1e308), uint64(5))
	f.Add(seedVec(math.Inf(1), 1), uint64(6))
	f.Add(seedVec(1, -1, math.NaN()), uint64(7))
	f.Add(seedVec(0, 0), uint64(8))
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		weights := make([]float64, len(data)/8)
		for i := range weights {
			weights[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		sameCategorical(t, seed, weights, 8)
	})
}

// seedVec encodes float64s as a fuzz seed, eight little-endian bytes each.
func seedVec(v ...float64) []byte {
	b := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	return b
}

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
	seedVec := func(v ...float64) []byte {
		b := make([]byte, 8*len(v))
		for i, x := range v {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
		}
		return b
	}
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

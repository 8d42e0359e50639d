package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"testing"
)

// runsInput encodes (value, run length) pairs as the fuzz input
// FuzzAppendFloats decodes: eight little-endian bytes of the value's bits,
// then one byte whose value mod 8, plus one, is how often it repeats.
func runsInput(runs ...any) []byte {
	var b []byte
	for i := 0; i < len(runs); i += 2 {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(runs[i].(float64)))
		b = append(b, byte(runs[i+1].(int)-1))
	}
	return b
}

// FuzzAppendFloats decodes the input into runs of repeated values (see
// runsInput; at most 300 elements), so the copy of a repeated value's
// spelling is taken at every run length, and holds AppendFloats, behind a
// prefix so that offsets into dst are not offsets into the array, to
// json.Marshal: the same bytes, or both fail. The seeds put −0 next to +0
// (equal under ==, with different bits and spellings), subnormals, values
// spelt in exponent form, and NaN and ±Inf after a run.
func FuzzAppendFloats(f *testing.F) {
	negZero := math.Copysign(0, -1)
	f.Add(runsInput(1e-4, 8, 1e-4, 8, 0.25, 1, 1e-4, 2))          // a Π row: base and a peak
	f.Add(runsInput(0.0, 3, negZero, 3, 0.0, 1, negZero, 2))      // ±0
	f.Add(runsInput(5e-324, 4, math.SmallestNonzeroFloat64*3, 2)) // subnormals
	f.Add(runsInput(1e-7, 3, 1e21, 2, -2.5e-9, 4, 123456789.0, 1))
	f.Add(runsInput(0.5, 4, math.NaN(), 1))
	f.Add(runsInput(0.5, 4, math.Inf(1), 2))
	f.Add(runsInput(-3.0, 8, math.Inf(-1), 1, 1.0, 1))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		xs := []float64{} // an empty input is [], not null
		for len(data) >= 9 && len(xs) < 300 {
			x := math.Float64frombits(binary.LittleEndian.Uint64(data))
			for n := 1 + int(data[8]%8); n > 0 && len(xs) < 300; n-- {
				xs = append(xs, x)
			}
			data = data[9:]
		}
		got, err := AppendFloats([]byte("x"), xs)
		want, wantErr := json.Marshal(xs)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("AppendFloats(%v) error %v, json.Marshal error %v", xs, err, wantErr)
		}
		if err == nil && !bytes.Equal(got[1:], want) {
			t.Fatalf("AppendFloats(%v)\n%s\njson.Marshal\n%s", xs, got[1:], want)
		}
	})
}

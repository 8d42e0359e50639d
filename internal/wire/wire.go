// Package wire holds the primitives of the serving tier's hot-message
// JSON codec: pooled byte buffers, append-style encoders that spell
// numbers and strings the way encoding/json does, and a strict scanner
// for decoding.
//
// The scanner is deliberately narrow. It walks compact or indented JSON
// with any key order, but gives up (a sticky failure the caller checks
// once, at the end) on anything whose meaning it would have to guess:
// escape sequences, null, duplicate or unknown keys, numbers outside the
// target type. The message decoders in internal/serve then hand the
// whole input to encoding/json, which therefore stays the definition of
// what a message means; the scanner only has to agree with it on the
// inputs it accepts.
package wire

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"strconv"
	"sync"
	"unicode/utf8"
)

// Buffer is a pooled byte slice. The holder owns B until PutBuffer;
// nothing handed out of B (sub-slices, strings built without copying)
// may be used after that.
type Buffer struct{ B []byte }

// maxPooled bounds what the pool retains: a buffer grown past it by one
// large body is dropped for the collector instead of pinned forever.
const maxPooled = 64 << 10

var pool = sync.Pool{New: func() any { return &Buffer{B: make([]byte, 0, 4096)} }}

// GetBuffer returns an empty buffer from the pool.
func GetBuffer() *Buffer {
	b := pool.Get().(*Buffer)
	b.B = b.B[:0]
	return b
}

// PutBuffer returns b to the pool.
func PutBuffer(b *Buffer) {
	if cap(b.B) <= maxPooled {
		pool.Put(b)
	}
}

// ReadFrom appends r to the buffer until EOF.
func (b *Buffer) ReadFrom(r io.Reader) (int64, error) {
	start := len(b.B)
	for {
		if len(b.B) == cap(b.B) {
			b.B = append(b.B, 0)[:len(b.B)]
		}
		n, err := r.Read(b.B[len(b.B):cap(b.B)])
		b.B = b.B[:len(b.B)+n]
		if err == io.EOF {
			return int64(len(b.B) - start), nil
		}
		if err != nil {
			return int64(len(b.B) - start), err
		}
	}
}

// AppendFloat appends f in encoding/json's spelling: shortest
// round-tripping digits, exponent form below 1e-6 and from 1e21. NaN and
// the infinities have no JSON spelling and return the error
// encoding/json returns for them.
func AppendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9, as encoding/json cleans it up.
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && (dst[n-3] == '-' || dst[n-3] == '+') && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// AppendFloats appends fs as a JSON array; a nil slice is null, as
// encoding/json writes it. An element with the same bits as the one
// before it copies that one's spelling instead of formatting it again:
// membership rows are mostly one repeated base value, and distinct
// values pay one comparison each.
func AppendFloats(dst []byte, fs []float64) ([]byte, error) {
	if fs == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '[')
	var err error
	// dst[prev:] spells fs[i-1] from the second element on.
	prev := 0
	for i, f := range fs {
		if i > 0 {
			dst = append(dst, ',')
			if math.Float64bits(f) == math.Float64bits(fs[i-1]) {
				end := len(dst) - 1
				dst = append(dst, dst[prev:end]...)
				prev = end + 1
				continue
			}
		}
		prev = len(dst)
		if dst, err = AppendFloat(dst, f); err != nil {
			return dst, err
		}
	}
	return append(dst, ']'), nil
}

// AppendInt32s appends xs as a JSON array (null when nil).
func AppendInt32s(dst []byte, xs []int32) []byte {
	if xs == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, x := range xs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(x), 10)
	}
	return append(dst, ']')
}

const hex = "0123456789abcdef"

// AppendString appends s as a JSON string. Quotes, backslashes, control
// characters and U+2028/U+2029 are escaped and invalid UTF-8 becomes
// U+FFFD, so the text decodes to what encoding/json's own output for s
// decodes to.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// Scanner reads one JSON document. Every method is a no-op returning a
// zero value once the scanner has failed; callers decode straight
// through and ask End once.
type Scanner struct {
	data []byte
	pos  int
	bad  bool
}

// NewScanner returns a scanner over data. Slices the scanner returns
// alias data.
func NewScanner(data []byte) Scanner { return Scanner{data: data} }

// Fail marks the document as one the scanner does not handle.
func (s *Scanner) Fail() { s.bad = true }

// Pos is the offset of the next unread byte.
func (s *Scanner) Pos() int { return s.pos }

// End reports whether the document was read completely — nothing but
// white space is left — and nothing failed.
func (s *Scanner) End() bool {
	s.ws()
	return !s.bad && s.pos == len(s.data)
}

func (s *Scanner) ws() {
	for s.pos < len(s.data) {
		switch s.data[s.pos] {
		case ' ', '\t', '\r', '\n':
			s.pos++
		default:
			return
		}
	}
}

// peek returns the next byte, or 0 at the end of the input (0 is not a
// byte any JSON token starts with).
func (s *Scanner) peek() byte {
	if s.pos < len(s.data) {
		return s.data[s.pos]
	}
	return 0
}

// expect skips white space and consumes c.
func (s *Scanner) expect(c byte) {
	s.ws()
	if s.bad || s.peek() != c {
		s.bad = true
		return
	}
	s.pos++
}

// Iter walks the members of an object or the elements of an array.
type Iter struct {
	s       *Scanner
	close   byte
	started bool
}

// Object consumes the opening brace of an object.
func (s *Scanner) Object() Iter {
	s.expect('{')
	return Iter{s: s, close: '}'}
}

// Array consumes the opening bracket of an array.
func (s *Scanner) Array() Iter {
	s.expect('[')
	return Iter{s: s, close: ']'}
}

// Next reports whether another member or element follows, consuming the
// separator before it or the closing delimiter.
func (it *Iter) Next() bool {
	s := it.s
	s.ws()
	if s.bad {
		return false
	}
	c := s.peek()
	if !it.started {
		it.started = true
		if c == it.close {
			s.pos++
			return false
		}
		return true
	}
	if c != it.close && c != ',' {
		s.bad = true
		return false
	}
	s.pos++
	return c == ','
}

// Key reads a member name and the colon after it.
func (s *Scanner) Key() []byte {
	k := s.String()
	s.expect(':')
	return k
}

// String reads a string with no escape sequences and valid UTF-8 — one
// whose bytes are its value — and fails on any other.
func (s *Scanner) String() []byte {
	s.expect('"')
	if s.bad {
		return nil
	}
	start := s.pos
	ascii := true
	for s.pos < len(s.data) {
		c := s.data[s.pos]
		if c == '"' {
			out := s.data[start:s.pos]
			s.pos++
			if !ascii && !utf8.Valid(out) {
				s.bad = true
				return nil
			}
			return out
		}
		if c == '\\' || c < 0x20 {
			break
		}
		if c >= utf8.RuneSelf {
			ascii = false
		}
		s.pos++
	}
	s.bad = true
	return nil
}

// number consumes one number token and reports whether it is written as
// an integer (no fraction, no exponent).
func (s *Scanner) number() (tok []byte, integer bool) {
	s.ws()
	if s.bad {
		return nil, false
	}
	start := s.pos
	if s.peek() == '-' {
		s.pos++
	}
	if s.peek() == '0' {
		s.pos++
	} else if !s.digits() {
		return nil, false
	}
	integer = true
	if s.peek() == '.' {
		s.pos++
		integer = false
		if !s.digits() {
			return nil, false
		}
	}
	if c := s.peek(); c == 'e' || c == 'E' {
		s.pos++
		integer = false
		if c := s.peek(); c == '+' || c == '-' {
			s.pos++
		}
		if !s.digits() {
			return nil, false
		}
	}
	return s.data[start:s.pos], integer
}

// digits consumes a run of at least one digit.
func (s *Scanner) digits() bool {
	start := s.pos
	for c := s.peek(); c >= '0' && c <= '9'; c = s.peek() {
		s.pos++
	}
	if s.pos == start {
		s.bad = true
	}
	return !s.bad
}

// Int64 reads an integer in [min, max]; fractions, exponents and values
// out of range fail, as they do for encoding/json's integer fields.
func (s *Scanner) Int64(min, max int64) int64 {
	tok, integer := s.number()
	if s.bad || !integer {
		s.bad = true
		return 0
	}
	v, err := strconv.ParseInt(string(tok), 10, 64)
	if err != nil || v < min || v > max {
		s.bad = true
		return 0
	}
	return v
}

// Int reads an int.
func (s *Scanner) Int() int { return int(s.Int64(math.MinInt, math.MaxInt)) }

// Int32 reads an int32.
func (s *Scanner) Int32() int32 { return int32(s.Int64(math.MinInt32, math.MaxInt32)) }

// Uint64 reads an unsigned integer.
func (s *Scanner) Uint64() uint64 {
	tok, integer := s.number()
	if s.bad || !integer {
		s.bad = true
		return 0
	}
	v, err := strconv.ParseUint(string(tok), 10, 64)
	if err != nil {
		s.bad = true
		return 0
	}
	return v
}

// Float64 reads a number; one that overflows float64 fails.
func (s *Scanner) Float64() float64 {
	tok, _ := s.number()
	if s.bad {
		return 0
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		s.bad = true
		return 0
	}
	return v
}

// Floats reads an array of numbers. An empty array is an empty, non-nil
// slice, as encoding/json decodes it.
func (s *Scanner) Floats() []float64 {
	out := make([]float64, 0, s.elemCap())
	for it := s.Array(); it.Next(); {
		out = append(out, s.Float64())
	}
	return out
}

// elemCap sizes the slice for the array of numbers about to be read: one
// more than the separators before its closing bracket, capped so that a
// hostile run of commas cannot reserve more than the elements it would
// take to fail.
func (s *Scanner) elemCap() int {
	rest := s.data[min(s.pos, len(s.data)):]
	end := bytes.IndexByte(rest, ']')
	if end < 0 {
		return 0
	}
	return min(bytes.Count(rest[:end], []byte{','})+1, 1<<12)
}

// Int32s reads an array of int32.
func (s *Scanner) Int32s() []int32 {
	out := make([]int32, 0, s.elemCap())
	for it := s.Array(); it.Next(); {
		out = append(out, s.Int32())
	}
	return out
}

// RawFloats checks that an array of numbers follows and returns its text
// unparsed, brackets included — for relaying a row without re-formatting
// a float.
func (s *Scanner) RawFloats() []byte {
	s.ws()
	start := s.pos
	for it := s.Array(); it.Next(); {
		s.number()
	}
	if s.bad {
		return nil
	}
	return s.data[start:s.pos]
}

// maxSkipDepth bounds Skip's recursion on hostile nesting.
const maxSkipDepth = 32

// Skip passes over one value of any type without decoding it.
func (s *Scanner) Skip() { s.skip(0) }

func (s *Scanner) skip(depth int) {
	s.ws()
	if s.bad {
		return
	}
	switch c := s.peek(); c {
	case '{', '[':
		if depth == maxSkipDepth {
			s.bad = true
			return
		}
		if c == '{' {
			for it := s.Object(); it.Next(); {
				s.skipString()
				s.expect(':')
				s.skip(depth + 1)
			}
			return
		}
		for it := s.Array(); it.Next(); {
			s.skip(depth + 1)
		}
	case '"':
		s.skipString()
	case 't':
		s.literal("true")
	case 'f':
		s.literal("false")
	case 'n':
		s.literal("null")
	default:
		s.number()
	}
}

// skipString passes over a string, escapes and all; whether each escape
// is a valid one is left to whoever decodes the value.
func (s *Scanner) skipString() {
	s.expect('"')
	for !s.bad && s.pos < len(s.data) {
		switch c := s.data[s.pos]; {
		case c == '"':
			s.pos++
			return
		case c == '\\':
			s.pos += 2
		case c < 0x20:
			s.bad = true
		default:
			s.pos++
		}
	}
	s.bad = true
}

func (s *Scanner) literal(word string) {
	if len(s.data)-s.pos < len(word) || string(s.data[s.pos:s.pos+len(word)]) != word {
		s.bad = true
		return
	}
	s.pos += len(word)
}

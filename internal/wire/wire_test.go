package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

func TestBufferReadFrom(t *testing.T) {
	// Larger than a fresh buffer and delivered a byte at a time, so the
	// read loop both grows the slice and resumes at its end.
	want := bytes.Repeat([]byte("0123456789"), 1000)
	b := GetBuffer()
	b.B = append(b.B, "head:"...)
	n, err := b.ReadFrom(iotest.OneByteReader(bytes.NewReader(want)))
	if err != nil || n != int64(len(want)) || string(b.B) != "head:"+string(want) {
		t.Fatalf("ReadFrom = %d, %v; buffer holds %d bytes", n, err, len(b.B))
	}
	PutBuffer(b)

	broken := errors.New("broken pipe")
	b = GetBuffer()
	if len(b.B) != 0 {
		t.Fatalf("a pooled buffer came back holding %d bytes", len(b.B))
	}
	n, err = b.ReadFrom(io.MultiReader(strings.NewReader("abc"), iotest.ErrReader(broken)))
	if !errors.Is(err, broken) || n != 3 || string(b.B) != "abc" {
		t.Fatalf("ReadFrom over a failing reader = %d, %v, %q", n, err, b.B)
	}
	PutBuffer(b)
}

// The pool is bounded: one huge body must not leave a huge buffer
// behind for every later request to inherit.
func TestPoolDropsOversizeBuffers(t *testing.T) {
	big := &Buffer{B: make([]byte, 0, maxPooled+1)}
	PutBuffer(big)
	for i := 0; i < 64; i++ {
		if b := GetBuffer(); b == big {
			t.Fatal("an oversize buffer went back into the pool")
		}
	}
}

func TestAppendStringMatchesJSON(t *testing.T) {
	for _, s := range []string{
		"", "plain", `"quoted" \ slashed`, "\x00\x01\x1f\x7f", "\b\f\n\r\t", "<>&", "é✓社区😀",
		"\u2028\u2029", "\xff", "a\xc3", "\xed\xa0\x80", strings.Repeat("long ", 100),
	} {
		var got, want string
		if err := json.Unmarshal(AppendString(nil, s), &got); err != nil {
			t.Errorf("AppendString(%q) is not a JSON string: %v", s, err)
			continue
		}
		ref, _ := json.Marshal(s)
		json.Unmarshal(ref, &want)
		if got != want {
			t.Errorf("AppendString(%q) decodes to %q, encoding/json's spelling to %q", s, got, want)
		}
	}
}

func TestSkip(t *testing.T) {
	for _, tc := range []struct {
		doc string
		ok  bool
	}{
		{`{"a":[1,2.5e3,{"b":null,"c":[true,false,"x\"y\\"]}],"d":{}}`, true},
		{` [ ] `, true}, {`"s"`, true}, {`-0.5`, true}, {`null`, true},
		{strings.Repeat("[", maxSkipDepth) + strings.Repeat("]", maxSkipDepth), true},
		{strings.Repeat("[", maxSkipDepth+2) + strings.Repeat("]", maxSkipDepth+2), false},
		{`{"a":1,}`, false}, {`{"a" 1}`, false}, {`[1 2]`, false}, {`nul`, false}, {`"open`, false},
		{`"trailing\`, false}, {"\"ctl\x01\"", false}, {`{"a":1}}`, false}, {`01`, false}, {``, false},
	} {
		s := NewScanner([]byte(tc.doc))
		s.Skip()
		if got := s.End(); got != tc.ok {
			t.Errorf("Skip over %q: ok = %v, want %v", tc.doc, got, tc.ok)
		}
		if tc.ok && !json.Valid([]byte(tc.doc)) {
			t.Errorf("Skip accepts %q, which is not JSON", tc.doc)
		}
	}
}

package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// awkwardFloats are the values whose JSON spelling is easiest to get
// wrong: both exponent thresholds, the extremes, and negative zero.
var awkwardFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 1e-6, 9.99e-7, 1e-7, 1e20, 1e21, 1.5e300,
	math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 123456789.125,
}

// awkwardLabels need escaping, or are the cases an escaper over-escapes.
var awkwardLabels = []string{
	"", "plain label", `quote " and \ backslash`, "tab\tnewline\ncr\r", "bell\a nul\x00 del\x7f",
	"<script>&amp;</script>", "ünïcödé ✓ 社区", "line\u2028sep\u2029arators", "bad utf8 \xff\xfe end", "\xc3",
}

// viaJSON is what encoding/json makes of v after one round trip: the
// reference every fast encoding must decode to.
func viaJSON[T any](t *testing.T, v *T) T {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("json.Marshal(%+v): %v", v, err)
	}
	var out T
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// checkEncoding asserts that the fast encoding of v decodes, under
// encoding/json, to what encoding/json's own encoding of v decodes to.
func checkEncoding[T any](t *testing.T, v *T, fast func([]byte) ([]byte, error)) {
	t.Helper()
	data, err := fast([]byte("prefix"))
	if err != nil {
		t.Fatalf("AppendWire(%+v): %v", v, err)
	}
	data, ok := bytes.CutPrefix(data, []byte("prefix"))
	if !ok {
		t.Fatalf("AppendWire clobbered the bytes before it: %q", data)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, data); err != nil || !bytes.Equal(compact.Bytes(), data) {
		t.Errorf("encoding is not compact JSON (%v): %s", err, data)
	}
	var got T
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("encoding/json rejects %s: %v", data, err)
	}
	if want := viaJSON(t, v); !reflect.DeepEqual(got, want) {
		t.Errorf("fast encoding decodes to\n %+v\nencoding/json's to\n %+v\n(%s)", got, want, data)
	}
}

func TestWireEncodingMatchesJSON(t *testing.T) {
	weights := []CommunityWeight{}
	var entries []RankEntry
	for i, f := range awkwardFloats {
		weights = append(weights, CommunityWeight{Community: i - 3, Weight: f})
		entries = append(entries, RankEntry{Community: i, Label: awkwardLabels[i%len(awkwardLabels)], Score: f, Members: i * 1000})
	}
	for _, r := range []RankResult{
		{}, {Version: 3, Entries: []RankEntry{}}, {Version: math.MaxUint64, Generation: 9, Entries: entries},
	} {
		checkEncoding(t, &r, r.AppendWire)
	}
	for _, r := range []MembershipResult{
		{}, {User: -1, Communities: []CommunityWeight{}}, {User: 42, Version: 7, Generation: 2, Communities: weights},
	} {
		checkEncoding(t, &r, r.AppendWire)
	}
	for _, f := range awkwardFloats {
		r := DiffusionResult{Version: 1, Generation: 5, Logit: f, Prob: -f}
		checkEncoding(t, &r, r.AppendWire)
	}
	for _, r := range []PiRowResult{{}, {User: 3, Row: []float64{}}, {User: 3, Version: 2, Generation: 8, Row: awkwardFloats}} {
		checkEncoding(t, &r, r.AppendWire)
		// A row is relayed as text: every float must survive to the bit,
		// the sign of zero included, which DeepEqual does not look at.
		data, _ := r.AppendWire(nil)
		var back PiRowResult
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		for i, f := range r.Row {
			if math.Float64bits(back.Row[i]) != math.Float64bits(f) {
				t.Errorf("row[%d] = %v came back as %v", i, f, back.Row[i])
			}
		}
	}
	for _, r := range []FoldInResult{
		{},
		{Pi: []float64{}, Top: []CommunityWeight{}, TopicMixture: []float64{}, DocCommunity: []int32{}, DocTopic: []int32{}},
		{Version: 4, Pi: awkwardFloats, Top: weights, TopicMixture: awkwardFloats[:3], DocCommunity: []int32{0, math.MaxInt32}, DocTopic: []int32{math.MinInt32}},
	} {
		checkEncoding(t, &r, r.AppendWire)
	}
	for _, r := range []FoldInRequest{
		{},
		{Docs: [][]int32{}, Friends: []int32{}, FriendRows: []FriendRow{}},
		{Docs: [][]int32{{1, 2}, {}, nil}, Friends: []int32{7, 8}, Seed: math.MaxUint64, Sweeps: 3, TopK: 2,
			FriendRows: []FriendRow{{User: 7, Row: awkwardFloats}, {User: 8}}, RowsGeneration: 6},
	} {
		checkEncoding(t, &r, r.AppendWire)
	}
}

// NaN and the infinities have no JSON spelling: the fast encoders must
// refuse exactly the values encoding/json refuses.
func TestWireEncodingRejectsWhatJSONRejects(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for name, v := range map[string]interface {
			AppendWire([]byte) ([]byte, error)
		}{
			"rank":       &RankResult{Entries: []RankEntry{{Score: f}}},
			"membership": &MembershipResult{Communities: []CommunityWeight{{Weight: f}}},
			"diffusion":  &DiffusionResult{Prob: f},
			"pirow":      &PiRowResult{Row: []float64{0, f}},
			"foldin":     &FoldInResult{TopicMixture: []float64{f}},
			"request":    &FoldInRequest{FriendRows: []FriendRow{{Row: []float64{f}}}},
		} {
			_, jsonErr := json.Marshal(v)
			_, fastErr := v.AppendWire(nil)
			if jsonErr == nil || fastErr == nil {
				t.Errorf("%s with %v: json error %v, fast error %v; want both to refuse", name, f, jsonErr, fastErr)
			} else if !strings.Contains(jsonErr.Error(), fastErr.Error()) {
				t.Errorf("%s with %v: fast error %q is not encoding/json's %q", name, f, fastErr, jsonErr)
			}
		}
	}
}

// decoders pairs, per decodable message, the scanner alone (ok=false
// where it gives up), the public decoder, and encoding/json.
type decoderCase struct {
	name string
	// run decodes data all three ways and returns the values with the
	// public decoder's and encoding/json's errors.
	run func(data []byte) (scanned any, scanOK bool, public any, publicErr error, ref any, refErr error)
}

func decoderOf[T any, P interface {
	*T
	scan([]byte) bool
	DecodeWire([]byte) error
}](name string) decoderCase {
	return decoderCase{name: name, run: func(data []byte) (any, bool, any, error, any, error) {
		var scanned, public, ref T
		// Decoding into a dirty value must not leak the old contents.
		json.Unmarshal([]byte(`{"version":99,"generation":99,"seed":99,"u":99,"bucket":99,"rowsGeneration":99}`), &public)
		ok := P(&scanned).scan(data)
		publicErr := P(&public).DecodeWire(data)
		refErr := json.Unmarshal(data, &ref)
		return scanned, ok, public, publicErr, ref, refErr
	}}
}

var decoders = []decoderCase{
	decoderOf[RankResult]("rank"),
	decoderOf[FoldInRequest]("foldin-request"),
	decoderOf[DiffusionRowsRequest]("diffusion-rows-request"),
}

// agree checks one input against every decoder: the public decoder and
// encoding/json fail together or return equal values, and whatever the
// scanner alone accepts, encoding/json accepts with the same value.
func agree(t *testing.T, data []byte) {
	t.Helper()
	for _, d := range decoders {
		scanned, scanOK, public, publicErr, ref, refErr := d.run(data)
		if (publicErr == nil) != (refErr == nil) {
			t.Errorf("%s: DecodeWire error %v, encoding/json error %v on %q", d.name, publicErr, refErr, data)
			continue
		}
		if refErr == nil && !reflect.DeepEqual(public, ref) {
			t.Errorf("%s: DecodeWire gives\n %+v\nencoding/json gives\n %+v\non %q", d.name, public, ref, data)
		}
		if scanOK && (refErr != nil || !reflect.DeepEqual(scanned, ref)) {
			t.Errorf("%s: the scanner accepts %q as\n %+v\nencoding/json: %+v, error %v", d.name, data, scanned, ref, refErr)
		}
	}
	// The raw row decoder promises less: it relays the row's text, which
	// the scorer parses, so it may pass on a number only the scorer
	// rejects. What encoding/json accepts it must read the same way.
	var ref PiRowResult
	refErr := json.Unmarshal(data, &ref)
	gen, row, err := DecodePiRowRaw(data)
	if refErr == nil {
		var floats []float64
		if err != nil || gen != ref.Generation || json.Unmarshal(row, &floats) != nil || !reflect.DeepEqual(floats, ref.Row) {
			t.Errorf("pirow: raw decode gives generation %d row %q error %v, encoding/json %+v on %q", gen, row, err, ref, data)
		}
	} else if err == nil {
		if _, _, fastOK := scanPiRow(data); !fastOK {
			t.Errorf("pirow: raw decode accepts %q through its fallback, encoding/json fails: %v", data, refErr)
		}
	}
	// The router's envelope scan: whatever encoding/json reads as a
	// fold-in request must scan, agree on friends and seed, and take rows.
	var req FoldInRequest
	refErr = json.Unmarshal(data, &req)
	env, err := ScanFoldIn(data)
	if refErr == nil {
		if err != nil || env.Seed != req.Seed || !slicesEqual(env.Friends, req.Friends) {
			t.Errorf("envelope: scan gives %+v error %v, encoding/json %+v on %q", env, err, req, data)
			return
		}
		var hydrated FoldInRequest
		body := env.WithRows([]int32{7}, [][]byte{[]byte("[0.5]")}, 3)
		if err := json.Unmarshal(body, &hydrated); err != nil {
			t.Errorf("envelope: body with rows is not JSON: %v: %q", err, body)
			return
		}
		req.FriendRows, req.RowsGeneration = []FriendRow{{User: 7, Row: []float64{0.5}}}, 3
		if len(req.Friends) == 0 {
			// Re-encoding a body drops an empty friends list, as omitempty does.
			req.Friends, hydrated.Friends = nil, nil
		}
		if !reflect.DeepEqual(hydrated, req) {
			t.Errorf("envelope: body with rows decodes to\n %+v\nwant\n %+v\n(%q)", hydrated, req, body)
		}
	} else if err == nil {
		if _, fastOK := scanFoldIn(data); !fastOK {
			t.Errorf("envelope: scan accepts %q through its fallback, encoding/json fails: %v", data, refErr)
		}
	}
}

// slicesEqual treats nil and empty alike: the envelope does not keep the
// difference, the forwarded body does.
func slicesEqual(a, b []int32) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// spellings returns v as encoding/json writes it compact, indented, and
// with its members reordered (a map sorts them by name).
func spellings(t *testing.T, v any) [][]byte {
	t.Helper()
	compact, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	indented, _ := json.MarshalIndent(v, "\t", "  ")
	var members map[string]json.RawMessage
	if err := json.Unmarshal(compact, &members); err != nil {
		t.Fatal(err)
	}
	reordered, _ := json.MarshalIndent(members, "", " ")
	return [][]byte{compact, indented, reordered, append([]byte(" \r\n\t"), append(compact, " \n"...)...)}
}

// wireSamples are well-formed messages of every decodable kind.
func wireSamples() []any {
	return []any{
		&RankResult{Version: 2, Generation: 3, Entries: []RankEntry{}},
		&RankResult{Version: math.MaxUint64, Entries: []RankEntry{
			{Community: 4, Label: "c4: deep learning", Score: 0.25, Members: 12},
			{Community: -1, Label: "ünïcödé ✓", Score: 1e-9, Members: 0},
			{Community: 9, Label: "", Score: -1.5e300, Members: math.MaxInt},
		}},
		&PiRowResult{User: 5, Version: 1, Generation: 2, Row: []float64{0.5, 0.25, 1e-12, 0}},
		&PiRowResult{User: 5, Row: []float64{}},
		&FoldInRequest{Docs: [][]int32{{1, 2, 3}, {4}}, Seed: 9},
		&FoldInRequest{Docs: [][]int32{{0}}, Friends: []int32{3, 4}, Seed: math.MaxUint64, Sweeps: 10, TopK: 3,
			FriendRows: []FriendRow{{User: 3, Row: []float64{0.75, 0.25}}, {User: 4, Row: []float64{}}}, RowsGeneration: 11},
		&DiffusionRowsRequest{U: 1, V: 2, Topic: 3, Bucket: -1},
		&DiffusionRowsRequest{U: 1, V: 2, VRow: []float64{0.5, 0.5}, RowsGeneration: 7},
	}
}

// oddSpellings are inputs the scanner must either read as encoding/json
// does or leave to it: escapes, nulls, unknown, duplicate and
// differently-cased members, and assorted malformed documents.
var oddSpellings = []string{
	`{"version":1,"entries":[{"community":1,"label":"a\"b\\cé\n","score":1,"members":2}]}`,
	`{"version":1,"entries":[{"community":1,"label":"😀 \ud83d","score":1,"members":2}]}`,
	"{\"entries\":[{\"label\":\"raw \xff byte\"}]}",
	"{\"entries\":[{\"label\":\"raw \x01 control\"}]}",
	`{"version":1,"entries":null}`, `null`, ` null `, `{}`, `[]`, `0`, `"x"`, ``, ` `, `{`, `}`, `{"version"}`,
	`{"version":1,"version":2}`, `{"entries":[{"score":1,"score":2}]}`, `{"Version":4,"ENTRIES":[]}`,
	`{"version":1,"extra":{"deep":[1,2,{"x":null}]},"generation":2}`,
	`{"version":01}`, `{"version":1.0}`, `{"version":1e2}`, `{"version":-1}`, `{"version":18446744073709551616}`,
	`{"generation":-0}`, `{"logit":-0,"prob":-0.0}`, `{"logit":1e999}`, `{"logit":1E-400,"prob":.5}`, `{"prob":5.}`,
	`{"logit":+1}`, `{"logit":0x10}`, `{"logit":NaN}`, `{"logit":Infinity}`, `{"logit":"1"}`, `{"logit":1,}`, `{,"logit":1}`,
	`{"version":1}{"version":2}`, `{"version":1} x`, `{"version":1}` + "\x00", `{"version" 1}`, `{"version":1 "generation":2}`,
	`{"entries":[{"community":1}{"community":2}]}`, `{"entries":[,]}`, `{"entries":[{"community":1},]}`,
	`{"entries":[{"community":9223372036854775808}]}`, `{"entries":[{"members":1.5}]}`, `{"entries":[1]}`, `{"entries":{}}`,
	`{"docs":[[1,2],[3]],"seed":5,"friendRows":[{"user":1,"row":[0.5]}]}`,
	`{"docs":[[2147483648]]}`, `{"docs":[[-2147483649]]}`, `{"docs":[[1],null,[]]}`, `{"docs":null,"friends":null}`, `{"docs":[1]}`,
	`{"docs":[[1]],"friends":[1,2,]}`, `{"docs":[[1]],"friends":[1 2]}`, `{"docs":[[1]],"seed":"9"}`, `{"docs":[[1]],"sweeps":null}`,
	`{"docs":[[1]],"seed":1,"seed":2,"friends":[1],"friends":[2]}`, `{"docs":[[1]],"docs":[[2]],"seed":3}`,
	`{"docs":[[1]],"friendRows":[{"user":1,"row":null}],"rowsGeneration":2}`, `{"docs":[[1]],"Seed":4}`,
	`{"docs":"\x"}`, `{"docs":[[1]],"topK":{"a":[true,false,null,"s\\"]}}`,
	`{"docs":` + strings.Repeat("[", 40) + strings.Repeat("]", 40) + `}`,
	`{"u":1,"v":2,"topic":0,"bucket":-1,"vrow":[1,2.5e-3,-0]}`, `{"u":1,"vrow":[]}`, `{"u":1,"vrow":[1,,2]}`, `{"vrow":[1e999]}`,
	`{"u":1,"vrow":[0.5],"rowsGeneration":3}`, `{"u":1,"rowsGeneration":3,"rowsGeneration":4}`, `{"rowsGeneration":-1}`,
	`{"u":1,"urow":[1,0],"vrow":[0.5]}`,
	`{"user":1,"generation":3,"row":[0.5,0.5]}`, `{"user":1,"row":[0.5],"row":[0.25]}`, `{"user":1,"generation":3}`, `{"row":[1e999]}`,
	`{"row":[1,"2"]}`, `{"row":[[1]]}`,
}

// TestWireDecodingMatchesJSON runs every well-formed spelling and every
// odd one through agree, and checks that the well-formed ones are
// actually read by the scanner, not by the encoding/json fallback.
func TestWireDecodingMatchesJSON(t *testing.T) {
	for _, v := range wireSamples() {
		for _, data := range spellings(t, v) {
			agree(t, data)
			var ok bool
			switch v.(type) {
			case *RankResult:
				ok = new(RankResult).scan(data)
			case *PiRowResult:
				_, _, ok = scanPiRow(data)
			case *FoldInRequest:
				ok = new(FoldInRequest).scan(data)
			case *DiffusionRowsRequest:
				ok = new(DiffusionRowsRequest).scan(data)
			}
			if !ok {
				t.Errorf("the scanner gave up on a plain spelling of %T: %s", v, data)
			}
		}
	}
	for _, s := range oddSpellings {
		agree(t, []byte(s))
	}
}

// FuzzWireDecode: for any input, each fast decoder and encoding/json
// agree on the value or both fail.
func FuzzWireDecode(f *testing.F) {
	for _, v := range wireSamples() {
		compact, _ := json.Marshal(v)
		indented, _ := json.MarshalIndent(v, "", "  ")
		f.Add(compact)
		f.Add(indented)
	}
	for _, s := range oddSpellings {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		agree(t, data)
	})
}

// A router adds rows to bodies in any spelling, the empty object
// included, and re-encodes the ones it cannot extend in place.
func TestFoldInEnvelope(t *testing.T) {
	for _, tc := range []struct {
		body    string
		inPlace bool
	}{
		{`{"docs":[[1,2]],"friends":[3,4],"seed":5}`, true},
		{"{\n  \"seed\": 5,\n  \"friends\": [3, 4],\n  \"docs\": [[1, 2]]\n}\n", true},
		{`{}`, true},
		{` { } `, true},
		{`{"docs":[[1,2]],"friends":[3,4],"seed":5,"friendRows":[{"user":3,"row":[1]}],"rowsGeneration":9}`, false},
		{`{"docs":[[1,2]],"FRIENDS":[3,4],"seed":5}`, false},
		{`{"docs":[[1,2]],"friends":[3,4],"seed":5,"comment":"x"}`, false},
	} {
		env, err := ScanFoldIn([]byte(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.body, err)
		}
		if inPlace := string(env.Body()) == tc.body; inPlace != tc.inPlace {
			t.Errorf("%s: forwarded as %s, in place = %v, want %v", tc.body, env.Body(), inPlace, tc.inPlace)
		}
		var want, got FoldInRequest
		if err := json.Unmarshal([]byte(tc.body), &want); err != nil {
			t.Fatal(err)
		}
		want.FriendRows = []FriendRow{{User: 3, Row: []float64{0.125, 1e-9}}, {User: 4, Row: []float64{}}}
		want.RowsGeneration = 2
		body := env.WithRows([]int32{3, 4}, [][]byte{[]byte("[0.125,1e-9]"), []byte("[]")}, 2)
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatalf("%s: body with rows: %v: %s", tc.body, err, body)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: body with rows decodes to %+v, want %+v", tc.body, got, want)
		}
		if !got.scan(body) {
			t.Errorf("%s: the backend's scanner gives up on the body with rows: %s", tc.body, body)
		}
	}
	if _, err := ScanFoldIn([]byte(`{"docs":[[1]`)); err == nil {
		t.Error("a truncated body scanned")
	}
}

// nullWriter is a ResponseWriter that keeps nothing, so that what a
// handler allocates is all that AllocsPerRun counts.
type nullWriter struct{ h http.Header }

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *nullWriter) WriteHeader(int)             {}

// The deterministic column of the ledger: what APIHandler allocates per
// hot request, with no socket and no recorder. Reflection JSON spent 37
// (rank), 26 (membership) and 38 (diffusion) here; the ceilings leave two
// above what it takes now, and no room for reflection or a second parse
// of the query string to come back.
func TestHotHandlerAllocations(t *testing.T) {
	m := SyntheticModel(400, 16, 8, 600, 5)
	e := testEngine(t, m, nil, Options{})
	h := APIHandler(e, nil)
	for _, tc := range []struct {
		name, target string
		ceiling      float64
	}{
		{"rank", "/api/rank?w=17,204&k=10", 14},
		{"membership", "/api/user?id=42&k=5", 11},
		{"diffusion", "/api/diffusion?u=1&v=2&topic=3&bucket=4", 11},
	} {
		req := httptest.NewRequest(http.MethodGet, tc.target, nil)
		w := &nullWriter{h: http.Header{}}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.name, rec.Code, rec.Body)
		}
		got := testing.AllocsPerRun(200, func() { h.ServeHTTP(w, req) })
		t.Logf("%s: %.1f allocations per request (ceiling %.0f)", tc.name, got, tc.ceiling)
		if got > tc.ceiling {
			t.Errorf("%s allocates %.1f times per request, ceiling %.0f", tc.name, got, tc.ceiling)
		}
	}
}

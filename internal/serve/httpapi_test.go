package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/apps"
)

func apiGet(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

func TestAPIHandler(t *testing.T) {
	m := SyntheticModel(20, 6, 4, 80, 11)
	e := testEngine(t, m, nil, Options{})
	reloaded := 0
	h := APIHandler(e, func() error { reloaded++; return nil })

	rec := apiGet(t, h, "/api/communities")
	if rec.Code != http.StatusOK {
		t.Fatalf("communities: %d", rec.Code)
	}
	var comms []CommunitySummary
	if err := json.Unmarshal(rec.Body.Bytes(), &comms); err != nil {
		t.Fatal(err)
	}
	if len(comms) != 6 {
		t.Fatalf("got %d communities", len(comms))
	}

	if rec := apiGet(t, h, "/api/community?id=2"); rec.Code != http.StatusOK {
		t.Fatalf("community: %d", rec.Code)
	}
	if rec := apiGet(t, h, "/api/community?id=77"); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad community id: %d", rec.Code)
	}
	if rec := apiGet(t, h, "/api/user?id=3&k=2"); rec.Code != http.StatusOK {
		t.Fatalf("user: %d", rec.Code)
	}
	if rec := apiGet(t, h, "/api/rank?w=1,5&k=3"); rec.Code != http.StatusOK {
		t.Fatalf("rank by word ids: %d", rec.Code)
	}
	// No vocabulary: free-text ranking answers 501.
	if rec := apiGet(t, h, "/api/rank?q=anything"); rec.Code != http.StatusNotImplemented {
		t.Fatalf("vocab-less text rank: %d", rec.Code)
	}
	if rec := apiGet(t, h, "/api/rank"); rec.Code != http.StatusBadRequest {
		t.Fatalf("empty rank: %d", rec.Code)
	}
	if rec := apiGet(t, h, "/api/diffusion?u=0&v=1&topic=2"); rec.Code != http.StatusOK {
		t.Fatalf("diffusion: %d", rec.Code)
	}

	body := `{"docs":[[1,2,3],[4]],"friends":[0],"seed":9}`
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/foldin", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("foldin: %d: %s", rec.Code, rec.Body.String())
	}
	var fr FoldInResult
	if err := json.Unmarshal(rec.Body.Bytes(), &fr); err != nil {
		t.Fatal(err)
	}
	if len(fr.Pi) != 6 || len(fr.DocCommunity) != 2 {
		t.Fatalf("foldin result %+v", fr)
	}
	// GET on a POST endpoint is rejected.
	if rec := apiGet(t, h, "/api/foldin"); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("foldin GET: %d", rec.Code)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/reload", nil))
	if rec.Code != http.StatusOK || reloaded != 1 {
		t.Fatalf("reload: %d (called %d times)", rec.Code, reloaded)
	}

	rec = apiGet(t, h, "/api/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: %d", rec.Code)
	}
	// The one fold-in served above shows up as lazy-draw counters.
	var stats StatsReport
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if lz := stats.FoldInLazy; lz == nil || lz.Considered == 0 || lz.Evaluated == 0 || lz.Evaluated > lz.Considered ||
		lz.EvaluatedShare != float64(lz.Evaluated)/float64(lz.Considered) {
		t.Fatalf("stats foldinLazy = %+v", lz)
	}
	rec = apiGet(t, h, "/healthz")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"version": 1`) {
		t.Fatalf("healthz: %d %s", rec.Code, rec.Body.String())
	}

	// A handler built with nil reload disables the endpoint.
	h2 := APIHandler(e, nil)
	rec = httptest.NewRecorder()
	h2.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/reload", nil))
	if rec.Code != http.StatusNotImplemented {
		t.Fatalf("nil reload: %d", rec.Code)
	}
}

// TestRankEndpoint pins free-text ranking over a vocabulary: a known word
// ranks, a word outside the vocabulary or an empty query is a 400. The
// vocabulary-less 501 is in TestAPIHandler.
func TestRankEndpoint(t *testing.T) {
	m := SyntheticModel(20, 6, 4, 80, 11)
	h := APIHandler(testEngine(t, m, testVocabulary(80, "word"), Options{}), nil)
	rec := apiGet(t, h, "/api/rank?q=word7&k=3")
	if rec.Code != http.StatusOK {
		t.Fatalf("text rank: %d %s", rec.Code, rec.Body.String())
	}
	var ranked RankResult
	if err := json.Unmarshal(rec.Body.Bytes(), &ranked); err != nil {
		t.Fatal(err)
	}
	if len(ranked.Entries) != 3 {
		t.Fatalf("text rank answered %d entries, want 3", len(ranked.Entries))
	}
	if rec := apiGet(t, h, "/api/rank?q=zzzz-unknown"); rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown word: %d", rec.Code)
	}
	if rec := apiGet(t, h, "/api/rank?q="); rec.Code != http.StatusBadRequest {
		t.Fatalf("empty query: %d", rec.Code)
	}
}

// TestGraphEndpoint pins the Fig. 7 export: /api/graph answers exactly
// what apps.BuildDiffusionGraph renders for the served model (DOT byte for
// byte, JSON field for field). Its error statuses are in
// TestAPIHandlerErrorPaths.
func TestGraphEndpoint(t *testing.T) {
	m := SyntheticModel(20, 6, 4, 80, 11)
	vocab := testVocabulary(80, "word")
	h := APIHandler(testEngine(t, m, vocab, Options{}), nil)
	for _, topic := range []int{-1, 0} {
		want := apps.BuildDiffusionGraph(m, vocab, topic)
		if len(want.Edges) == 0 {
			t.Fatalf("topic %d: the fixture's diffusion graph has no edges", topic)
		}
		var dot bytes.Buffer
		if err := want.WriteDOT(&dot); err != nil {
			t.Fatal(err)
		}
		paths := []string{"/api/graph?format=dot&topic=" + strconv.Itoa(topic)}
		if topic == -1 {
			paths = append(paths, "/api/graph?format=dot") // the default
		}
		for _, path := range paths {
			rec := apiGet(t, h, path)
			if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "text/vnd.graphviz" {
				t.Fatalf("%s: %d %q", path, rec.Code, rec.Header().Get("Content-Type"))
			}
			if !bytes.Equal(rec.Body.Bytes(), dot.Bytes()) {
				t.Fatalf("%s differs from WriteDOT:\n%s\nwant:\n%s", path, rec.Body.String(), dot.String())
			}
		}
		rec := apiGet(t, h, "/api/graph?snapshot=default&topic="+strconv.Itoa(topic))
		if rec.Code != http.StatusOK {
			t.Fatalf("graph JSON topic %d: %d", topic, rec.Code)
		}
		var got apps.DiffusionGraph
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(&got, want) {
			t.Fatalf("graph JSON topic %d = %+v, want %+v", topic, got, want)
		}
	}
}

// TestIndexPage pins that / serves the SocialLens page; every other
// unmatched path is a 404 (in TestAPIHandlerErrorPaths).
func TestIndexPage(t *testing.T) {
	m := SyntheticModel(20, 6, 4, 80, 11)
	h := APIHandler(testEngine(t, m, testVocabulary(80, "word"), Options{}), nil)
	rec := apiGet(t, h, "/")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "SocialLens") {
		t.Fatalf("page: %d", rec.Code)
	}
}

// TestAPIHandlerErrorPaths closes the error-path gaps the happy-path test
// above leaves open: malformed and oversize bodies, out-of-range ids,
// unparsable parameters, fold-in limit violations and failing reloads.
func TestAPIHandlerErrorPaths(t *testing.T) {
	m := SyntheticModel(20, 6, 4, 80, 11)
	e := NewMulti(Options{})
	t.Cleanup(e.Close)
	s := e.buildSnapshot(DefaultSnapshot, m, nil, nil, nil)
	s.Generation = 5 // so that rows can match it, and miss it, without being zero
	e.publish(s)
	reloadErr := error(nil)
	h := APIHandler(e, func() error { return reloadErr })

	// A router's row-carrying diffusion: v's row as its owner serves it,
	// from generation gen. Its path names the same pair, so a 200 can be
	// held against the GET's answer.
	pirow, err := e.PiRowIn(DefaultSnapshot, 1)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := pirow.AppendWire(nil)
	_, vrow, _ := DecodePiRowRaw(raw)
	diffusionRows := func(gen uint64) string {
		return string(AppendDiffusionRowsRequest(nil, 0, 1, 2, -1, vrow, gen))
	}
	const diffusionPair = "/api/diffusion?u=0&v=1&topic=2&bucket=-1"

	// Oversize fold-in body: MaxBytesReader must cut the request off at
	// 16 MiB before the JSON for an over-limit request can materialize.
	oversize := `{"docs":[[` + strings.Repeat("0,", 9<<20) + `0]]}`
	if len(oversize) <= 16<<20 {
		t.Fatalf("oversize body is only %d bytes", len(oversize))
	}
	// Friend list above MaxFoldInFriends (ids all valid individually).
	manyFriends := `{"docs":[[1]],"friends":[` + strings.TrimSuffix(strings.Repeat("0,", MaxFoldInFriends+1), ",") + `]}`

	cases := []struct {
		name   string
		method string
		path   string
		body   string
		want   int
	}{
		{"community id missing", "GET", "/api/community", "", http.StatusBadRequest},
		{"community id not a number", "GET", "/api/community?id=abc", "", http.StatusBadRequest},
		{"community id negative", "GET", "/api/community?id=-1", "", http.StatusBadRequest},
		{"community id out of range", "GET", "/api/community?id=77", "", http.StatusBadRequest},
		{"user id missing", "GET", "/api/user", "", http.StatusBadRequest},
		{"user id out of range", "GET", "/api/user?id=999", "", http.StatusBadRequest},
		{"rank no query", "GET", "/api/rank", "", http.StatusBadRequest},
		{"rank bad word id", "GET", "/api/rank?w=1,x", "", http.StatusBadRequest},
		{"rank word out of range", "GET", "/api/rank?w=80", "", http.StatusBadRequest},
		{"rank negative word", "GET", "/api/rank?w=-3", "", http.StatusBadRequest},
		{"diffusion params missing", "GET", "/api/diffusion?u=1", "", http.StatusBadRequest},
		{"diffusion user out of range", "GET", "/api/diffusion?u=99&v=1&topic=0", "", http.StatusBadRequest},
		{"diffusion topic out of range", "GET", "/api/diffusion?u=0&v=1&topic=44", "", http.StatusBadRequest},
		{"diffusion rows stale generation", "POST", diffusionPair, diffusionRows(4), http.StatusConflict},
		{"diffusion rows matching generation", "POST", diffusionPair, diffusionRows(5), http.StatusOK},
		{"diffusion rows zero generation", "POST", diffusionPair, diffusionRows(0), http.StatusOK},
		{"foldin malformed JSON", "POST", "/api/foldin", `{"docs":[[1,2`, http.StatusBadRequest},
		{"foldin not JSON at all", "POST", "/api/foldin", `not json`, http.StatusBadRequest},
		{"foldin no docs", "POST", "/api/foldin", `{"docs":[]}`, http.StatusBadRequest},
		{"foldin empty doc", "POST", "/api/foldin", `{"docs":[[]]}`, http.StatusBadRequest},
		{"foldin word out of range", "POST", "/api/foldin", `{"docs":[[80]]}`, http.StatusBadRequest},
		{"foldin sweeps over limit", "POST", "/api/foldin", `{"docs":[[1]],"sweeps":501}`, http.StatusBadRequest},
		{"foldin friend out of range", "POST", "/api/foldin", `{"docs":[[1]],"friends":[20]}`, http.StatusBadRequest},
		{"foldin too many friends", "POST", "/api/foldin", manyFriends, http.StatusBadRequest},
		{"foldin oversize body", "POST", "/api/foldin", oversize, http.StatusBadRequest},
		{"foldin wrong method", "GET", "/api/foldin", "", http.StatusMethodNotAllowed},
		{"reload wrong method", "GET", "/api/reload", "", http.StatusMethodNotAllowed},
		{"graph topic below -1", "GET", "/api/graph?topic=-2", "", http.StatusBadRequest},
		{"graph topic out of range", "GET", "/api/graph?topic=999", "", http.StatusBadRequest},
		{"graph topic equals |Z|", "GET", "/api/graph?topic=4", "", http.StatusBadRequest},
		{"graph topic not a number", "GET", "/api/graph?topic=x", "", http.StatusBadRequest},
		{"graph unknown snapshot", "GET", "/api/graph?snapshot=nope", "", http.StatusNotFound},
		{"unknown path", "GET", "/nope", "", http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var body io.Reader
			if tc.body != "" {
				body = strings.NewReader(tc.body)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, body))
			if rec.Code != tc.want {
				t.Fatalf("%s %s: status %d, want %d (%s)",
					tc.method, tc.path, rec.Code, tc.want, strings.TrimSpace(rec.Body.String()))
			}
			if rec.Code == http.StatusOK {
				// Only a row-carrying POST answers 200 here, and it must
				// answer what a GET of its path does, byte for byte.
				if get := apiGet(t, h, tc.path); get.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), get.Body.Bytes()) {
					t.Fatalf("POST %s answers %s, the GET %d %s", tc.path, rec.Body, get.Code, get.Body)
				}
			}
		})
	}

	// Reload of a missing path: the wired reload callback fails, the
	// handler must answer 500 and leave the serving snapshot untouched.
	t.Run("reload failure", func(t *testing.T) {
		reloadErr = errors.New("stat /no/such/model.snap: no such file")
		defer func() { reloadErr = nil }()
		before := acquireView(t, e).Version
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/reload", nil))
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("failing reload: status %d", rec.Code)
		}
		if acquireView(t, e).Version != before {
			t.Fatal("failing reload still swapped the snapshot")
		}
	})

	// The real reload path against a missing file behaves the same way.
	t.Run("engine reload missing file", func(t *testing.T) {
		if _, err := e.LoadGeneration(DefaultSnapshot, "/no/such/model.snap", nil, 0); err == nil {
			t.Fatal("LoadGeneration accepted a missing model path")
		}
	})
}

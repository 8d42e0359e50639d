package stream

import (
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/socialgraph"
	"repro/internal/synth"
)

// testBase trains a small base model and returns it with its graph.
func testBase(t *testing.T) (*socialgraph.Graph, *core.Model) {
	t.Helper()
	g, _ := synth.Generate(synth.TwitterLike(60, 17))
	m, _, err := core.Train(g, core.Config{
		NumCommunities: 4, NumTopics: 6, EMIters: 4, Workers: 2,
		Seed: 3, Rho: 0.25, WarmStartSweeps: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, m
}

// newTestUpdater stands up engine + journal + updater over a fresh base.
func newTestUpdater(t testing.TB, g *socialgraph.Graph, m *core.Model, mod func(*Options)) (*serve.Engine, *Journal, *Updater) {
	t.Helper()
	engine := serve.New(m, nil, serve.Options{})
	t.Cleanup(engine.Close)
	j, err := OpenJournal(filepath.Join(t.TempDir(), "events.wal"), JournalOptions{SyncEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	opts := Options{
		Engine:       engine,
		Dir:          t.TempDir(),
		WindowEvents: 4,
		FoldSweeps:   8,
		FoldSeed:     99,
	}
	if mod != nil {
		mod(&opts)
	}
	u, err := NewUpdater(j, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(u.Close)
	return engine, j, u
}

// streamFixture is a small deterministic event stream: two new users with
// documents and edges, one changed base user, one diffusion.
func streamFixture(g *socialgraph.Graph, m *core.Model) []Event {
	n := int32(m.NumUsers)
	return []Event{
		{Type: EvAddUser},
		{Type: EvAddDoc, User: n, Time: 100, Words: g.Docs[0].Words},
		{Type: EvAddEdge, User: n, Target: 0},
		{Type: EvAddUser},
		{Type: EvAddDoc, User: n + 1, Time: 110, Words: g.Docs[1].Words},
		{Type: EvAddDoc, User: n + 1, Time: 120, Words: g.Docs[2].Words},
		{Type: EvAddEdge, User: n + 1, Target: 3},
		{Type: EvAddEdge, User: n, Target: n + 1},
		{Type: EvDiffusion, User: n, Target: 0, Time: 130, Words: g.Docs[0].Words[:2]},
		{Type: EvAddDoc, User: 2, Time: 140, Words: g.Docs[3].Words},
	}
}

func TestUpdaterIngestPublishFreshness(t *testing.T) {
	g, m := testBase(t)
	engine, _, u := newTestUpdater(t, g, m, nil)
	evs := streamFixture(g, m)
	resolved, err := u.Ingest(evs)
	if err != nil {
		t.Fatal(err)
	}
	if resolved[0].User != int32(m.NumUsers) || resolved[3].User != int32(m.NumUsers)+1 {
		t.Fatalf("add-user ids not assigned densely: %d, %d", resolved[0].User, resolved[3].User)
	}
	// Before the publish the new user is invisible.
	if _, err := engine.MembershipIn(serve.DefaultSnapshot, m.NumUsers, 3); err == nil {
		t.Fatal("new user visible before any publish")
	}
	info, err := u.Publish()
	if err != nil {
		t.Fatal(err)
	}
	if info == nil || info.Generation != 1 || info.Users != m.NumUsers+2 {
		t.Fatalf("unexpected publish info %+v", info)
	}
	// One publish cycle later, every ingested event is query-visible.
	for _, id := range []int{m.NumUsers, m.NumUsers + 1} {
		res, err := engine.MembershipIn(serve.DefaultSnapshot, id, 3)
		if err != nil {
			t.Fatalf("membership of streamed user %d: %v", id, err)
		}
		if len(res.Communities) == 0 {
			t.Fatalf("streamed user %d has no membership", id)
		}
	}
	st := u.Status()
	if st.PendingEvents != 0 || st.Generation != 1 || st.StreamDocs != 5 {
		t.Fatalf("status after publish: %+v", st)
	}
	if st.Watermark != st.JournalTail {
		t.Fatalf("watermark %d did not reach the tail %d", st.Watermark, st.JournalTail)
	}
	// A published no-change publish is a no-op.
	info2, err := u.Publish()
	if err != nil {
		t.Fatal(err)
	}
	if info2 != nil {
		t.Fatalf("empty publish produced generation %d", info2.Generation)
	}
}

// TestReplayEqualsBatch is the core determinism contract: event-by-event
// ingestion with a publish per window yields bit-identical memberships to
// batch-folding the same final corpus in one publish.
func TestReplayEqualsBatch(t *testing.T) {
	g, m := testBase(t)
	evs := streamFixture(g, m)

	_, _, incr := newTestUpdater(t, g, m, nil)
	for i := range evs {
		if _, err := incr.Ingest(evs[i : i+1]); err != nil {
			t.Fatal(err)
		}
		if _, err := incr.Publish(); err != nil { // publish every event: worst case
			t.Fatal(err)
		}
	}
	_, _, batch := newTestUpdater(t, g, m, nil)
	if _, err := batch.Ingest(evs); err != nil {
		t.Fatal(err)
	}
	if _, err := batch.Publish(); err != nil {
		t.Fatal(err)
	}

	a := incr.Model()
	b := batch.Model()
	if !reflect.DeepEqual(a.Pi.Data, b.Pi.Data) {
		t.Fatal("incremental replay and batch fold-in disagree on memberships")
	}
	if !reflect.DeepEqual(a.DocCommunity, b.DocCommunity) || !reflect.DeepEqual(a.DocTopic, b.DocTopic) {
		t.Fatal("incremental replay and batch fold-in disagree on document assignments")
	}
}

func TestUpdaterGibbsPass(t *testing.T) {
	g, m := testBase(t)
	run := func() *core.Model {
		_, _, u := newTestUpdater(t, g, m, func(o *Options) {
			o.GibbsEvery = 2
			o.GibbsSweeps = 2
			o.BaseGraph = g
			o.Workers = 2
		})
		evs := streamFixture(g, m)
		if _, err := u.Ingest(evs); err != nil {
			t.Fatal(err)
		}
		if _, err := u.Publish(); err != nil { // publish 1: fold only
			t.Fatal(err)
		}
		if _, err := u.Ingest([]Event{{Type: EvAddDoc, User: int32(m.NumUsers), Time: 200, Words: g.Docs[4].Words}}); err != nil {
			t.Fatal(err)
		}
		info, err := u.Publish() // publish 2: delta-Gibbs
		if err != nil {
			t.Fatal(err)
		}
		if !info.Gibbs {
			t.Fatal("second publish did not run the delta-Gibbs pass")
		}
		if st := u.Status(); st.GibbsPasses != 1 {
			t.Fatalf("GibbsPasses = %d, want 1", st.GibbsPasses)
		}
		out := u.Model()
		if err := out.CheckShapes(); err != nil {
			t.Fatalf("delta-Gibbs output fails shape checks: %v", err)
		}
		return out
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.Pi.Data, b.Pi.Data) || !reflect.DeepEqual(a.Theta.Data, b.Theta.Data) {
		t.Fatal("delta-Gibbs publishes are not deterministic")
	}
	if reflect.DeepEqual(a.Theta.Data, m.Theta.Data) {
		t.Fatal("delta-Gibbs pass left the content profiles untouched — it did not re-estimate")
	}
}

func TestUpdaterValidation(t *testing.T) {
	g, m := testBase(t)
	_, j, u := newTestUpdater(t, g, m, nil)
	n := int32(m.NumUsers)
	bad := [][]Event{
		{{Type: EvAddDoc, User: n + 5, Words: []int32{1}}},                 // unknown user
		{{Type: EvAddDoc, User: 0}},                                        // empty doc
		{{Type: EvAddDoc, User: 0, Words: []int32{int32(m.NumWords)}}},     // OOV word
		{{Type: EvAddEdge, User: 0, Target: 0}},                            // self edge
		{{Type: EvAddEdge, User: 0, Target: n + 9}},                        // unknown target
		{{Type: EvDiffusion, User: 0, Target: 1 << 20, Words: []int32{1}}}, // unknown doc
		{{Type: EvAddUser, User: n + 3}},                                   // non-dense id
		{{Type: EventType(77), User: 0}},                                   // unknown type
	}
	for i, evs := range bad {
		if _, err := u.Ingest(evs); err == nil {
			t.Fatalf("bad batch %d accepted", i)
		}
	}
	if j.Events() != 0 {
		t.Fatalf("rejected batches reached the journal (%d events)", j.Events())
	}
	// A batch failing mid-validation journals nothing.
	mixed := []Event{{Type: EvAddUser}, {Type: EvAddDoc, User: n, Words: []int32{0}}, {Type: EvAddDoc, User: 0}}
	if _, err := u.Ingest(mixed); err == nil {
		t.Fatal("mixed bad batch accepted")
	}
	if j.Events() != 0 || u.Pending() != 0 {
		t.Fatal("failed batch left partial state behind")
	}
	// Every publish is a committed file: an updater without a directory is
	// refused before it touches anything.
	if _, err := NewUpdater(j, Options{Engine: u.opts.Engine}); err == nil || !strings.Contains(err.Error(), "Options.Dir") {
		t.Fatalf("an updater without Dir: %v, want an error naming Options.Dir", err)
	}
}

func TestIngestHTTPAndDrain(t *testing.T) {
	g, m := testBase(t)
	engine, _, u := newTestUpdater(t, g, m, nil)
	h := u.Handler()

	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/ingest", strings.NewReader(body)))
		return rec
	}
	rec := post(`{"events":[{"type":"add-user"},{"type":"add-doc","user":` +
		strconv.Itoa(m.NumUsers) + `,"words":[1,2,3]}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest answered %d: %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), `"accepted": 2`) {
		t.Fatalf("unexpected ingest response: %s", rec.Body.String())
	}
	rec = post(`[{"type":"add-doc","user":0,"words":[4]}]`) // bare-array form
	if rec.Code != http.StatusOK {
		t.Fatalf("bare-array ingest answered %d", rec.Code)
	}
	if rec := post(`{"events":[{"type":"add-doc","user":99999,"words":[1]}]}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("invalid event answered %d", rec.Code)
	}
	// A body cut off mid-batch is refused whole, not ingested up to the cut.
	for _, cut := range []string{`[{"type":"add-user"}`, `[{"type":"add-user"},`, `{"events":[{"type":"add-user"}]`} {
		before := u.Pending()
		if rec := post(cut); rec.Code != http.StatusBadRequest || u.Pending() != before {
			t.Fatalf("truncated body %q answered %d, pending %d -> %d", cut, rec.Code, before, u.Pending())
		}
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/ingest/status", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"pendingEvents"`) {
		t.Fatalf("status answered %d: %s", rec.Code, rec.Body.String())
	}

	// Drain: ingest closes with 503, pending events are published.
	if err := u.Drain(); err != nil {
		t.Fatal(err)
	}
	if rec := post(`[{"type":"add-user"}]`); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("ingest while draining answered %d", rec.Code)
	}
	if u.Pending() != 0 {
		t.Fatalf("%d events still pending after drain", u.Pending())
	}
	if _, err := engine.MembershipIn(serve.DefaultSnapshot, m.NumUsers, 3); err != nil {
		t.Fatalf("drained events not visible: %v", err)
	}
	if err := u.Drain(); err != nil { // idempotent
		t.Fatal(err)
	}
}

// TestPublishKeepsTheSlotVocabulary: the updater takes its vocabulary from
// the slot it publishes into, as it takes its base model. A slot served
// with a vocabulary keeps its word labels and free-text rank across a
// publish, and the publish patches the index rather than rebuilding it
// for a changed vocabulary.
func TestPublishKeepsTheSlotVocabulary(t *testing.T) {
	g, m := testBase(t)
	vocab := synth.BuildVocabulary(synth.TwitterLike(60, 17))
	engine := serve.New(m, vocab, serve.Options{})
	t.Cleanup(engine.Close)
	_, _, u := newTestUpdater(t, g, m, func(o *Options) { o.Engine = engine })
	served := func() (label string, build serve.BuildInfo) {
		t.Helper()
		s, release, err := engine.AcquireNamed(serve.DefaultSnapshot)
		if err != nil {
			t.Fatal(err)
		}
		defer release()
		return s.Label(0), s.Build()
	}
	query := vocab.Word(int(g.Docs[0].Words[0]))
	label, _ := served()
	if label == "c00" {
		t.Fatalf("the slot labels community 0 %q before any publish; the fixture needs word labels", label)
	}
	if _, err := engine.RankTextIn(serve.DefaultSnapshot, query, 3); err != nil {
		t.Fatalf("free-text rank before any publish: %v", err)
	}

	if _, err := u.Ingest([]Event{{Type: EvAddDoc, User: 3, Time: 1, Words: g.Docs[1].Words}}); err != nil {
		t.Fatal(err)
	}
	if _, err := u.Publish(); err != nil {
		t.Fatal(err)
	}
	after, build := served()
	if after != label {
		t.Fatalf("after a publish community 0 is labelled %q, before it %q", after, label)
	}
	if _, err := engine.RankTextIn(serve.DefaultSnapshot, query, 3); err != nil {
		t.Fatalf("free-text rank after a publish: %v", err)
	}
	if build.Kind != serve.BuildPatched {
		t.Fatalf("the publish built %+v, want a patched index", build)
	}
}

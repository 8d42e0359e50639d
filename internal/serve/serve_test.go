package serve

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/sparse"
	"repro/internal/store"
)

func testEngine(t *testing.T, m *core.Model, vocab *corpus.Vocabulary, opts Options) *Engine {
	t.Helper()
	e := New(m, vocab, opts)
	t.Cleanup(e.Close)
	return e
}

// TestRankIndexExactSingleWord: with full posting lists, a single-word
// query through the inverted index must reproduce Eq. 19's scores — for
// one word the softmax topic posterior IS the per-word posterior the index
// decomposes over.
func TestRankIndexExactSingleWord(t *testing.T) {
	m := SyntheticModel(50, 12, 8, 300, 1)
	e := testEngine(t, m, nil, Options{PostingsPerWord: m.Cfg.NumCommunities})
	for _, w := range []int32{0, 7, 123, 299} {
		want := m.RankCommunities([]int32{w})
		res, err := e.RankIn(DefaultSnapshot, []int32{w}, m.Cfg.NumCommunities)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]float64, len(want))
		for _, entry := range res.Entries {
			got[entry.Community] = entry.Score
		}
		for c := range want {
			if math.Abs(want[c]-got[c]) > 1e-9*(math.Abs(want[c])+1e-12) {
				t.Fatalf("word %d community %d: index %g vs full scan %g", w, c, got[c], want[c])
			}
		}
	}
}

// TestRankTruncatedPostings: a truncated index must (a) bound posting
// lists and (b) agree with the full index on single-word top-k whenever
// k <= PostingsPerWord (truncation keeps exactly the per-word top scores).
func TestRankTruncatedPostings(t *testing.T) {
	m := SyntheticModel(50, 16, 8, 200, 2)
	full := testEngine(t, m, nil, Options{PostingsPerWord: 16})
	trunc := testEngine(t, m, nil, Options{PostingsPerWord: 4})
	if got := acquireView(t, trunc).index.PostingsPerWord(); got > 4 {
		t.Fatalf("posting list length %d exceeds bound 4", got)
	}
	for _, w := range []int32{3, 77, 150} {
		a, err := full.RankIn(DefaultSnapshot, []int32{w}, 4)
		if err != nil {
			t.Fatal(err)
		}
		b, err := trunc.RankIn(DefaultSnapshot, []int32{w}, 4)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.Entries {
			if a.Entries[i].Community != b.Entries[i].Community {
				t.Fatalf("word %d rank %d: full %d vs truncated %d",
					w, i, a.Entries[i].Community, b.Entries[i].Community)
			}
		}
	}
	// Out-of-range and empty queries are rejected.
	if _, err := trunc.RankIn(DefaultSnapshot, []int32{9999}, 3); err == nil {
		t.Fatal("out-of-range word accepted")
	}
	if _, err := trunc.RankIn(DefaultSnapshot, nil, 3); err == nil {
		t.Fatal("empty query accepted")
	}
}

// plantedModel builds a tiny model with hard community→topic→word
// structure: community c emits topic c, topic z emits words {3z, 3z+1,
// 3z+2}.
func plantedModel(users int) *core.Model {
	const C, Z, V = 3, 3, 9
	m := &core.Model{
		Cfg:        core.Config{NumCommunities: C, NumTopics: Z, Rho: 0.1}.WithDefaults(),
		NumUsers:   users,
		NumWords:   V,
		NumBuckets: 2,
		Pi:         sparse.NewDense(users, C),
		Theta:      sparse.NewDense(C, Z),
		Phi:        sparse.NewDense(Z, V),
		Eta:        sparse.NewTensor3(C, C, Z),
		PopFreq:    sparse.NewDense(2, Z),
	}
	for u := 0; u < users; u++ {
		row := m.Pi.Row(u)
		for c := range row {
			row[c] = 0.05
		}
		row[u%C] = 0.9
	}
	for c := 0; c < C; c++ {
		row := m.Theta.Row(c)
		for z := range row {
			row[z] = 0.05
		}
		row[c] = 0.9
	}
	for z := 0; z < Z; z++ {
		row := m.Phi.Row(z)
		for w := range row {
			row[w] = 0.01
		}
		for k := 0; k < 3; k++ {
			row[3*z+k] = 0.3
		}
	}
	m.Eta.Fill(1.0 / (C * C * Z))
	m.Pi.NormalizeRows()
	m.Theta.NormalizeRows()
	m.Phi.NormalizeRows()
	m.PopFreq.Fill(0.5)
	m.Rehydrate()
	return m
}

func TestFoldInRecoversPlantedCommunity(t *testing.T) {
	m := plantedModel(9)
	e := testEngine(t, m, nil, Options{})
	// Documents entirely about topic 1's words → community 1 must dominate.
	req := &FoldInRequest{
		Docs: [][]int32{{3, 4, 5}, {4, 5, 3}, {5, 3, 4}, {3, 3, 4}},
		Seed: 7,
	}
	res, err := e.FoldInNamed(DefaultSnapshot, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pi) != 3 {
		t.Fatalf("pi has %d entries", len(res.Pi))
	}
	if res.Top[0].Community != 1 {
		t.Fatalf("folded-in user's top community is %d (pi=%v), want 1", res.Top[0].Community, res.Pi)
	}
	if res.Pi[1] < 0.5 {
		t.Fatalf("community 1 weight %v too small", res.Pi[1])
	}
	best := 0
	for z, v := range res.TopicMixture {
		if v > res.TopicMixture[best] {
			best = z
		}
	}
	if best != 1 {
		t.Fatalf("topic mixture peaks at %d, want 1", best)
	}
	// Bad or abusive requests are rejected: no documents (friendship alone
	// cannot move the membership off the prior, so a doc-less request has
	// nothing to infer), empty documents, out-of-range ids, and
	// over-limit sweep counts.
	for _, bad := range []*FoldInRequest{
		{},
		{Friends: []int32{0}},
		{Docs: [][]int32{{}}},
		{Docs: [][]int32{{99}}},
		{Docs: [][]int32{{1}}, Friends: []int32{99}},
		{Docs: [][]int32{{1}}, Sweeps: MaxFoldInSweeps + 1},
	} {
		if _, err := e.FoldInNamed(DefaultSnapshot, bad); err == nil {
			t.Fatalf("bad request %+v accepted", bad)
		}
	}
}

// TestFoldInDeterministic pins the acceptance criterion: fold-in is a pure
// function of (snapshot, request) — bit-identical across repeats, across
// batch vs single, and across every worker-pool size.
func TestFoldInDeterministic(t *testing.T) {
	m := SyntheticModel(40, 10, 6, 150, 3)
	reqs := make([]*FoldInRequest, 12)
	for i := range reqs {
		reqs[i] = &FoldInRequest{
			Docs:    [][]int32{{int32(i), int32(2 * i), 7}, {int32(3 * i)}},
			Friends: []int32{int32(i % 40)},
			Seed:    uint64(1000 + i),
		}
	}
	var ref []*FoldInResult
	for _, workers := range []int{1, 3, 8} {
		e := testEngine(t, m, nil, Options{FoldInWorkers: workers})
		out, errs := e.FoldInBatchNamed(DefaultSnapshot, reqs)
		for i, err := range errs {
			if err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
		}
		// Single-request path must agree with the batch path.
		single, err := e.FoldInNamed(DefaultSnapshot, reqs[0])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(single, out[0]) {
			t.Fatalf("workers=%d: single fold-in differs from batch", workers)
		}
		if ref == nil {
			ref = out
			continue
		}
		if !reflect.DeepEqual(ref, out) {
			t.Fatalf("workers=%d: batch results differ from workers=1", workers)
		}
	}
	// Distinct seeds must explore distinct trajectories.
	e := testEngine(t, m, nil, Options{})
	a, _ := e.FoldInNamed(DefaultSnapshot, &FoldInRequest{Docs: [][]int32{{1, 2, 3}}, Seed: 1})
	b, _ := e.FoldInNamed(DefaultSnapshot, &FoldInRequest{Docs: [][]int32{{1, 2, 3}}, Seed: 2})
	if reflect.DeepEqual(a.DocCommunity, b.DocCommunity) && reflect.DeepEqual(a.DocTopic, b.DocTopic) {
		t.Log("warning: two seeds produced identical assignments (possible but unlikely)")
	}
}

func TestQueryEndpoints(t *testing.T) {
	m := SyntheticModel(30, 8, 5, 100, 4)
	e := testEngine(t, m, nil, Options{})
	if cs, err := e.CommunitiesIn(DefaultSnapshot); err != nil || len(cs) != 8 {
		t.Fatalf("got %d communities, err %v", len(cs), err)
	}
	d, err := e.CommunityIn(DefaultSnapshot, 3)
	if err != nil {
		t.Fatal(err)
	}
	if d.ID != 3 || len(d.TopTopics) == 0 || len(d.OutFlows) == 0 {
		t.Fatalf("incomplete detail: %+v", d)
	}
	if _, err := e.CommunityIn(DefaultSnapshot, 99); err == nil {
		t.Fatal("bad community accepted")
	}
	mem, err := e.MembershipIn(DefaultSnapshot, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(mem.Communities) != 3 {
		t.Fatalf("got %d memberships", len(mem.Communities))
	}
	for i := 1; i < len(mem.Communities); i++ {
		if mem.Communities[i].Weight > mem.Communities[i-1].Weight {
			t.Fatal("memberships not sorted")
		}
	}
	if _, err := e.MembershipIn(DefaultSnapshot, -1, 3); err == nil {
		t.Fatal("bad user accepted")
	}
	diff, err := e.DiffusionIn(DefaultSnapshot, 0, 1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if diff.Prob <= 0 || diff.Prob >= 1 {
		t.Fatalf("diffusion prob %v out of (0,1)", diff.Prob)
	}
	if _, err := e.DiffusionIn(DefaultSnapshot, 0, 1, 99, 0); err == nil {
		t.Fatal("bad topic accepted")
	}
	if _, err := e.RankTextIn(DefaultSnapshot, "anything", 3); err != ErrNoVocabulary {
		t.Fatalf("want ErrNoVocabulary, got %v", err)
	}

	stats := e.Stats()
	if stats["community"].Count != 2 || stats["community"].Errors != 1 {
		t.Fatalf("community stats %+v", stats["community"])
	}
	if stats["rank"].Count != 1 || stats["rank"].Errors != 1 {
		t.Fatalf("rank stats %+v", stats["rank"])
	}
	if stats["membership"].Count != 2 {
		t.Fatalf("membership stats %+v", stats["membership"])
	}
}

func TestReloadSwapsAndFailsClosed(t *testing.T) {
	dir := t.TempDir()
	a := SyntheticModel(20, 6, 4, 80, 5)
	b := SyntheticModel(25, 9, 4, 90, 6)
	pa, pb := filepath.Join(dir, "a.snap"), filepath.Join(dir, "b.snap")
	if err := store.SaveV2(pa, a); err != nil {
		t.Fatal(err)
	}
	if err := store.SaveV2(pb, b); err != nil {
		t.Fatal(err)
	}
	e := testEngine(t, a, nil, Options{})
	if v := acquireView(t, e).Version; v != 1 {
		t.Fatalf("initial version %d", v)
	}
	v, err := e.LoadGeneration(DefaultSnapshot, pb, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s := acquireView(t, e); v != 2 || s.Version != 2 {
		t.Fatalf("version after reload: %d / %d", v, s.Version)
	}
	if got := acquireView(t, e).Model.Cfg.NumCommunities; got != 9 {
		t.Fatalf("reloaded model has |C|=%d, want 9", got)
	}
	// A failed reload must leave the serving state untouched.
	if _, err := e.LoadGeneration(DefaultSnapshot, filepath.Join(dir, "missing.snap"), nil, 0); err == nil {
		t.Fatal("missing snapshot accepted")
	}
	if s := acquireView(t, e); s.Version != 2 || s.Model.Cfg.NumCommunities != 9 {
		t.Fatal("failed reload disturbed the serving state")
	}
	if e.Stats()["reload"].Errors != 1 {
		t.Fatalf("reload stats %+v", e.Stats()["reload"])
	}
}

// TestLoadGenerationCopiesWhatItCannotMap: on a mapped engine, a file
// store.Open rejects (here a JSON model) goes through the copying loader,
// and the heap snapshot it promotes still carries the caller's generation
// — the branch the stream publisher takes for a file it cannot map.
func TestLoadGenerationCopiesWhatItCannotMap(t *testing.T) {
	m := SyntheticModel(20, 6, 4, 80, 5)
	path := filepath.Join(t.TempDir(), "model.json")
	js, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, js, 0o644); err != nil {
		t.Fatal(err)
	}
	if mm, err := store.Open(path); err == nil {
		mm.Close()
		t.Fatal("store.Open mapped a JSON model")
	}
	e := NewMulti(Options{Mmap: true})
	defer e.Close()
	const gen = 7
	if _, err := e.LoadGeneration(DefaultSnapshot, path, nil, gen); err != nil {
		t.Fatal(err)
	}
	s := acquireView(t, e)
	if s.Generation != gen || s.Mapped() || s.Model.NumUsers != m.NumUsers {
		t.Fatalf("copied snapshot: generation %d, mapped %v, %d users", s.Generation, s.Mapped(), s.Model.NumUsers)
	}
	if st := e.Stats()["reload"]; st.Count != 1 || st.Errors != 0 {
		t.Fatalf("reload stats %+v, want one load and no error", st)
	}
}

// TestHotSwapUnderLoad is the acceptance-criterion race test: goroutines
// hammer every query endpoint while the main goroutine hot-swaps between
// two models with different shapes. Every result must be internally
// consistent with exactly one model generation — a torn read (new model,
// old index/members) would surface as a shape mismatch, an out-of-range
// panic, or the race detector firing (CI runs this under -race).
func TestHotSwapUnderLoad(t *testing.T) {
	dir := t.TempDir()
	a := SyntheticModel(30, 8, 5, 120, 7)
	b := SyntheticModel(45, 14, 6, 200, 8)
	pa, pb := filepath.Join(dir, "a.snap"), filepath.Join(dir, "b.snap")
	if err := store.SaveV2(pa, a); err != nil {
		t.Fatal(err)
	}
	if err := store.SaveV2(pb, b); err != nil {
		t.Fatal(err)
	}
	// Model shape by generation parity: odd versions serve a, even b.
	shape := func(version uint64) (C, users, words int) {
		if version%2 == 1 {
			return 8, 30, 120
		}
		return 14, 45, 200
	}

	e := testEngine(t, a, nil, Options{FoldInWorkers: 2})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	fail := make(chan string, 64)
	report := func(msg string) {
		select {
		case fail <- msg:
		default:
		}
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// One coherent snapshot view per iteration.
				s, release, err := e.AcquireNamed(DefaultSnapshot)
				if err != nil {
					report("acquire: " + err.Error())
					return
				}
				C, users, _ := shape(s.Version)
				ok := s.Model.Cfg.NumCommunities == C && len(s.users.counts) == C
				release()
				if !ok {
					report("snapshot shape mismatch")
					return
				}
				res, err := e.RankIn(DefaultSnapshot, []int32{int32(i % 100)}, 3)
				if err != nil {
					report("rank: " + err.Error())
					return
				}
				rC, _, _ := shape(res.Version)
				for _, entry := range res.Entries {
					if entry.Community >= rC {
						report("rank entry out of range for its version")
						return
					}
				}
				mem, err := e.MembershipIn(DefaultSnapshot, i%users, 3)
				if err != nil {
					// A swap may have shrunk the user range between shape()
					// and the call; only accept that exact situation.
					if i%users < 30 {
						report("membership: " + err.Error())
						return
					}
					continue
				}
				mC, _, _ := shape(mem.Version)
				for _, cw := range mem.Communities {
					if cw.Community >= mC {
						report("membership community out of range for its version")
						return
					}
				}
				fr, err := e.FoldInNamed(DefaultSnapshot, &FoldInRequest{
					Docs: [][]int32{{int32(i % 100), int32(g)}}, Seed: uint64(i), Sweeps: 2,
				})
				if err != nil {
					report("foldin: " + err.Error())
					return
				}
				fC, _, _ := shape(fr.Version)
				if len(fr.Pi) != fC {
					report("foldin pi length mismatches its version")
					return
				}
			}
		}(g)
	}
	for swap := 0; swap < 12; swap++ {
		path := pb
		if swap%2 == 1 {
			path = pa
		}
		if _, err := e.LoadGeneration(DefaultSnapshot, path, nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
	if got := acquireView(t, e).Version; got != 13 {
		t.Fatalf("final version %d, want 13", got)
	}
}

package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/shard"
	"repro/internal/sparse"
	"repro/internal/store"
)

func testEngine(t *testing.T, m *core.Model, vocab *corpus.Vocabulary, opts Options) *Engine {
	t.Helper()
	e := New(m, vocab, opts)
	t.Cleanup(e.Close)
	return e
}

// TestRankIsEq19 holds every served ranking to core.Model.RankCommunities
// bit for bit, over 1-, 2-, 3- and 5-word queries (a duplicate word and a
// word with no Φ mass among them), on each kind of snapshot a slot can
// hold: heap, mapped, one shard of a 3-shard group, and a patched
// successor.
func TestRankIsEq19(t *testing.T) {
	const users, C, Z, V = 60, 9, 6, 150
	const zeroWord = 41
	base := SyntheticModel(users, C, Z, V, 19)
	for z := 0; z < Z; z++ {
		base.Phi.Row(z)[zeroWord] = 0
	}
	r := rand.New(rand.NewSource(6))
	grown := growPatchModel(base, 5, r)
	randomizePiRow(grown.Pi.Row(3), r)
	grown.Rehydrate()

	dir := t.TempDir()
	path := filepath.Join(dir, "m.v2.snap")
	if err := store.SaveV2(path, base); err != nil {
		t.Fatal(err)
	}
	man, err := shard.Split(path, dir, 1, shard.SplitOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}

	queries := [][]int32{{0}, {zeroWord}, {V - 1}, {7, 7}, {zeroWord, 12}, {3, 88, 140}, {5, 17, 5, 60, 99}, {zeroWord, 1, 2, 3, 4}}
	for i := 0; i < 12; i++ {
		q := make([]int32, []int{1, 2, 3, 5}[i%4])
		for j := range q {
			q[j] = int32(r.Intn(V))
		}
		queries = append(queries, q)
	}

	cases := []struct {
		name  string
		model *core.Model // the model the snapshot answers for
		snap  func(t *testing.T) *Snapshot
	}{
		{"heap", base, func(t *testing.T) *Snapshot {
			return acquireView(t, testEngine(t, base, nil, Options{}))
		}},
		{"mapped", base, func(t *testing.T) *Snapshot {
			e := NewMulti(Options{})
			t.Cleanup(e.Close)
			if _, err := e.LoadGeneration(DefaultSnapshot, path, nil, 0); err != nil {
				t.Fatal(err)
			}
			s := acquireView(t, e)
			if !s.Mapped() {
				t.Fatal("LoadGeneration served a heap snapshot")
			}
			return s
		}},
		{"shard replica", base, func(t *testing.T) *Snapshot {
			g, err := shard.OpenGroup(dir, man, 1)
			if err != nil {
				t.Fatal(err)
			}
			e := NewMulti(Options{})
			t.Cleanup(e.Close)
			e.PromoteGroup(DefaultSnapshot, g, nil, 1, nil)
			s := acquireView(t, e)
			if s.Shard == nil || s.Model.NumUsers >= users {
				t.Fatalf("replica serves %d users as shard %+v, want a proper shard", s.Model.NumUsers, s.Shard)
			}
			return s
		}},
		{"patched", grown, func(t *testing.T) *Snapshot {
			e := testEngine(t, base, nil, Options{})
			s := e.buildSnapshot(DefaultSnapshot, grown, nil, &Delta{Users: []int32{3}}, nil)
			if b := s.Build(); b.Kind != BuildPatched {
				t.Fatalf("successor built %+v, want a patch", b)
			}
			e.publish(s)
			return acquireView(t, e)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.snap(t)
			for _, q := range queries {
				want := tc.model.RankCommunities(q)
				res, err := s.Rank(q, C)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Entries) != C {
					t.Fatalf("query %v: %d entries, want %d", q, len(res.Entries), C)
				}
				for _, entry := range res.Entries {
					if got := entry.Score; math.Float64bits(got) != math.Float64bits(want[entry.Community]) {
						t.Fatalf("query %v community %d: score %v (bits %x), Eq. 19 gives %v (bits %x)",
							q, entry.Community, got, math.Float64bits(got), want[entry.Community], math.Float64bits(want[entry.Community]))
					}
				}
			}
			// Out-of-range and empty queries are rejected.
			if _, err := s.Rank([]int32{V}, 3); err == nil {
				t.Fatal("out-of-range word accepted")
			}
			if _, err := s.Rank([]int32{-1}, 3); err == nil {
				t.Fatal("negative word accepted")
			}
			if _, err := s.Rank(nil, 3); err == nil {
				t.Fatal("empty query accepted")
			}
		})
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

// TestCommunityFlowsSkipBase: /api/community lists a flow only where a
// diffusion link supports it. η is built the way the M-step builds it
// (per-source smoothing, so every unsupported cell sits at its row's
// base): a community that diffuses nothing has no out-flows, one nobody
// diffuses has no in-flows — not a page of base-valued ties — and a
// supported pair lists exactly its supported topics, ties by community
// and then topic.
func TestCommunityFlowsSkipBase(t *testing.T) {
	const C, Z = 4, 3
	m := SyntheticModel(30, C, Z, 60, 8)
	links := map[[3]int]float64{{0, 1, 2}: 3, {0, 2, 1}: 3, {0, 1, 0}: 1, {2, 0, 1}: 2}
	for c := 0; c < C; c++ {
		row := m.Eta.Data[c*C*Z : (c+1)*C*Z]
		total := 0.0
		for i := range row {
			row[i] = links[[3]int{c, i / Z, i % Z}]
			total += row[i]
		}
		den := total + 0.05*float64(C*Z)
		for i := range row {
			row[i] = (row[i] + 0.05) / den
		}
	}
	m.Rehydrate()
	e := testEngine(t, m, nil, Options{})
	flows := func(fs []FlowSummary) [][2]int {
		out := [][2]int{}
		for _, f := range fs {
			out = append(out, [2]int{f.Community, f.Topic})
		}
		return out
	}
	for _, tc := range []struct {
		c         int
		outs, ins [][2]int
	}{
		{0, [][2]int{{1, 2}, {2, 1}, {1, 0}}, [][2]int{{2, 1}}},
		{1, [][2]int{}, [][2]int{{0, 2}, {0, 0}}},
		{3, [][2]int{}, [][2]int{}},
	} {
		d, err := e.CommunityIn(DefaultSnapshot, tc.c)
		if err != nil {
			t.Fatal(err)
		}
		if got := flows(d.OutFlows); !reflect.DeepEqual(got, tc.outs) {
			t.Errorf("c%d out-flows %v, want %v", tc.c, got, tc.outs)
		}
		if got := flows(d.InFlows); !reflect.DeepEqual(got, tc.ins) {
			t.Errorf("c%d in-flows %v, want %v", tc.c, got, tc.ins)
		}
		if body, _ := json.Marshal(d); !bytes.Contains(body, []byte(`"outFlows":[`)) || !bytes.Contains(body, []byte(`"inFlows":[`)) {
			t.Errorf("c%d: flows not encoded as lists: %s", tc.c, body)
		}
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
	e := NewMulti(Options{})
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

// TestLoadGenerationRefusesCorruptPayload: LoadGeneration checks every
// payload CRC over the mapping it then serves, so a v2 file whose section
// table is intact but one of whose Φ bytes is flipped is refused with an
// error naming the section, and the slot keeps answering from the
// generation it already had.
func TestLoadGenerationRefusesCorruptPayload(t *testing.T) {
	dir := t.TempDir()
	good, bad := filepath.Join(dir, "good.v2.snap"), filepath.Join(dir, "bad.v2.snap")
	m := SyntheticModel(40, 6, 4, 120, 9)
	if err := store.SaveV2(good, m); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	var row [32]byte
	for i, x := range m.Phi.Row(1)[:4] {
		binary.LittleEndian.PutUint64(row[8*i:], math.Float64bits(x))
	}
	at := bytes.Index(raw, row[:])
	if at < 0 {
		t.Fatal("a Φ row is not in the saved file")
	}
	raw[at+3] ^= 0x10
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	e := NewMulti(Options{})
	defer e.Close()
	if _, err := e.LoadGeneration(DefaultSnapshot, good, nil, 1); err != nil {
		t.Fatal(err)
	}
	want, err := e.MembershipIn(DefaultSnapshot, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.LoadGeneration(DefaultSnapshot, bad, nil, 2)
	if err == nil {
		t.Fatal("LoadGeneration served a file with a corrupt Φ payload")
	}
	if tag := fmt.Sprintf("%q", store.TagPhi); !strings.Contains(err.Error(), tag) {
		t.Fatalf("the refusal %q does not name section %s", err, tag)
	}
	if s := acquireView(t, e); s.Generation != 1 {
		t.Fatalf("the slot serves generation %d after the refused load, want 1", s.Generation)
	}
	if got, err := e.MembershipIn(DefaultSnapshot, 3, 4); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("after the refused load membership(3) = %+v (%v), before %+v", got, err, want)
	}
	if st := e.Stats()["reload"]; st.Count != 2 || st.Errors != 1 {
		t.Fatalf("reload stats %+v, want two loads and one error", st)
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

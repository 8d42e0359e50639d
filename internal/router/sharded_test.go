package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/store"
)

// shardFleet is a router over real shard-owning serve.APIHandler
// replicas — the topology cmd/cpd-bench gates — beside a single full
// node serving the file the shard group was split from.
type shardFleet struct {
	rt    *Router
	front *httptest.Server
	ref   *serve.Engine
	users int
	// hits[i] counts the requests replica i served, by path.
	hits []*pathHits
}

type pathHits struct {
	mu sync.Mutex
	n  map[string]int
}

func (p *pathHits) add(path string) {
	p.mu.Lock()
	p.n[path]++
	p.mu.Unlock()
}

func (p *pathHits) get(path string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.n[path]
}

func (f *shardFleet) count(path string) int {
	total := 0
	for _, h := range f.hits {
		total += h.get(path)
	}
	return total
}

func (f *shardFleet) resetHits() {
	for _, h := range f.hits {
		h.mu.Lock()
		clear(h.n)
		h.mu.Unlock()
	}
}

const fleetShards = 3

// newShardFleet builds the fleet; wrap, when non-nil, gets to stand in
// front of replica i's handler.
func newShardFleet(t *testing.T, wrap func(i int, h http.Handler) http.Handler) *shardFleet {
	t.Helper()
	dir := t.TempDir()
	m := serve.SyntheticModel(90, 8, 6, 120, 31)
	path := filepath.Join(dir, "model.v2.snap")
	if err := store.SaveV2(path, m); err != nil {
		t.Fatal(err)
	}
	man, err := shard.Split(path, dir, 1, shard.SplitOptions{Shards: fleetShards})
	if err != nil {
		t.Fatal(err)
	}
	f := &shardFleet{users: m.NumUsers}
	var reps []Replica
	for i := 0; i < fleetShards; i++ {
		g, err := shard.OpenGroup(dir, man, i)
		if err != nil {
			t.Fatal(err)
		}
		e := serve.NewMulti(serve.Options{})
		t.Cleanup(e.Close)
		e.PromoteGroup(serve.DefaultSnapshot, g, nil, 1, nil)
		hits := &pathHits{n: map[string]int{}}
		f.hits = append(f.hits, hits)
		api := serve.APIHandler(e, nil)
		var h http.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hits.add(r.URL.Path)
			api.ServeHTTP(w, r)
		})
		if wrap != nil {
			h = wrap(i, h)
		}
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		reps = append(reps, Replica{Name: fmt.Sprintf("shard-%d", i), Base: srv.URL})
	}
	f.rt, err = New(reps, Options{Client: &http.Client{Timeout: 5 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	f.rt.PollReplicas()
	if st := f.rt.Stats(); !st.Sharded || st.Shards != fleetShards || st.Healthy != fleetShards {
		t.Fatalf("router sees %+v, want a healthy %d-shard fleet", st, fleetShards)
	}
	f.front = httptest.NewServer(f.rt.Handler())
	t.Cleanup(f.front.Close)
	f.ref = serve.NewMulti(serve.Options{})
	t.Cleanup(f.ref.Close)
	if _, err := f.ref.LoadGeneration(serve.DefaultSnapshot, path, nil, 1); err != nil {
		t.Fatal(err)
	}
	f.resetHits() // the poll
	return f
}

// hintFor returns a ?user= routing hint whose fold-in preference chain
// starts at the replicas with the given indices, in that order.
func (f *shardFleet) hintFor(first ...int) string {
	for key := uint64(0); key < 10000; key++ {
		chain := f.rt.owners(key)
		ok := true
		for i, want := range first {
			ok = ok && chain[i] == f.rt.replicas[want]
		}
		if ok {
			return fmt.Sprintf("?user=%d", key)
		}
	}
	panic("no key routes that way")
}

// do sends one request through the router and returns status and body.
func (f *shardFleet) do(t *testing.T, method, target string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, f.front.URL+target, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if cl := resp.Header.Get("Content-Length"); cl != fmt.Sprint(len(out)) {
		t.Errorf("%s %s: Content-Length %q on a %d-byte body", method, target, cl, len(out))
	}
	return resp.StatusCode, out
}

// foldIn routes a fold-in and checks the reply against the full node's.
func (f *shardFleet) foldIn(t *testing.T, query string, req *serve.FoldInRequest) {
	t.Helper()
	body, _ := json.Marshal(req)
	status, out := f.do(t, http.MethodPost, "/api/foldin"+query, body)
	if status != http.StatusOK {
		t.Fatalf("routed fold-in: status %d: %s", status, out)
	}
	var got serve.FoldInResult
	if err := json.Unmarshal(out, &got); err != nil {
		t.Fatal(err)
	}
	want, err := f.ref.FoldInNamed(serve.DefaultSnapshot, req)
	if err != nil {
		t.Fatal(err)
	}
	got.Version, want.Version = 0, 0
	if !reflect.DeepEqual(&got, want) {
		t.Fatalf("routed fold-in differs from the full node:\n got %+v\nwant %+v", got, want)
	}
}

// spreadFriends is one friend per shard, in shard order.
func (f *shardFleet) spreadFriends() []int32 {
	friends := make([]int32, fleetShards)
	for i, r := range f.rt.replicas {
		in := r.shard.Load()
		friends[i] = int32((in.UserLo + in.UserHi) / 2)
	}
	return friends
}

// The router picks the target first and hydrates only the friends the
// target does not own: one backend request less per fold-in than
// fetching every friend, none at all when the target owns them all, and
// the answer stays the full node's either way.
func TestFoldInHydratesOnlyUnownedFriends(t *testing.T) {
	f := newShardFleet(t, nil)
	req := &serve.FoldInRequest{Docs: [][]int32{{1, 2, 3}, {4, 5}}, Friends: f.spreadFriends(), Seed: 77, Sweeps: 6}
	for target := 0; target < fleetShards; target++ {
		f.resetHits()
		f.foldIn(t, f.hintFor(target), req)
		if got := f.count("/api/pirow"); got != fleetShards-1 {
			t.Errorf("target shard-%d: %d row fetches for %d friends of which it owns one, want %d", target, got, fleetShards, fleetShards-1)
		}
		if got := f.hits[target].get("/api/pirow"); got != 0 {
			t.Errorf("target shard-%d was asked for %d rows it owns", target, got)
		}
		if got := f.count("/api/foldin"); got != 1 {
			t.Errorf("target shard-%d: %d fold-in requests, want 1", target, got)
		}
	}

	// Friends all on one shard, request routed there: nothing to hydrate.
	in := f.rt.replicas[1].shard.Load()
	req.Friends = []int32{int32(in.UserLo), int32(in.UserHi - 1), int32(in.UserLo)}
	f.resetHits()
	f.foldIn(t, f.hintFor(1), req)
	if got := f.count("/api/pirow"); got != 0 {
		t.Errorf("%d row fetches for friends the target owns", got)
	}
	// The same request routed elsewhere hydrates all three entries.
	f.resetHits()
	f.foldIn(t, f.hintFor(0), req)
	if got := f.count("/api/pirow"); got != 3 {
		t.Errorf("%d row fetches, want 3", got)
	}
	if st := f.rt.Stats(); st.Misroutes != 0 {
		t.Errorf("%d misroutes on a settled fleet", st.Misroutes)
	}
}

// A target whose advertised range is stale disowns a friend the router
// took it to own (421). The next candidate serves the request, hydrated
// for ITS range, and rows fetched for the first attempt are not fetched
// again.
func TestFoldInRehydratesAfterMisroute(t *testing.T) {
	f := newShardFleet(t, nil)
	friends := f.spreadFriends()
	req := &serve.FoldInRequest{Docs: [][]int32{{7, 8}, {9}}, Friends: friends, Seed: 5, Sweeps: 4}
	// The router believes shard-0 also owns shard-1's users.
	stale := *f.rt.replicas[0].shard.Load()
	stale.UserHi = f.rt.replicas[1].shard.Load().UserHi
	f.rt.replicas[0].shard.Store(&stale)

	f.foldIn(t, f.hintFor(0, 1), req)
	// shard-0 got friends[2]'s row and disowned friends[1]; shard-1 then
	// needed friends[0] and friends[2], of which only the first was new.
	if got := f.count("/api/pirow"); got != 2 {
		t.Errorf("%d row fetches, want 2 (one per distinct unowned friend)", got)
	}
	if got, want := f.hits[0].get("/api/foldin"), 1; got != want {
		t.Errorf("stale target saw %d fold-ins, want %d", got, want)
	}
	if got, want := f.hits[1].get("/api/foldin"), 1; got != want {
		t.Errorf("second candidate saw %d fold-ins, want %d", got, want)
	}
	if st := f.rt.Stats(); st.Misroutes != 1 {
		t.Errorf("router counted %d misroutes, want 1", st.Misroutes)
	}

	// With every candidate disowning the request the client sees the 421.
	for _, r := range f.rt.replicas {
		all := *r.shard.Load()
		all.UserLo, all.UserHi = 0, f.users
		r.shard.Store(&all)
	}
	body, _ := json.Marshal(req)
	if status, out := f.do(t, http.MethodPost, "/api/foldin", body); status != http.StatusMisdirectedRequest {
		t.Errorf("all candidates misrouted: status %d (%s), want 421", status, out)
	}
}

// legacy re-spells a replica's replies the way a replica from before the
// codec would have written them — indented, members in another order —
// keeping every number's digits.
func legacy(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if rec.Code == http.StatusOK && strings.HasPrefix(rec.Header().Get("Content-Type"), "application/json") {
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.UseNumber()
			var v map[string]any
			if err := dec.Decode(&v); err == nil {
				v["legacyNote"] = "a member newer routers do not know"
				body, _ = json.MarshalIndent(v, "", "  ") // a map sorts its members by name
				body = append(body, '\n')
			}
		}
		w.Header().Set("Content-Type", rec.Header().Get("Content-Type"))
		w.WriteHeader(rec.Code)
		w.Write(body)
	})
}

// indented re-spells replies like legacy but adds no member: the
// spelling the scanner reads without encoding/json.
func indented(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if rec.Code == http.StatusOK && strings.HasPrefix(rec.Header().Get("Content-Type"), "application/json") {
			var out bytes.Buffer
			if json.Indent(&out, body, "", "\t") == nil {
				body = out.Bytes()
			}
		}
		w.Header().Set("Content-Type", rec.Header().Get("Content-Type"))
		w.WriteHeader(rec.Code)
		w.Write(body)
	})
}

// checkAgainstFullNode replays a spread of every hot query through the
// router and compares each reply with the full node's.
func (f *shardFleet) checkAgainstFullNode(t *testing.T) {
	t.Helper()
	get := func(target string, into any) {
		t.Helper()
		status, out := f.do(t, http.MethodGet, target, nil)
		if status != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", target, status, out)
		}
		if err := json.Unmarshal(out, into); err != nil {
			t.Fatalf("GET %s: %v: %s", target, err, out)
		}
	}
	for w := 0; w < 120; w += 17 {
		var got serve.RankResult
		get(fmt.Sprintf("/api/rank?w=%d,%d&k=5", w, (w+3)%120), &got)
		want, err := f.ref.RankIn(serve.DefaultSnapshot, []int32{int32(w), int32((w + 3) % 120)}, 5)
		if err != nil {
			t.Fatal(err)
		}
		if got.Version != 0 {
			t.Errorf("merged rank carries version %d", got.Version)
		}
		want.Version = 0
		if !reflect.DeepEqual(&got, want) {
			t.Fatalf("rank(%d) differs from the full node:\n got %+v\nwant %+v", w, got, want)
		}
	}
	for u := 0; u < f.users; u += 7 {
		var got serve.MembershipResult
		get(fmt.Sprintf("/api/user?id=%d&k=3", u), &got)
		want, err := f.ref.MembershipIn(serve.DefaultSnapshot, u, 3)
		if err != nil {
			t.Fatal(err)
		}
		got.Version, want.Version = 0, 0
		if !reflect.DeepEqual(&got, want) {
			t.Fatalf("membership(%d) differs from the full node", u)
		}
		v := (u*13 + 5) % f.users // same shard for some u, another for most
		var gd serve.DiffusionResult
		get(fmt.Sprintf("/api/diffusion?u=%d&v=%d&topic=%d&bucket=%d", u, v, u%6, u%5-1), &gd)
		wd, err := f.ref.DiffusionIn(serve.DefaultSnapshot, u, v, u%6, u%5-1)
		if err != nil {
			t.Fatal(err)
		}
		gd.Version, wd.Version = 0, 0
		if gd != *wd {
			t.Fatalf("diffusion(%d,%d) differs from the full node: got %+v want %+v", u, v, gd, *wd)
		}
	}
	for target := 0; target < fleetShards; target++ {
		f.foldIn(t, f.hintFor(target), &serve.FoldInRequest{
			Docs: [][]int32{{3, 1, 4}, {1, 5}}, Friends: f.spreadFriends(), Seed: uint64(100 + target), Sweeps: 5,
		})
	}
}

// A fleet mixing spellings still merges, hydrates and relays to the
// bit: one replica answers indented JSON with reordered members and one
// the router has never heard of (read through encoding/json), one plain
// indented JSON (read by the scanner), one the compact codec.
func TestMixedSpellingFleetMatchesFullNode(t *testing.T) {
	f := newShardFleet(t, func(i int, h http.Handler) http.Handler {
		switch i {
		case 0:
			return legacy(h)
		case 1:
			return indented(h)
		}
		return h
	})
	f.checkAgainstFullNode(t)
	if st := f.rt.Stats(); st.Misroutes != 0 {
		t.Errorf("%d misroutes", st.Misroutes)
	}
}

// Concurrent mixed traffic over the pooled buffers: a reply buffer
// handed back to the pool while its bytes are still being relayed, or a
// row spliced after its reply buffer was recycled, shows up here as a
// reply that differs from the full node (and under -race as a race).
func TestRoutedConcurrentBitEquality(t *testing.T) {
	f := newShardFleet(t, nil)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.checkAgainstFullNode(t)
		}()
	}
	wg.Wait()
}

// genReplica is a scripted shard replica for rollout races: it owns a
// user range, serves whatever generation it is set to, answers 409 to a
// fold-in or diffusion whose rows are from another one, and records
// what it was sent.
type genReplica struct {
	name string
	info shard.Info
	gen  atomic.Uint64
	srv  *httptest.Server
	// onPiRow runs after a row has been served, before the reply is
	// written: where a test rolls the fleet mid-request.
	onPiRow func()

	mu         sync.Mutex
	foldIns    []serve.FoldInRequest
	diffusions []serve.DiffusionRowsRequest // the row-carrying POSTs
	piRows     int
}

func newGenReplica(t *testing.T, name string, index, lo, hi int) *genReplica {
	t.Helper()
	g := &genReplica{name: name, info: shard.Info{Index: index, Count: 2, UserLo: lo, UserHi: hi, TotalUsers: 20}}
	g.gen.Store(1)
	mux := http.NewServeMux()
	mux.HandleFunc("/api/generation", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(serve.GenerationReport{Generation: g.gen.Load(), Shard: &g.info})
	})
	mux.HandleFunc("/api/pirow", func(w http.ResponseWriter, r *http.Request) {
		gen := g.gen.Load()
		g.mu.Lock()
		g.piRows++
		g.mu.Unlock()
		if g.onPiRow != nil {
			g.onPiRow()
		}
		// The row spells out which generation it was read from.
		fmt.Fprintf(w, `{"user":%s,"version":1,"generation":%d,"row":[0.%d,0.5]}`, r.URL.Query().Get("id"), gen, gen)
	})
	mux.HandleFunc("/api/foldin", func(w http.ResponseWriter, r *http.Request) {
		var req serve.FoldInRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		g.mu.Lock()
		g.foldIns = append(g.foldIns, req)
		g.mu.Unlock()
		if gen := g.gen.Load(); req.RowsGeneration != 0 && req.RowsGeneration != gen {
			http.Error(w, "rows from another generation", http.StatusConflict)
			return
		}
		fmt.Fprintf(w, `{"version":4,"pi":[1],"top":null,"topicMixture":null,"docCommunity":null,"docTopic":null}`)
	})
	mux.HandleFunc("/api/diffusion", func(w http.ResponseWriter, r *http.Request) {
		gen := g.gen.Load()
		if r.Method == http.MethodPost {
			var req serve.DiffusionRowsRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			g.mu.Lock()
			g.diffusions = append(g.diffusions, req)
			g.mu.Unlock()
			if req.RowsGeneration != 0 && req.RowsGeneration != gen {
				http.Error(w, "rows from another generation", http.StatusConflict)
				return
			}
		}
		// version is this process's own counter: the replica's shard index
		// plus 11, so a reply shows which replica scored it.
		fmt.Fprintf(w, "{\"version\":%d,\"generation\":%d,\"logit\":0.5,\"prob\":0.625}\n", g.info.Index+11, gen)
	})
	mux.HandleFunc("/api/user", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"replica": %q}`, g.name)
	})
	mux.HandleFunc("/api/rank", func(w http.ResponseWriter, r *http.Request) {
		// One community, counted over the users this replica owns.
		json.NewEncoder(w).Encode(serve.RankResult{Generation: g.gen.Load(), Entries: []serve.RankEntry{
			{Community: 0, Score: 1, Members: g.info.UserHi - g.info.UserLo},
		}})
	})
	g.srv = httptest.NewServer(mux)
	t.Cleanup(g.srv.Close)
	return g
}

// A rollout between the row fetch and the fold-in must not let rows of
// one generation be scored against another: the scoring replica refuses
// (409) and the router hydrates again, three tries in all.
func TestFoldInNeverMixesGenerations(t *testing.T) {
	a := newGenReplica(t, "a", 0, 0, 10)
	b := newGenReplica(t, "b", 1, 10, 20)
	rt, err := New([]Replica{{Name: "a", Base: a.srv.URL}, {Name: "b", Base: b.srv.URL}}, Options{Client: &http.Client{Timeout: 5 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	rt.PollReplicas()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	var hint string // routes the fold-in to a
	for key := uint64(0); hint == ""; key++ {
		if rt.Owner(key) == "a" {
			hint = fmt.Sprintf("?user=%d", key)
		}
	}
	post := func() (int, string) {
		resp, err := http.Post(front.URL+"/api/foldin"+hint, "application/json", strings.NewReader(`{"docs":[[1]],"friends":[3,15],"seed":1}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	// The whole fleet rolls to generation 2 right after b served the row.
	b.onPiRow = func() {
		if b.gen.Load() == 1 {
			a.gen.Store(2)
			b.gen.Store(2)
		}
	}
	status, body := post()
	if status != http.StatusOK {
		t.Fatalf("fold-in across a rollout: status %d: %s", status, body)
	}
	if len(a.foldIns) != 2 || b.piRows != 2 {
		t.Fatalf("a saw %d fold-ins and b %d row fetches, want 2 and 2 (one refused attempt, one re-hydrated)", len(a.foldIns), b.piRows)
	}
	for i, wantGen := range []uint64{1, 2} {
		req := a.foldIns[i]
		wantRow := []float64{0.1, 0.5}
		if wantGen == 2 {
			wantRow = []float64{0.2, 0.5}
		}
		if req.RowsGeneration != wantGen || len(req.FriendRows) != 1 || req.FriendRows[0].User != 15 || !reflect.DeepEqual(req.FriendRows[0].Row, wantRow) {
			t.Errorf("attempt %d carried rowsGeneration %d and rows %+v, want generation %d and friend 15's row %v", i, req.RowsGeneration, req.FriendRows, wantGen, wantRow)
		}
		if !reflect.DeepEqual(req.Docs, [][]int32{{1}}) || !reflect.DeepEqual(req.Friends, []int32{3, 15}) || req.Seed != 1 {
			t.Errorf("attempt %d lost part of the client's request: %+v", i, req)
		}
	}

	// A fleet that stays split — a on 3, b on 2 — is given up on after
	// three hydrations, not scored across the split.
	a.foldIns, b.piRows, b.onPiRow = nil, 0, nil
	a.gen.Store(3)
	status, body = post()
	if status != http.StatusBadGateway || !strings.Contains(body, "generations") {
		t.Fatalf("fold-in on a split fleet: status %d: %s", status, body)
	}
	if len(a.foldIns) != maxGenerationTries || b.piRows != maxGenerationTries {
		t.Errorf("a saw %d fold-ins and b %d row fetches, want %d each", len(a.foldIns), b.piRows, maxGenerationTries)
	}
}

// Cross-shard diffusion hydrates v's row by fold-in's protocol: the row
// carries its generation, the scorer refuses one from another (409) and
// the router hydrates again, three tries in all.
func TestDiffusionNeverMixesGenerations(t *testing.T) {
	a := newGenReplica(t, "a", 0, 0, 10)
	b := newGenReplica(t, "b", 1, 10, 20)
	rt, err := New([]Replica{{Name: "a", Base: a.srv.URL}, {Name: "b", Base: b.srv.URL}}, Options{Client: &http.Client{Timeout: 5 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	rt.PollReplicas()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	get := func() (int, string) {
		resp, err := http.Get(front.URL + "/api/diffusion?u=3&v=15&topic=0")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	// The whole fleet rolls to generation 2 right after b served v's row.
	b.onPiRow = func() {
		if b.gen.Load() == 1 {
			a.gen.Store(2)
			b.gen.Store(2)
		}
	}
	status, body := get()
	if status != http.StatusOK || !strings.Contains(body, `"generation":2`) {
		t.Fatalf("diffusion across a rollout: status %d: %s", status, body)
	}
	if len(a.diffusions) != 2 || b.piRows != 2 {
		t.Fatalf("a saw %d row-carrying diffusions and b %d row fetches, want 2 and 2 (one refused attempt, one re-hydrated)", len(a.diffusions), b.piRows)
	}
	for i, wantGen := range []uint64{1, 2} {
		want := serve.DiffusionRowsRequest{U: 3, V: 15, Topic: 0, Bucket: -1, VRow: []float64{0.1, 0.5}, RowsGeneration: wantGen}
		if wantGen == 2 {
			want.VRow = []float64{0.2, 0.5}
		}
		if got := a.diffusions[i]; !reflect.DeepEqual(got, want) {
			t.Errorf("attempt %d carried %+v, want %+v", i, got, want)
		}
	}

	// A fleet that stays split — a on 3, b on 2 — is given up on after
	// three hydrations, not scored across the split.
	a.diffusions, b.piRows, b.onPiRow = nil, 0, nil
	a.gen.Store(3)
	status, body = get()
	if status != http.StatusBadGateway || !strings.Contains(body, "generations") {
		t.Fatalf("diffusion on a split fleet: status %d: %s", status, body)
	}
	if len(a.diffusions) != maxGenerationTries || b.piRows != maxGenerationTries {
		t.Errorf("a saw %d row-carrying diffusions and b %d row fetches, want %d each", len(a.diffusions), b.piRows, maxGenerationTries)
	}
}

// A bad id in a row the router hydrates is the client's error, not the
// fleet's: the routed status is the single node's (400), not a 502 or,
// for an id past int32, another user's answer.
func TestHydrationRelaysBadUserVerdict(t *testing.T) {
	f := newShardFleet(t, nil)
	ref := serve.APIHandler(f.ref, nil)
	for _, tc := range []struct{ method, target, body string }{
		{http.MethodGet, fmt.Sprintf("/api/diffusion?u=0&v=%d&topic=0", f.users), ""},
		{http.MethodGet, "/api/diffusion?u=0&v=-1&topic=0", ""},
		{http.MethodGet, fmt.Sprintf("/api/diffusion?u=0&v=%d&topic=0", int64(1<<32+5)), ""}, // not user 5
		{http.MethodPost, "/api/foldin", fmt.Sprintf(`{"docs":[[1]],"friends":[0,%d],"seed":1}`, f.users+5)},
	} {
		rec := httptest.NewRecorder()
		ref.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.target, strings.NewReader(tc.body)))
		if rec.Code/100 != 4 {
			t.Fatalf("%s %s: the full node answers %d, want a 4xx", tc.method, tc.target, rec.Code)
		}
		if status, out := f.do(t, tc.method, tc.target, []byte(tc.body)); status != rec.Code {
			t.Errorf("%s %s: routed status %d (%s), the full node's %d", tc.method, tc.target, status, bytes.TrimSpace(out), rec.Code)
		}
	}
}

// A full-snapshot replica beside shard owners owns every user as shard 0
// of 1: it is in every user's chain, next to that user's shard owner and
// no other replica, and answers for a shard whose owner is gone. The rank
// merge ignores it and sums the shard owners' Members — partially, and
// counted as such, once one of them is gone.
func TestMixedFleetFullReplicaOwnsEveryUser(t *testing.T) {
	full := newFakeReplica(t, "full", 1, []serve.RankEntry{{Community: 0, Score: 1, Members: 1000}})
	s0, s1 := newGenReplica(t, "s0", 0, 0, 10), newGenReplica(t, "s1", 1, 10, 20)
	rt, err := New([]Replica{{Name: "full", Base: full.srv.URL}, {Name: "s0", Base: s0.srv.URL}, {Name: "s1", Base: s1.srv.URL}}, Options{Client: &http.Client{Timeout: 2 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	rt.PollReplicas()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	for u := 0; u < 20; u++ {
		owner := map[bool]string{true: "s0", false: "s1"}[u < 10]
		chain := map[string]bool{}
		for _, r := range rt.userChain(int64(u)) {
			chain[r.name] = true
		}
		if !reflect.DeepEqual(chain, map[string]bool{"full": true, owner: true}) {
			t.Errorf("user %d's chain is %v, want full and %s", u, chain, owner)
		}
	}
	rank := func() serve.RankResult {
		t.Helper()
		res, status := getRank(t, front.URL, "?w=1")
		if status != http.StatusOK || len(res.Entries) != 1 {
			t.Fatalf("rank over the mixed fleet: status %d, %+v", status, res)
		}
		return res
	}
	if res := rank(); res.Entries[0].Members != 20 {
		t.Errorf("rank Members = %d, want 10 + 10 from the shard owners, the full replica ignored", res.Entries[0].Members)
	}

	s0.srv.Close()
	for u := 0; u < 10; u++ {
		status, body := 0, ""
		if resp, err := http.Get(fmt.Sprintf("%s/api/user?id=%d", front.URL, u)); err == nil {
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			status, body = resp.StatusCode, string(raw)
		}
		if status != http.StatusOK || !strings.Contains(body, `"full"`) {
			t.Errorf("user %d with its shard owner down: status %d %q, want the full replica's answer", u, status, body)
		}
	}
	if res := rank(); res.Entries[0].Members != 10 {
		t.Errorf("rank Members with s0 down = %d, want s1's 10 alone", res.Entries[0].Members)
	}
	if st := rt.Stats(); st.PartialRanks != 1 || !st.Sharded || st.Shards != 2 {
		t.Errorf("stats: partialRanks %d sharded %v shards %d, want 1, true, 2", st.PartialRanks, st.Sharded, st.Shards)
	}
	var metrics strings.Builder
	rt.WriteMetrics(&metrics)
	for _, want := range []string{"cpd_router_partial_ranks_total 1\n", `cpd_router_replica_shard_index{replica="full"} -1`} {
		if !strings.Contains(metrics.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

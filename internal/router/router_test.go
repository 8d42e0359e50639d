package router

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/quality"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/store"
)

// fakeReplica is a scripted backend: it answers /api/generation with its
// current generation and /api/rank, /api/user, /api/foldin with canned
// payloads, recording which paths it saw.
type fakeReplica struct {
	name string
	gen  uint64
	rank serve.RankResult
	srv  *httptest.Server
	hits []string
}

func newFakeReplica(t *testing.T, name string, gen uint64, entries []serve.RankEntry) *fakeReplica {
	t.Helper()
	f := &fakeReplica{name: name, gen: gen}
	f.rank = serve.RankResult{Version: 7, Generation: gen, Entries: entries}
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		f.hits = append(f.hits, r.URL.Path)
		w.Header().Set("Content-Type", "application/json")
		switch r.URL.Path {
		case "/api/generation":
			fmt.Fprintf(w, `{"generation": %d}`, f.gen)
		case "/api/rank":
			json.NewEncoder(w).Encode(f.rank)
		case "/api/diffusion":
			json.NewEncoder(w).Encode(serve.DiffusionResult{Version: 3, Generation: f.gen, Logit: float64(f.gen), Prob: 0.5})
		case "/api/user", "/api/foldin":
			fmt.Fprintf(w, `{"replica": %q}`, f.name)
		default:
			http.NotFound(w, r)
		}
	})
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

func newTestRouter(t *testing.T, fakes ...*fakeReplica) *Router {
	t.Helper()
	var reps []Replica
	for _, f := range fakes {
		reps = append(reps, Replica{Name: f.name, Base: f.srv.URL})
	}
	rt, err := New(reps, Options{Client: &http.Client{Timeout: 2 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func getRank(t *testing.T, base string, q string) (serve.RankResult, int) {
	t.Helper()
	resp, err := http.Get(base + "/api/rank" + q)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res serve.RankResult
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
	}
	return res, resp.StatusCode
}

// A replica dying mid-scatter must degrade the gather, not the answer:
// the surviving replicas' merge still serves, and the dead replica is
// marked unhealthy (and skipped) until it comes back.
func TestScatterReplicaDown(t *testing.T) {
	entries := []serve.RankEntry{{Community: 1, Score: 9}, {Community: 2, Score: 5}}
	a := newFakeReplica(t, "a", 3, entries)
	b := newFakeReplica(t, "b", 3, entries)
	c := newFakeReplica(t, "c", 3, entries)
	rt := newTestRouter(t, a, b, c)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	res, status := getRank(t, front.URL, "?w=1&k=2")
	if status != http.StatusOK || len(res.Entries) != 2 || res.Generation != 3 {
		t.Fatalf("healthy scatter: status %d result %+v", status, res)
	}
	if res.Version != 0 {
		t.Fatalf("merged result leaked a process-local version: %+v", res)
	}

	b.srv.Close() // replica drops between scatters
	res, status = getRank(t, front.URL, "?w=1&k=2")
	if status != http.StatusOK || len(res.Entries) != 2 {
		t.Fatalf("scatter with a dead replica: status %d result %+v", status, res)
	}
	st := rt.Stats()
	for _, r := range st.Replicas {
		if r.Name == "b" && (r.Healthy || r.Errors == 0 || r.LastError == "") {
			t.Fatalf("dead replica not marked: %+v", r)
		}
		if r.Name != "b" && !r.Healthy {
			t.Fatalf("live replica %s marked unhealthy", r.Name)
		}
	}
	if st.Healthy != 2 {
		t.Fatalf("healthy count = %d, want 2", st.Healthy)
	}

	// Subsequent scatters skip the unhealthy replica entirely.
	before := len(b.hits)
	if _, status := getRank(t, front.URL, "?w=1"); status != http.StatusOK {
		t.Fatalf("scatter after mark: status %d", status)
	}
	if len(b.hits) != before {
		t.Fatalf("unhealthy replica still scattered to")
	}
}

// Replicas answering from different generations must never be merged
// together: only the freshest group contributes, and the poll marks the
// trailing replica's lag on stats.
func TestScatterMixedGenerations(t *testing.T) {
	fresh := []serve.RankEntry{{Community: 4, Score: 8}, {Community: 9, Score: 6}}
	stale := []serve.RankEntry{{Community: 1, Score: 99}} // would win a torn merge
	a := newFakeReplica(t, "a", 5, fresh)
	b := newFakeReplica(t, "b", 5, fresh)
	lag := newFakeReplica(t, "lag", 2, stale)
	rt := newTestRouter(t, a, b, lag)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	res, status := getRank(t, front.URL, "?w=1&k=5")
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if res.Generation != 5 || len(res.Entries) != 2 || res.Entries[0].Community != 4 {
		t.Fatalf("merge crossed generations: %+v", res)
	}

	rt.PollReplicas()
	st := rt.Stats()
	if st.Generation != 5 {
		t.Fatalf("fleet generation = %d, want 5", st.Generation)
	}
	for _, r := range st.Replicas {
		switch r.Name {
		case "lag":
			if r.Generation != 2 || r.Lag != 3 || !r.Lagging || !r.Healthy {
				t.Fatalf("lagging replica status: %+v", r)
			}
		default:
			if r.Lag != 0 || r.Lagging {
				t.Fatalf("fresh replica marked lagging: %+v", r)
			}
		}
	}

	// The lag also surfaces on /metrics.
	resp, err := http.Get(front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	body := string(raw)
	for _, want := range []string{
		`cpd_router_replica_lag{replica="lag"} 3`,
		`cpd_router_replica_up{replica="a"} 1`,
		`cpd_router_generation 5`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestMetricsDeclareEveryFamily: the router's /metrics exposition declares
// every sample's family — the latency histograms' _bucket, _sum and _count
// series included — with exactly one # TYPE line before its first sample,
// and a family is a counter exactly when its name ends in _total.
func TestMetricsDeclareEveryFamily(t *testing.T) {
	entries := []serve.RankEntry{{Community: 1, Score: 0.5}}
	a := newFakeReplica(t, "a", 3, entries)
	b := newFakeReplica(t, "b", 3, entries)
	rt := newTestRouter(t, a, b)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	if _, status := getRank(t, front.URL, "?w=1&k=5"); status != http.StatusOK {
		t.Fatalf("rank status %d", status)
	}
	var buf strings.Builder
	rt.WriteMetrics(&buf)

	types := map[string]string{}
	family := func(name string) string {
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suffix); ok && types[base] == "histogram" {
				return base
			}
		}
		return name
	}
	samples := 0
	for _, line := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			fields := strings.Fields(rest)
			if len(fields) != 2 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			if _, dup := types[fields[0]]; dup {
				t.Fatalf("family %s declared twice", fields[0])
			}
			types[fields[0]] = fields[1]
			if strings.HasSuffix(fields[0], "_total") != (fields[1] == "counter") {
				t.Errorf("family %s is declared %s", fields[0], fields[1])
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, _, _ := strings.Cut(line, " ")
		name, _, _ = strings.Cut(name, "{")
		if _, ok := types[family(name)]; !ok {
			t.Errorf("sample %q precedes any # TYPE line of its family", line)
		}
		samples++
	}
	if types["cpd_router_latency_seconds"] != "histogram" || samples == 0 {
		t.Fatalf("no latency histogram declared in %d samples:\n%s", samples, buf.String())
	}
}

// The rank merge sums Members over one answer per shard index — a full
// replica being shard 0 of 1 — at the newest generation every shard of
// the largest advertised Count answered at, and reports partial when no
// generation had them all.
func TestMergeRankCoverage(t *testing.T) {
	// Every shard scores the same entries; only Members differ.
	ans := func(gen uint64, members int) *serve.RankResult {
		return &serve.RankResult{Version: 7, Generation: gen, Entries: []serve.RankEntry{
			{Community: 4, Score: 9, Members: members},
			{Community: 2, Score: 5, Members: 2 * members},
		}}
	}
	sh := func(index, count int) *shard.Info { return &shard.Info{Index: index, Count: count} }
	full := &allUsers
	type part struct {
		in  *shard.Info
		res *serve.RankResult
	}
	for _, tc := range []struct {
		name    string
		parts   []part
		gen     uint64
		members int
		partial bool
	}{
		{"one shard: its replicas answer alike, a stale one is dropped",
			[]part{{full, ans(5, 30)}, {full, ans(5, 30)}, {full, ans(4, 99)}}, 5, 30, false},
		{"two replicas per shard: a shard answering twice counts once",
			[]part{{sh(0, 2), ans(3, 10)}, {sh(1, 2), ans(3, 7)}, {sh(0, 2), ans(3, 10)}, {sh(1, 2), ans(3, 7)}}, 3, 17, false},
		{"rollout: full coverage at g-1 beats partial coverage at g",
			[]part{{sh(0, 3), ans(6, 1)}, {sh(1, 3), ans(6, 2)}, {sh(0, 3), ans(5, 10)}, {sh(1, 3), ans(5, 20)}, {sh(2, 3), ans(5, 30)}}, 5, 60, false},
		{"no full coverage anywhere: newest generation, partial sum",
			[]part{{sh(1, 3), ans(5, 20)}, {sh(0, 3), ans(6, 1)}, {sh(2, 3), ans(4, 30)}}, 6, 1, true},
		{"mixed fleet: the full replica's answer is ignored",
			[]part{{full, ans(5, 1000)}, {sh(0, 2), ans(5, 10)}, {sh(1, 2), ans(5, 7)}}, 5, 17, false},
		{"mixed fleet, no shard owner answered: the full replica is the fleet",
			[]part{{full, ans(5, 1000)}}, 5, 1000, false},
	} {
		var answers []*serve.RankResult
		var infos []*shard.Info
		for _, p := range tc.parts {
			answers, infos = append(answers, p.res), append(infos, p.in)
		}
		merged, partial := mergeRankSharded(answers, infos, 10)
		want := ans(tc.gen, tc.members)
		want.Version = 0 // the router assembled it
		if !reflect.DeepEqual(merged, want) || partial != tc.partial {
			t.Errorf("%s: merged %+v (partial %v), want %+v (partial %v)", tc.name, merged, partial, want, tc.partial)
		}
	}
	if top, _ := mergeRankSharded([]*serve.RankResult{ans(1, 3)}, []*shard.Info{full}, 1); len(top.Entries) != 1 || top.Entries[0].Community != 4 {
		t.Errorf("k=1 merge = %+v, want the top entry alone", top)
	}
	if merged, _ := mergeRankSharded(nil, nil, 10); merged != nil {
		t.Errorf("merge of no answers = %+v, want nil", merged)
	}
}

// A client cannot POST a diffusion query: the row-carrying POST is the
// router's own hop to the scoring replica, and a routed one could never
// carry the row. The router answers 405 without asking any replica.
func TestDiffusionRejectsNonGET(t *testing.T) {
	a := newFakeReplica(t, "a", 1, nil)
	front := httptest.NewServer(newTestRouter(t, a).Handler())
	defer front.Close()
	for _, method := range []string{http.MethodPost, http.MethodPut, http.MethodDelete} {
		req, err := http.NewRequest(method, front.URL+"/api/diffusion?u=1&v=2&topic=0", strings.NewReader(`{"u":1,"v":2,"topic":0}`))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s /api/diffusion: status %d, want 405", method, resp.StatusCode)
		}
	}
	if len(a.hits) != 0 {
		t.Errorf("a rejected diffusion reached the replica: %v", a.hits)
	}
}

// gatedReplica answers /api/rank with a canned payload only after the
// release gate opens, counting hits atomically — the instrument for
// observing how many fan-outs a thundering herd actually causes.
type gatedReplica struct {
	name    string
	hits    atomic.Int64
	release chan struct{}
	srv     *httptest.Server
}

func newGatedReplica(t *testing.T, name string, entries []serve.RankEntry) *gatedReplica {
	t.Helper()
	s := &gatedReplica{name: name, release: make(chan struct{})}
	mux := http.NewServeMux()
	mux.HandleFunc("/api/rank", func(w http.ResponseWriter, r *http.Request) {
		s.hits.Add(1)
		<-s.release
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(serve.RankResult{Generation: 4, Entries: entries})
	})
	s.srv = httptest.NewServer(mux)
	t.Cleanup(s.srv.Close)
	return s
}

// A thundering herd of identical rank queries must share ONE fleet
// fan-out: each replica sees a single backend request, every client gets
// the same complete answer, and the stats count the joined followers. A
// different query afterwards gets its own fan-out.
func TestScatterSingleflight(t *testing.T) {
	entries := []serve.RankEntry{{Community: 2, Score: 7}, {Community: 5, Score: 3}}
	a := newGatedReplica(t, "a", entries)
	b := newGatedReplica(t, "b", entries)
	rt, err := New(
		[]Replica{{Name: "a", Base: a.srv.URL}, {Name: "b", Base: b.srv.URL}},
		Options{Client: &http.Client{Timeout: 10 * time.Second}},
	)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	const herd = 8
	type answer struct {
		res    serve.RankResult
		status int
		err    error
	}
	answers := make(chan answer, herd)
	ask := func() {
		resp, err := http.Get(front.URL + "/api/rank?w=1&k=2")
		if err != nil {
			answers <- answer{err: err}
			return
		}
		defer resp.Body.Close()
		var res serve.RankResult
		err = json.NewDecoder(resp.Body).Decode(&res)
		answers <- answer{res: res, status: resp.StatusCode, err: err}
	}

	// Leader first: once both backends hold its fan-out at the gate, every
	// follower deterministically finds the in-flight call and joins it.
	go ask()
	waitFor := func(cond func() bool, what string) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitFor(func() bool { return a.hits.Load() == 1 && b.hits.Load() == 1 }, "leader fan-out")
	for i := 1; i < herd; i++ {
		go ask()
	}
	waitFor(func() bool { return rt.sharedScatters.Load() == herd-1 }, "followers to join the flight")
	close(a.release)
	close(b.release)

	for i := 0; i < herd; i++ {
		got := <-answers
		if got.err != nil || got.status != http.StatusOK {
			t.Fatalf("herd request failed: status %d err %v", got.status, got.err)
		}
		if got.res.Generation != 4 || len(got.res.Entries) != 2 || got.res.Entries[0].Community != 2 {
			t.Fatalf("shared answer wrong: %+v", got.res)
		}
	}
	if a.hits.Load() != 1 || b.hits.Load() != 1 {
		t.Fatalf("herd caused %d/%d backend requests, want 1/1", a.hits.Load(), b.hits.Load())
	}
	if st := rt.Stats(); st.SharedScatters != herd-1 {
		t.Fatalf("SharedScatters = %d, want %d", st.SharedScatters, herd-1)
	}

	// A different query (new k) is a new key: it must scatter for itself.
	if _, status := getRank(t, front.URL, "?w=1&k=1"); status != http.StatusOK {
		t.Fatalf("post-herd query: status %d", status)
	}
	if a.hits.Load() != 2 || b.hits.Load() != 2 {
		t.Fatalf("distinct query shared a finished flight: hits %d/%d", a.hits.Load(), b.hits.Load())
	}
}

// Rendezvous routing must be stable across replica-count changes: the
// two-replica fleet's assignments agree with the three-replica fleet's
// everywhere except the removed replica's users, and those land exactly
// on their failover (second-preference) replica.
func TestOwnerStabilityAcrossFleetChanges(t *testing.T) {
	mk := func(names ...string) *Router {
		var reps []Replica
		for _, n := range names {
			reps = append(reps, Replica{Name: n, Base: "http://" + n})
		}
		rt, err := New(reps, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return rt
	}
	full := mk("a", "b", "c")
	reduced := mk("a", "b")
	grown := mk("a", "b", "c")

	counts := map[string]int{}
	for key := uint64(0); key < 2000; key++ {
		owner := full.Owner(key)
		counts[owner]++
		if owner == "c" {
			// c's users fall to their second preference, which is what the
			// reduced fleet picks as owner.
			chain := full.owners(key)
			if got := reduced.Owner(key); got != chain[1].name {
				t.Fatalf("key %d: reduced owner %s, want failover %s", key, got, chain[1].name)
			}
		} else if got := reduced.Owner(key); got != owner {
			t.Fatalf("key %d remapped %s -> %s though its replica survived", key, owner, got)
		}
		// Re-adding the replica restores the original assignment.
		if grown.Owner(key) != owner {
			t.Fatalf("key %d not restored after re-add", key)
		}
	}
	// Sanity: the hash actually spreads users over all three replicas.
	for _, n := range []string{"a", "b", "c"} {
		if counts[n] < 400 {
			t.Fatalf("owner distribution skewed: %+v", counts)
		}
	}
}

// Owner-routed endpoints fail over down the preference chain when the
// owner is unreachable, and fold-in honours the ?user= routing hint.
func TestOwnerRoutingFailover(t *testing.T) {
	a := newFakeReplica(t, "a", 1, nil)
	b := newFakeReplica(t, "b", 1, nil)
	c := newFakeReplica(t, "c", 1, nil)
	byName := map[string]*fakeReplica{"a": a, "b": b, "c": c}
	rt := newTestRouter(t, a, b, c)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	getReplica := func(path string) string {
		var resp *http.Response
		var err error
		if strings.Contains(path, "foldin") {
			resp, err = http.Post(front.URL+path, "application/json", strings.NewReader(`{"docs":[[1]],"seed":42}`))
		} else {
			resp, err = http.Get(front.URL + path)
		}
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		var body struct {
			Replica string `json:"replica"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return body.Replica
	}

	// Membership lands on the rendezvous owner.
	owner := rt.Owner(11)
	if got := getReplica("/api/user?id=11&k=3"); got != owner {
		t.Fatalf("user 11 served by %s, want owner %s", got, owner)
	}
	// Fold-in with a user hint routes like that user; without one, by seed.
	if got := getReplica("/api/foldin?user=11"); got != owner {
		t.Fatalf("foldin hint routed to %s, want %s", got, owner)
	}
	if got := getReplica("/api/foldin"); got != rt.Owner(42) {
		t.Fatalf("foldin by seed routed to %s, want %s", got, rt.Owner(42))
	}

	// Kill the owner: requests fail over to the next chain entry.
	chain := rt.owners(11)
	byName[chain[0].name].srv.Close()
	if got := getReplica("/api/user?id=11"); got != chain[1].name {
		t.Fatalf("failover served by %s, want %s", got, chain[1].name)
	}
	// Bad inputs are rejected at the router, no backend involved.
	resp, err := http.Get(front.URL + "/api/user?id=notanumber")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad id: status %d", resp.StatusCode)
	}
}

// The version rule of the package comment: what one replica scored is
// relayed verbatim, that replica's process-local version included; rank,
// which the router assembles from a scatter, carries version 0.
func TestRoutedVersionRule(t *testing.T) {
	get := func(url string) string {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, %v: %s", url, resp.StatusCode, err, body)
		}
		return string(body)
	}

	// Full replication: rank is scatter-gathered; diffusion goes to the
	// owner of u alone, which holds every row.
	entries := []serve.RankEntry{{Community: 1, Score: 9}}
	a, b := newFakeReplica(t, "a", 3, entries), newFakeReplica(t, "b", 3, entries)
	full := newTestRouter(t, a, b)
	front := httptest.NewServer(full.Handler())
	defer front.Close()
	if res, _ := getRank(t, front.URL, "?w=1"); res.Version != 0 || res.Generation != 3 {
		t.Errorf("merged rank = %+v, want version 0 at generation 3 (the replicas said version 7)", res)
	}
	owner, other := a, b
	if full.Owner(1) == "b" {
		owner, other = b, a
	}
	got := get(front.URL + "/api/diffusion?u=1&v=2&topic=0")
	if want := get(owner.srv.URL + "/api/diffusion?u=1&v=2&topic=0"); got != want || !strings.Contains(got, `"version":3`) {
		t.Errorf("fully replicated diffusion = %q, want the owner of u's own reply %q, version 3 included", got, want)
	}
	for _, path := range other.hits {
		if path == "/api/diffusion" {
			t.Errorf("fully replicated diffusion reached %s, which does not own u", other.name)
		}
	}
	if body := get(front.URL + "/api/user?id=5"); !strings.HasPrefix(body, `{"replica": "`) {
		t.Errorf("membership was not relayed verbatim: %s", body)
	}

	// Sharded: the owner of u scores a diffusion pair, alone when it owns
	// v too, with v's row shipped in when it does not. Either way the
	// reply is that replica's, byte for byte.
	s0, s1 := newGenReplica(t, "s0", 0, 0, 10), newGenReplica(t, "s1", 1, 10, 20)
	rt, err := New([]Replica{{Name: "s0", Base: s0.srv.URL}, {Name: "s1", Base: s1.srv.URL}}, Options{Client: &http.Client{Timeout: 2 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	rt.PollReplicas()
	sharded := httptest.NewServer(rt.Handler())
	defer sharded.Close()
	for _, tc := range []struct{ query, want string }{
		{"u=1&v=2&topic=0", get(s0.srv.URL + "/api/diffusion")},   // both on s0
		{"u=12&v=15&topic=0", get(s1.srv.URL + "/api/diffusion")}, // both on s1
		{"u=1&v=15&topic=0", get(s0.srv.URL + "/api/diffusion")},  // s0 scores with s1's row
		{"u=15&v=1&topic=0", get(s1.srv.URL + "/api/diffusion")},  // s1 scores with s0's row
	} {
		if got := get(sharded.URL + "/api/diffusion?" + tc.query); got != tc.want {
			t.Errorf("sharded diffusion %s = %q, want the scoring replica's own reply %q", tc.query, got, tc.want)
		}
	}
}

// The browsing endpoints relay the freshest healthy replica's reply as it
// wrote it — status, Content-Type and body, the quality table's text
// included — and fail over down the freshness order when it is down.
func TestProxyFreshestRelaysAndFailsOver(t *testing.T) {
	newReplica := func(seed, gen uint64) *httptest.Server {
		m := serve.SyntheticModel(30, 5, 4, 60, seed)
		e := serve.NewMulti(serve.Options{})
		t.Cleanup(e.Close)
		path := store.GenPath(t.TempDir(), gen)
		if err := store.SaveV2(path, m); err != nil {
			t.Fatal(err)
		}
		if _, err := e.LoadGeneration(serve.DefaultSnapshot, path, nil, gen); err != nil {
			t.Fatal(err)
		}
		r := quality.FromModel(m, nil, nil)
		r.Generation = gen
		e.RecordQuality(serve.DefaultSnapshot, r)
		base := quality.FromModel(m, nil, nil)
		base.Algo = "plp"
		e.RecordQualityBaseline(serve.DefaultSnapshot, base)
		srv := httptest.NewServer(serve.APIHandler(e, nil))
		t.Cleanup(srv.Close)
		return srv
	}
	stale, fresh := newReplica(3, 2), newReplica(9, 5)
	// Named so that name order puts the stale replica first.
	rt, err := New([]Replica{{Name: "a-stale", Base: stale.URL}, {Name: "b-fresh", Base: fresh.URL}},
		Options{Client: &http.Client{Timeout: 2 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	rt.PollReplicas()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	type reply struct {
		status int
		ct     string
		body   string
	}
	get := func(url string) reply {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return reply{resp.StatusCode, resp.Header.Get("Content-Type"), string(body)}
	}
	paths := []string{
		"/api/communities",
		"/api/community?id=1",
		"/api/community?id=x", // the replica's 400 is relayed, not the router's
		"/api/quality",
		"/api/quality?format=table",
	}
	if a, b := get(stale.URL+"/api/quality?format=table"), get(fresh.URL+"/api/quality?format=table"); a.body == b.body {
		t.Fatal("replicas answer the same table: the test cannot tell them apart")
	}
	for _, path := range paths {
		want, got := get(fresh.URL+path), get(front.URL+path)
		if got != want {
			t.Fatalf("%s through the router: %+v, want the freshest replica's %+v", path, got, want)
		}
	}
	if table := get(front.URL + "/api/quality?format=table"); !strings.HasPrefix(table.ct, "text/plain") || !strings.Contains(table.body, "gen 5/cpd") {
		t.Fatalf("routed quality table: %+v", table)
	}

	// The freshest replica goes down: the next in freshness order answers.
	fresh.Close()
	for _, path := range paths {
		want, got := get(stale.URL+path), get(front.URL+path)
		if got != want {
			t.Fatalf("%s after failover: %+v, want the remaining replica's %+v", path, got, want)
		}
	}
	for _, r := range rt.Stats().Replicas {
		if r.Name == "b-fresh" && r.Healthy {
			t.Fatalf("dead replica still healthy: %+v", r)
		}
	}
}

package router

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
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

// The partial top-K merge must reproduce the single-node order exactly:
// score descending, community ascending on score ties (TopKIndices'
// tie-to-first-index rule), duplicates deduplicated to the best score,
// and older generations dropped rather than mixed.
func TestMergeRankTies(t *testing.T) {
	merged := mergeRank([]*serve.RankResult{
		{Generation: 7, Entries: []serve.RankEntry{
			{Community: 5, Score: 3.0},
			{Community: 2, Score: 3.0}, // ties 5; lower id must sort first
			{Community: 8, Score: 1.0},
		}},
		{Generation: 7, Entries: []serve.RankEntry{
			{Community: 5, Score: 3.0}, // duplicate of the tie
			{Community: 3, Score: 9.0},
			{Community: 8, Score: 2.0}, // same community, better score
		}},
		{Generation: 6, Entries: []serve.RankEntry{
			{Community: 1, Score: 100}, // stale: must not appear
		}},
	}, 4)
	if merged.Generation != 7 {
		t.Fatalf("generation = %d, want 7", merged.Generation)
	}
	want := []serve.RankEntry{
		{Community: 3, Score: 9.0},
		{Community: 2, Score: 3.0},
		{Community: 5, Score: 3.0},
		{Community: 8, Score: 2.0},
	}
	if len(merged.Entries) != len(want) {
		t.Fatalf("entries = %+v, want %+v", merged.Entries, want)
	}
	for i := range want {
		if merged.Entries[i] != want[i] {
			t.Fatalf("entry %d = %+v, want %+v", i, merged.Entries[i], want[i])
		}
	}
	// Truncation keeps the top of the same order.
	if top := mergeRank([]*serve.RankResult{{Generation: 7, Entries: want}}, 2); len(top.Entries) != 2 || top.Entries[1].Community != 2 {
		t.Fatalf("truncated merge = %+v", top.Entries)
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
// relayed verbatim, that replica's process-local version included; what
// the router assembled from a scatter carries version 0.
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

	// Full replication: rank and diffusion are scatter-gathered.
	entries := []serve.RankEntry{{Community: 1, Score: 9}}
	a, b := newFakeReplica(t, "a", 3, entries), newFakeReplica(t, "b", 3, entries)
	front := httptest.NewServer(newTestRouter(t, a, b).Handler())
	defer front.Close()
	if res, _ := getRank(t, front.URL, "?w=1"); res.Version != 0 || res.Generation != 3 {
		t.Errorf("merged rank = %+v, want version 0 at generation 3 (the replicas said version 7)", res)
	}
	var d serve.DiffusionResult
	if err := json.Unmarshal([]byte(get(front.URL+"/api/diffusion?u=1&v=2&topic=0")), &d); err != nil || d.Version != 0 || d.Generation != 3 {
		t.Errorf("scattered diffusion = %+v (%v), want version 0 at generation 3 (the replicas said version 3)", d, err)
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

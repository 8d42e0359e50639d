package serve_test

// Replica adoption against a real publisher. These live in the external
// test package because internal/stream imports internal/serve; the
// hand-rolled generations of replica_test.go cannot stand in for them —
// what is checked here is that two consecutive generations of a
// stream.Updater (same global blocks in two files, a handful of moved
// rows, appended users, pinned shard boundaries) are adopted by patching,
// and that a patched replica answers what a fresh one does.

import (
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/stream"
)

const (
	adoptUsers, adoptC, adoptZ, adoptV = 300, 8, 5, 120
	adoptShards                        = 3
)

// adoptPublisher is a stream.Updater publishing a full file per
// generation into dir, committed by a one-shard manifest or next to a
// group of the given shard count.
type adoptPublisher struct {
	dir   string
	u     *stream.Updater
	r     *rand.Rand
	users int
}

func newAdoptPublisher(t *testing.T, shards int) *adoptPublisher {
	t.Helper()
	base := serve.SyntheticModel(adoptUsers, adoptC, adoptZ, adoptV, 41)
	engine := serve.New(base, nil, serve.Options{})
	t.Cleanup(engine.Close)
	j, err := stream.OpenJournal(filepath.Join(t.TempDir(), "events.wal"), stream.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	p := &adoptPublisher{dir: t.TempDir(), r: rand.New(rand.NewSource(6)), users: adoptUsers}
	p.u, err = stream.NewUpdater(j, stream.Options{
		Engine: engine, Base: base, FoldSweeps: 4, FoldSeed: 9,
		Dir: p.dir, Shards: shards, KeepSnapshots: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.u.Close)
	return p
}

// publish streams documents for users spread over every shard plus a few
// new users, and publishes one generation.
func (p *adoptPublisher) publish(t *testing.T, newUsers int) uint64 {
	t.Helper()
	var evs []stream.Event
	for i := 0; i < newUsers; i++ {
		evs = append(evs, stream.Event{Type: stream.EvAddUser})
		p.users++
	}
	for i := 0; i < 12; i++ {
		words := make([]int32, 6)
		for k := range words {
			words[k] = int32(p.r.Intn(adoptV))
		}
		evs = append(evs, stream.Event{Type: stream.EvAddDoc, User: int32(p.r.Intn(p.users)), Time: int64(i), Words: words})
	}
	if _, err := p.u.Ingest(evs); err != nil {
		t.Fatal(err)
	}
	info, err := p.u.Publish()
	if err != nil {
		t.Fatal(err)
	}
	return info.Generation
}

func liveBuild(t *testing.T, e *serve.Engine) serve.BuildInfo {
	t.Helper()
	infos := e.SnapshotsInfo()
	if len(infos) != 1 {
		t.Fatalf("engine holds %d snapshots, want 1", len(infos))
	}
	return infos[0].Build
}

// requireSameAnswers holds got to want on everything a replica answers:
// membership of every user id (owned or not — the error must agree too),
// rank for a spread of queries, community summaries, and fold-ins with
// owned friends.
func requireSameAnswers(t *testing.T, got, want *serve.Engine, users int) {
	t.Helper()
	var owned []int32
	for u := 0; u < users; u++ {
		a, aerr := got.MembershipIn(serve.DefaultSnapshot, u, 4)
		b, berr := want.MembershipIn(serve.DefaultSnapshot, u, 4)
		var notOwned *serve.ErrNotOwned
		if (aerr != nil) != (berr != nil) || errors.As(aerr, &notOwned) != errors.As(berr, &notOwned) {
			t.Fatalf("membership(%d) errors diverge: %v vs %v", u, aerr, berr)
		}
		if aerr != nil {
			continue
		}
		owned = append(owned, int32(u))
		a.Version, b.Version = 0, 0
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("membership(%d): adopted %+v, fresh %+v", u, a, b)
		}
	}
	if len(owned) == 0 {
		t.Fatal("no user answered")
	}
	for w := 0; w < adoptV; w += 7 {
		q := []int32{int32(w), int32((w * 5) % adoptV)}
		a, aerr := got.RankIn(serve.DefaultSnapshot, q, 5)
		b, berr := want.RankIn(serve.DefaultSnapshot, q, 5)
		if aerr != nil || berr != nil {
			t.Fatalf("rank(%v): %v, %v", q, aerr, berr)
		}
		a.Version, b.Version = 0, 0
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("rank(%v): adopted %+v, fresh %+v", q, a, b)
		}
	}
	ca, aerr := got.CommunitiesIn(serve.DefaultSnapshot)
	cb, berr := want.CommunitiesIn(serve.DefaultSnapshot)
	if aerr != nil || berr != nil {
		t.Fatalf("communities: %v, %v", aerr, berr)
	}
	if !reflect.DeepEqual(ca, cb) {
		t.Fatalf("communities: adopted %+v, fresh %+v", ca, cb)
	}
	for i := 0; i < 6; i++ {
		req := &serve.FoldInRequest{
			Docs:    [][]int32{{int32(i), int32(3 * i), 11}, {7, int32(100 - i)}},
			Friends: []int32{owned[i%len(owned)], owned[(7*i+3)%len(owned)], owned[len(owned)-1]},
			Seed:    uint64(50 + i), Sweeps: 6,
		}
		a, aerr := got.FoldInNamed(serve.DefaultSnapshot, req)
		b, berr := want.FoldInNamed(serve.DefaultSnapshot, req)
		if aerr != nil || berr != nil {
			t.Fatalf("fold-in %d: %v, %v", i, aerr, berr)
		}
		a.Version, b.Version = 0, 0
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("fold-in %d: adopted %+v, fresh %+v", i, a, b)
		}
	}
}

// TestFetcherAdoptsFullFileByPatch: a replica of an unsharded publisher
// fetches each full file as shard 0 of 1, builds its first generation
// from scratch and patches the second; an engine loading the second file
// fresh answers the same.
func TestFetcherAdoptsFullFileByPatch(t *testing.T) {
	p := newAdoptPublisher(t, 1)
	replica := serve.NewMulti(serve.Options{})
	defer replica.Close()
	f, err := serve.NewFetcher(replica, serve.FetchOptions{Source: p.dir})
	if err != nil {
		t.Fatal(err)
	}

	g1 := p.publish(t, 4)
	if gen, err := f.Poll(); gen != g1 || err != nil {
		t.Fatalf("first poll = %d, %v; want %d", gen, err, g1)
	}
	if b := liveBuild(t, replica); b.Kind != serve.BuildFull || b.Reason != "no predecessor" {
		t.Fatalf("first adoption built %+v, want a full build into an empty slot", b)
	}
	if st := f.Status(); st.PatchedPromotes != 0 || st.LastPromoteMicros <= 0 {
		t.Fatalf("status after the first adoption: %+v", st)
	}

	g2 := p.publish(t, 3)
	if gen, err := f.Poll(); gen != g2 || err != nil {
		t.Fatalf("second poll = %d, %v; want %d", gen, err, g2)
	}
	b := liveBuild(t, replica)
	if b.Kind != serve.BuildPatched || !b.Derived {
		t.Fatalf("second adoption built %+v, want a derived patch", b)
	}
	// 12 documents moved at most 12 rows; 3 users were appended.
	if b.Users < 3 || b.Users > 15 {
		t.Fatalf("second adoption re-indexed %d users, want the 3 appended plus at most 12 touched", b.Users)
	}
	if st := f.Status(); st.PatchedPromotes != 1 || st.Fetches != 2 {
		t.Fatalf("status after the second adoption: %+v", st)
	}

	fresh := serve.NewMulti(serve.Options{})
	defer fresh.Close()
	if _, err := fresh.LoadGeneration(serve.DefaultSnapshot, store.GenPath(p.dir, g2), nil, g2); err != nil {
		t.Fatal(err)
	}
	requireSameAnswers(t, replica, fresh, p.users)
	// Shard 0 of 1 is the full snapshot it holds: same error past the last
	// user, no shard range, the one file mapped once, the same /healthz
	// but for the process-local version.
	_, aerr := replica.MembershipIn(serve.DefaultSnapshot, p.users, 4)
	_, berr := fresh.MembershipIn(serve.DefaultSnapshot, p.users, 4)
	if aerr == nil || berr == nil || aerr.Error() != berr.Error() {
		t.Fatalf("membership past the last user: adopted %v, fresh %v", aerr, berr)
	}
	if a, b := replica.SnapshotsInfo()[0], fresh.SnapshotsInfo()[0]; a.Shard != nil || a.Mapped != b.Mapped || a.MappedBytes != b.MappedBytes || a.HeapBytes != b.HeapBytes {
		t.Fatalf("adopted snapshot %+v, fresh %+v", a, b)
	}
	healthz := func(e *serve.Engine) map[string]any {
		rec := httptest.NewRecorder()
		serve.APIHandler(e, nil).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		var h map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
			t.Fatal(err)
		}
		delete(h, "version")
		return h
	}
	if a, b := healthz(replica), healthz(fresh); !reflect.DeepEqual(a, b) {
		t.Fatalf("/healthz: adopted %v, fresh %v", a, b)
	}
	if st := f.Status(); st.Shard != 0 || st.Shards != 1 {
		t.Fatalf("status: %+v, want shard 0 of 1", st)
	}
}

// TestFetcherAdoptsShardsByPatch: shard replicas patch across the
// publisher's pinned boundaries — a middle shard, the first, and the last
// one, which grows — and rebuild when a re-planned group moves their first
// user. Each is compared with a fresh engine promoted from the same files.
func TestFetcherAdoptsShardsByPatch(t *testing.T) {
	p := newAdoptPublisher(t, adoptShards)
	replicas := make([]*serve.Engine, adoptShards)
	fetchers := make([]*serve.Fetcher, adoptShards)
	for i := range replicas {
		replicas[i] = serve.NewMulti(serve.Options{})
		defer replicas[i].Close()
		var err error
		fetchers[i], err = serve.NewFetcher(replicas[i], serve.FetchOptions{Source: p.dir, Shard: i})
		if err != nil {
			t.Fatal(err)
		}
	}
	pollAll := func(want uint64) {
		t.Helper()
		for i, f := range fetchers {
			if gen, err := f.Poll(); gen != want || err != nil {
				t.Fatalf("shard %d poll = %d, %v; want %d", i, gen, err, want)
			}
		}
	}
	freshShard := func(gen uint64, index int) *serve.Engine {
		t.Helper()
		man, err := shard.ReadManifest(shard.ManifestPath(p.dir, gen))
		if err != nil {
			t.Fatal(err)
		}
		g, err := shard.OpenGroup(p.dir, man, index)
		if err != nil {
			t.Fatal(err)
		}
		e := serve.NewMulti(serve.Options{})
		t.Cleanup(e.Close)
		e.PromoteGroup(serve.DefaultSnapshot, g, nil, gen, nil)
		return e
	}

	g1 := p.publish(t, 5)
	pollAll(g1)
	for i, e := range replicas {
		if b := liveBuild(t, e); b.Kind != serve.BuildFull || b.Reason != "no predecessor" {
			t.Fatalf("shard %d first adoption built %+v", i, b)
		}
	}

	g2 := p.publish(t, 6)
	pollAll(g2)
	for i, e := range replicas {
		b := liveBuild(t, e)
		if b.Kind != serve.BuildPatched || !b.Derived {
			t.Fatalf("shard %d second adoption built %+v, want a derived patch", i, b)
		}
		if last := i == adoptShards-1; last && b.Users < 6 || !last && b.Users > 12 {
			t.Fatalf("shard %d re-indexed %d users (6 were appended to the last shard, 12 documents streamed)", i, b.Users)
		}
		if st := fetchers[i].Status(); st.PatchedPromotes != 1 || st.Shard != i || st.Shards != adoptShards {
			t.Fatalf("shard %d status: %+v", i, st)
		}
		requireSameAnswers(t, e, freshShard(g2, i), p.users)
	}

	// A publisher that lost its pinned boundaries re-plans them over the
	// grown user set: same model, every boundary but 0 somewhere else.
	g3 := g2 + 1
	if _, err := shard.Split(store.GenPath(p.dir, g2), p.dir, g3, shard.SplitOptions{Shards: adoptShards}); err != nil {
		t.Fatal(err)
	}
	pollAll(g3)
	for i, e := range replicas {
		b := liveBuild(t, e)
		if i == 0 {
			// Shard 0 still starts at user 0 and only gained users.
			if b.Kind != serve.BuildPatched || b.Users == 0 {
				t.Fatalf("shard 0 after the re-plan built %+v, want a patch appending users", b)
			}
		} else if b.Kind != serve.BuildFull || b.Reason != "shard moved" {
			t.Fatalf("shard %d after the re-plan built %+v, want a full build because the shard moved", i, b)
		}
		requireSameAnswers(t, e, freshShard(g3, i), p.users)
	}
}

// TestFetcherReusesUnchangedGlobalFile: fold-in generations that append
// users leave the group's global file (the community profiles) as it was,
// so sharded replicas fetching over HTTP download it once and hard-link
// their copy for every later generation — and still answer what a full
// node does.
func TestFetcherReusesUnchangedGlobalFile(t *testing.T) {
	p := newAdoptPublisher(t, adoptShards)
	var globalFetches atomic.Int64
	origin := stream.SnapshotServer(p.dir)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/api/shards/file" && r.URL.Query().Get("global") != "" {
			globalFetches.Add(1)
		}
		origin.ServeHTTP(w, r)
	}))
	defer srv.Close()

	replicas := make([]*serve.Engine, adoptShards)
	fetchers := make([]*serve.Fetcher, adoptShards)
	caches := make([]string, adoptShards)
	for i := range replicas {
		replicas[i] = serve.NewMulti(serve.Options{})
		defer replicas[i].Close()
		caches[i] = t.TempDir()
		var err error
		fetchers[i], err = serve.NewFetcher(replicas[i], serve.FetchOptions{Source: srv.URL, Dir: caches[i], Shard: i})
		if err != nil {
			t.Fatal(err)
		}
	}
	var last uint64
	for round, newUsers := range []int{2, 5, 3} {
		gen := p.publish(t, newUsers)
		for i, f := range fetchers {
			if got, err := f.Poll(); got != gen || err != nil {
				t.Fatalf("round %d: shard %d poll = %d, %v; want %d", round, i, got, err, gen)
			}
			if round == 0 {
				continue
			}
			a, err := os.Stat(shard.GlobalPath(caches[i], last))
			if err != nil {
				t.Fatal(err)
			}
			b, err := os.Stat(shard.GlobalPath(caches[i], gen))
			if err != nil {
				t.Fatal(err)
			}
			if !os.SameFile(a, b) {
				t.Fatalf("replica %d: generation %d's global file is not its predecessor's", i, gen)
			}
		}
		last = gen
	}
	if n := globalFetches.Load(); n != adoptShards {
		t.Fatalf("the global file was downloaded %d times by %d replicas, want once each", n, adoptShards)
	}

	full := serve.NewMulti(serve.Options{})
	defer full.Close()
	if _, err := full.LoadGeneration(serve.DefaultSnapshot, store.GenPath(p.dir, last), nil, last); err != nil {
		t.Fatal(err)
	}
	for i, e := range replicas {
		requireOwnedAnswersMatch(t, e, full, p.users)
		if st := fetchers[i].Status(); st.Generation != last || st.Failures != 0 {
			t.Fatalf("shard %d status: %+v", i, st)
		}
	}
}

// TestFetcherRestartRechecksCachedFile: a replica restarted over its HTTP
// cache checks every cached file again before adopting it. One payload
// byte of the cached shard file is flipped with size and mtime kept, so
// only a walk of the payload CRCs can tell. The first poll must fail the
// check and remove the file; the next downloads it again, and the
// replica then answers what a full node does.
func TestFetcherRestartRechecksCachedFile(t *testing.T) {
	p := newAdoptPublisher(t, adoptShards)
	gen := p.publish(t, 2)
	var shardFetches atomic.Int64
	origin := stream.SnapshotServer(p.dir)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/api/shards/file" && r.URL.Query().Get("shard") != "" {
			shardFetches.Add(1)
		}
		origin.ServeHTTP(w, r)
	}))
	defer srv.Close()
	cache := t.TempDir()
	opts := serve.FetchOptions{Source: srv.URL, Dir: cache, Shard: 1}

	first := serve.NewMulti(serve.Options{})
	f, err := serve.NewFetcher(first, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := f.Poll(); got != gen || err != nil {
		t.Fatalf("first poll = %d, %v; want %d", got, err, gen)
	}
	first.Close()

	path := shard.ShardPath(cache, gen, 1)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-8] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, fi.ModTime(), fi.ModTime()); err != nil {
		t.Fatal(err)
	}

	replica := serve.NewMulti(serve.Options{})
	defer replica.Close()
	if f, err = serve.NewFetcher(replica, opts); err != nil {
		t.Fatal(err)
	}
	if got, err := f.Poll(); err == nil {
		t.Fatalf("the restarted replica promoted generation %d from a corrupt cached file", got)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("the corrupt cached file is still there: %v", err)
	}
	if got, err := f.Poll(); got != gen || err != nil {
		t.Fatalf("the poll after the failed check = %d, %v; want %d", got, err, gen)
	}
	if n := shardFetches.Load(); n != 2 {
		t.Fatalf("the shard file was downloaded %d times, want twice", n)
	}
	full := serve.NewMulti(serve.Options{})
	defer full.Close()
	if _, err := full.LoadGeneration(serve.DefaultSnapshot, store.GenPath(p.dir, gen), nil, gen); err != nil {
		t.Fatal(err)
	}
	requireOwnedAnswersMatch(t, replica, full, p.users)
}

// TestFetcherRefusesTruncatedShardFile: a directory source whose newest
// generation holds a truncated shard file fails the poll with an error
// naming the file; the replica keeps serving the generation it has, and
// the publisher's file is left as it is.
func TestFetcherRefusesTruncatedShardFile(t *testing.T) {
	p := newAdoptPublisher(t, adoptShards)
	first := p.publish(t, 2)
	replica := serve.NewMulti(serve.Options{})
	defer replica.Close()
	f, err := serve.NewFetcher(replica, serve.FetchOptions{Source: p.dir, Shard: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := f.Poll(); got != first || err != nil {
		t.Fatalf("first poll = %d, %v; want %d", got, err, first)
	}

	gen := p.publish(t, 2)
	path := shard.ShardPath(p.dir, gen, 1)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A new file under the name: the old one may be hard-linked to the
	// shard file the replica serves.
	cut := raw[:len(raw)/2]
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, cut, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := f.Poll(); err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("poll over a truncated shard file = %d, %v; want an error naming %s", got, err, path)
	}
	if left, err := os.ReadFile(path); err != nil || len(left) != len(cut) {
		t.Fatalf("the publisher's file was touched: %d bytes left of %d (%v)", len(left), len(cut), err)
	}
	if st := f.Status(); st.Generation != first || st.Failures != 1 || st.LastError == "" {
		t.Fatalf("fetcher status = %+v", st)
	}
	s, release, err := replica.AcquireNamed(serve.DefaultSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if s.Generation != first {
		t.Fatalf("the replica serves generation %d, want %d", s.Generation, first)
	}
}

// TestReplicaFetchesNoTrainingState: a shard replica polling a 3-shard
// generation of a model with documents over HTTP keeps no document array
// in its cache — its shard file and the global file hold none, and the
// generation's state file is never downloaded — and answers what a full
// node does.
func TestReplicaFetchesNoTrainingState(t *testing.T) {
	p := newAdoptPublisher(t, adoptShards)
	gen := p.publish(t, 2)
	docTags := []string{store.TagDocC, store.TagDocZ, store.TagDocB}
	sums, _, err := store.FileSections(store.GenPath(p.dir, gen))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sums {
		if s.Tag == store.TagDocC && s.Size <= 64 {
			t.Fatalf("the published model has no documents (DOCC holds %d bytes)", s.Size)
		}
	}
	srv := httptest.NewServer(stream.SnapshotServer(p.dir))
	defer srv.Close()
	replica := serve.NewMulti(serve.Options{})
	defer replica.Close()
	cache := t.TempDir()
	f, err := serve.NewFetcher(replica, serve.FetchOptions{Source: srv.URL, Dir: cache, Shard: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := f.Poll(); got != gen || err != nil {
		t.Fatalf("poll = %d, %v; want %d", got, err, gen)
	}
	entries, err := os.ReadDir(cache)
	if err != nil {
		t.Fatal(err)
	}
	var snaps []string
	for _, ent := range entries {
		if !strings.HasSuffix(ent.Name(), ".v2.snap") {
			continue
		}
		snaps = append(snaps, ent.Name())
		sums, _, err := store.FileSections(filepath.Join(cache, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range sums {
			if slices.Contains(docTags, s.Tag) {
				t.Errorf("the replica's %s holds the document array %s", ent.Name(), s.Tag)
			}
		}
	}
	if want := []string{filepath.Base(shard.GlobalPath("", gen)), filepath.Base(shard.ShardPath("", gen, 1))}; !reflect.DeepEqual(snaps, want) {
		t.Fatalf("the replica cached %v, want %v", snaps, want)
	}
	full := serve.NewMulti(serve.Options{})
	defer full.Close()
	if _, err := full.LoadGeneration(serve.DefaultSnapshot, store.GenPath(p.dir, gen), nil, gen); err != nil {
		t.Fatal(err)
	}
	requireOwnedAnswersMatch(t, replica, full, p.users)
}

// requireOwnedAnswersMatch holds a shard replica to a full node on what
// it answers alone: the membership of every user it owns, the community
// order and scores of rank answers (member counts are its own users'),
// and fold-ins whose friends it owns.
func requireOwnedAnswersMatch(t *testing.T, replica, full *serve.Engine, users int) {
	t.Helper()
	var owned []int32
	for u := 0; u < users; u++ {
		a, err := replica.MembershipIn(serve.DefaultSnapshot, u, 4)
		var notOwned *serve.ErrNotOwned
		if errors.As(err, &notOwned) {
			continue
		}
		b, berr := full.MembershipIn(serve.DefaultSnapshot, u, 4)
		if err != nil || berr != nil {
			t.Fatalf("membership(%d): %v, %v", u, err, berr)
		}
		owned = append(owned, int32(u))
		if !reflect.DeepEqual(a.Communities, b.Communities) {
			t.Fatalf("membership(%d): replica %+v, full node %+v", u, a, b)
		}
	}
	if len(owned) == 0 {
		t.Fatal("the replica owns no user")
	}
	for w := 0; w < adoptV; w += 11 {
		q := []int32{int32(w), int32((w * 3) % adoptV)}
		a, aerr := replica.RankIn(serve.DefaultSnapshot, q, adoptC)
		b, berr := full.RankIn(serve.DefaultSnapshot, q, adoptC)
		if aerr != nil || berr != nil || len(a.Entries) != len(b.Entries) {
			t.Fatalf("rank(%v): %v, %v", q, aerr, berr)
		}
		for k := range a.Entries {
			if a.Entries[k].Community != b.Entries[k].Community || a.Entries[k].Score != b.Entries[k].Score {
				t.Fatalf("rank(%v) entry %d: replica %+v, full node %+v", q, k, a.Entries[k], b.Entries[k])
			}
		}
	}
	for i := 0; i < 4; i++ {
		req := &serve.FoldInRequest{
			Docs:    [][]int32{{int32(i), 9, int32(40 + i)}},
			Friends: []int32{owned[i%len(owned)], owned[len(owned)-1]},
			Seed:    uint64(70 + i), Sweeps: 6,
		}
		a, aerr := replica.FoldInNamed(serve.DefaultSnapshot, req)
		b, berr := full.FoldInNamed(serve.DefaultSnapshot, req)
		if aerr != nil || berr != nil {
			t.Fatalf("fold-in %d: %v, %v", i, aerr, berr)
		}
		a.Version, b.Version = 0, 0
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("fold-in %d: replica %+v, full node %+v", i, a, b)
		}
	}
}

package serve_test

import (
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/stream"
)

// publishGen writes a synthetic model as unsharded generation gen in dir:
// the full file, committed by its one-shard manifest.
func publishGen(t *testing.T, dir string, gen, seed uint64) string {
	t.Helper()
	m := serve.SyntheticModel(20+int(seed), 5, 4, 120, seed)
	path := store.GenPath(dir, gen)
	if err := store.SaveV2(path, m); err != nil {
		t.Fatal(err)
	}
	if _, err := shard.PublishWhole(dir, gen, m); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestFetcherDirSource(t *testing.T) {
	pub := t.TempDir()
	e := serve.NewMulti(serve.Options{Mmap: true})
	defer e.Close()
	f, err := serve.NewFetcher(e, serve.FetchOptions{Source: pub, Interval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	// Empty publisher: a poll is a no-op, not an error.
	if gen, err := f.Poll(); gen != 0 || err != nil {
		t.Fatalf("poll of empty dir = %d, %v", gen, err)
	}

	publishGen(t, pub, 1, 1)
	if gen, err := f.Poll(); gen != 1 || err != nil {
		t.Fatalf("first poll = %d, %v; want 1", gen, err)
	}
	s, release, err := e.AcquireNamed(serve.DefaultSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	if s.Generation != 1 || s.Model.NumUsers != 21 || s.Shard != nil {
		t.Fatalf("serving generation %d with %d users (shard %+v), want 1 with 21 as a full snapshot", s.Generation, s.Model.NumUsers, s.Shard)
	}
	release()
	// Results carry the publisher generation.
	if res, err := e.MembershipIn(serve.DefaultSnapshot, 0, 3); err != nil || res.Generation != 1 {
		t.Fatalf("membership generation = %+v, %v", res, err)
	}

	// Already current: nothing to do.
	if gen, err := f.Poll(); gen != 0 || err != nil {
		t.Fatalf("repeat poll = %d, %v; want 0 (current)", gen, err)
	}

	// A newer generation is picked up; the user count proves the swap.
	publishGen(t, pub, 2, 2)
	if gen, err := f.Poll(); gen != 2 || err != nil {
		t.Fatalf("poll after publish = %d, %v; want 2", gen, err)
	}
	if res, err := e.MembershipIn(serve.DefaultSnapshot, 0, 3); err != nil || res.Generation != 2 {
		t.Fatalf("membership after rollover = %+v, %v", res, err)
	}

	// A corrupt generation is rejected by the CRC walk and the replica
	// keeps serving what it has — the failure is visible in Status, and
	// the publisher's file is never deleted.
	path := publishGen(t, pub, 3, 3)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-8] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if gen, err := f.Poll(); err == nil {
		t.Fatalf("corrupt generation promoted (gen=%d)", gen)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("a failed verify touched the directory source: %v", err)
	}
	if res, err := e.MembershipIn(serve.DefaultSnapshot, 0, 3); err != nil || res.Generation != 2 {
		t.Fatalf("replica left generation 2 after failed fetch: %+v, %v", res, err)
	}
	st := f.Status()
	if st.Generation != 2 || st.Shard != 0 || st.Shards != 1 || st.Fetches != 2 || st.Failures != 1 || st.LastError == "" {
		t.Fatalf("fetcher status = %+v", st)
	}

	// A one-shard generation has no shard 7, and no replica owns shard -1.
	other, err := serve.NewFetcher(e, serve.FetchOptions{Source: pub, Shard: 7, Snapshot: "other"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.Poll(); err == nil || !strings.Contains(err.Error(), "owns shard 7") {
		t.Fatalf("shard 7 of a one-shard generation: %v", err)
	}
	if _, err := serve.NewFetcher(e, serve.FetchOptions{Source: pub, Shard: -1}); err == nil {
		t.Fatal("negative shard accepted")
	}
}

// TestFetcherHTTPSource drives the fetcher against stream.SnapshotServer:
// manifest discovery, file download into the local cache, verification,
// promotion, and cache retention.
func TestFetcherHTTPSource(t *testing.T) {
	pub := t.TempDir()
	srv := httptest.NewServer(stream.SnapshotServer(pub))
	defer srv.Close()

	cache := t.TempDir()
	e := serve.NewMulti(serve.Options{Mmap: true})
	defer e.Close()
	f, err := serve.NewFetcher(e, serve.FetchOptions{Source: srv.URL, Dir: cache, Keep: 1})
	if err != nil {
		t.Fatal(err)
	}
	// One poll per generation, so every generation is downloaded,
	// verified and then pruned.
	for gen := uint64(1); gen <= 4; gen++ {
		publishGen(t, pub, gen, gen)
		if got, err := f.Poll(); got != gen || err != nil {
			t.Fatalf("http poll = %d, %v; want %d", got, err, gen)
		}
	}
	if res, err := e.MembershipIn(serve.DefaultSnapshot, 0, 3); err != nil || res.Generation != 4 {
		t.Fatalf("membership after http fetch = %+v, %v", res, err)
	}
	// Only the newest Keep generations stay in the local cache.
	entries, err := os.ReadDir(cache)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, ent := range entries {
		names = append(names, ent.Name())
	}
	want := []string{"gen-00000004.shards.json", "gen-00000004.v2.snap"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("local cache after retention: %v, want %v", names, want)
	}

	// A fetcher with an HTTP source but no cache dir is a config error.
	if _, err := serve.NewFetcher(e, serve.FetchOptions{Source: srv.URL}); err == nil {
		t.Fatal("HTTP source without a cache dir accepted")
	}
}

// TestFetcherRefetchesCorruptDownload: a download that arrives damaged —
// the manifest, or the file it names — fails its poll, and the replica
// removes the copy so that the next poll downloads it again and promotes,
// instead of re-verifying the same bad bytes forever.
func TestFetcherRefetchesCorruptDownload(t *testing.T) {
	for _, path := range []string{"/api/shards/manifest", "/api/shards/file"} {
		t.Run(strings.TrimPrefix(path, "/api/shards/"), func(t *testing.T) {
			pub := t.TempDir()
			publishGen(t, pub, 1, 1)
			origin := stream.SnapshotServer(pub)
			var served atomic.Int64
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path != path || served.Add(1) > 1 {
					origin.ServeHTTP(w, r)
					return
				}
				// First request: the right bytes with one payload byte flipped.
				rec := httptest.NewRecorder()
				origin.ServeHTTP(rec, r)
				body := rec.Body.Bytes()
				body[len(body)-8] ^= 0x01
				w.Write(body)
			}))
			defer srv.Close()

			e := serve.NewMulti(serve.Options{Mmap: true})
			defer e.Close()
			f, err := serve.NewFetcher(e, serve.FetchOptions{Source: srv.URL, Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if gen, err := f.Poll(); err == nil {
				t.Fatalf("a corrupt download promoted generation %d", gen)
			}
			if gen, err := f.Poll(); gen != 1 || err != nil {
				t.Fatalf("the poll after a corrupt download = %d, %v; want generation 1", gen, err)
			}
			if n := served.Load(); n != 2 {
				t.Fatalf("%s was downloaded %d times, want twice", path, n)
			}
			if st := f.Status(); st.Generation != 1 || st.Failures != 1 {
				t.Fatalf("fetcher status = %+v", st)
			}
		})
	}
}

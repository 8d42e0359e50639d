package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/store"
)

// publishGen writes a synthetic model as generation gen in dir.
func publishGen(t *testing.T, dir string, gen, seed uint64) string {
	t.Helper()
	m := SyntheticModel(20+int(seed), 5, 4, 120, seed)
	path := store.GenPath(dir, gen)
	if err := store.SaveV2(path, m); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestFetcherDirSource(t *testing.T) {
	pub := t.TempDir()
	e := NewMulti(Options{Mmap: true})
	defer e.Close()
	f, err := NewFetcher(e, FetchOptions{Source: pub, Interval: time.Millisecond})
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
	s, release, err := e.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if s.Generation != 1 || s.Model.NumUsers != 21 {
		t.Fatalf("serving generation %d with %d users, want 1 with 21", s.Generation, s.Model.NumUsers)
	}
	release()
	// Results carry the publisher generation.
	if res, err := e.Membership(0, 3); err != nil || res.Generation != 1 {
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
	if res, err := e.Membership(0, 3); err != nil || res.Generation != 2 {
		t.Fatalf("membership after rollover = %+v, %v", res, err)
	}

	// A corrupt generation is rejected by the CRC walk and the replica
	// keeps serving what it has — the failure is visible in Status.
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
	if res, err := e.Membership(0, 3); err != nil || res.Generation != 2 {
		t.Fatalf("replica left generation 2 after failed fetch: %+v, %v", res, err)
	}
	st := f.Status()
	if st.Generation != 2 || st.Fetches != 2 || st.Failures != 1 || st.LastError == "" {
		t.Fatalf("fetcher status = %+v", st)
	}
}

// TestFetcherHTTPSource drives the fetcher against the HTTP snapshot
// contract (a hand-rolled stand-in for stream.SnapshotServer, which this
// package cannot import without a cycle): manifest discovery, file
// download into the local cache, verification, promotion, and cache
// retention, receipts included.
func TestFetcherHTTPSource(t *testing.T) {
	pub := t.TempDir()
	mux := http.NewServeMux()
	mux.HandleFunc("/api/generations", func(w http.ResponseWriter, r *http.Request) {
		files, _ := store.ScanGenerations(pub)
		fmt.Fprintf(w, `{"generation": %d}`, files[len(files)-1].Generation)
	})
	mux.HandleFunc("/api/generations/file", func(w http.ResponseWriter, r *http.Request) {
		http.ServeFile(w, r, filepath.Join(pub, "gen-0000000"+r.URL.Query().Get("gen")+".v2.snap"))
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	cache := t.TempDir()
	e := NewMulti(Options{Mmap: true})
	defer e.Close()
	f, err := NewFetcher(e, FetchOptions{Source: srv.URL, Dir: cache, Keep: 1})
	if err != nil {
		t.Fatal(err)
	}
	// One poll per generation, so every generation is downloaded,
	// verified (leaving a receipt) and then pruned.
	for gen := uint64(1); gen <= 4; gen++ {
		publishGen(t, pub, gen, gen)
		if got, err := f.Poll(); got != gen || err != nil {
			t.Fatalf("http poll = %d, %v; want %d", got, err, gen)
		}
	}
	if res, err := e.Membership(0, 3); err != nil || res.Generation != 4 {
		t.Fatalf("membership after http fetch = %+v, %v", res, err)
	}
	// Only the newest Keep generations stay in the local cache, and no
	// receipt outlives its generation.
	entries, err := os.ReadDir(cache)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, ent := range entries {
		names = append(names, ent.Name())
	}
	want := []string{"gen-00000004.v2.snap", "gen-00000004.v2.snap" + store.VerifiedSidecarSuffix}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("local cache after retention: %v, want %v", names, want)
	}

	// A fetcher with an HTTP source but no cache dir is a config error.
	if _, err := NewFetcher(e, FetchOptions{Source: srv.URL}); err == nil {
		t.Fatal("HTTP source without a cache dir accepted")
	}
}

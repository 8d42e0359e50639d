package stream

import (
	"errors"
	"io/fs"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/serve"
	"repro/internal/shard"
)

// TestRestartNeverReusesAGeneration: a restarted publisher resumes above
// the newest manifest in Dir. Reusing generation 1 would rewrite its files
// under names replicas may already have fetched, while the manifests of 2
// and 3 kept pointing them at newer ones.
func TestRestartNeverReusesAGeneration(t *testing.T) {
	g, m := testBase(t)
	dir := t.TempDir()
	path := filepath.Join(t.TempDir(), "events.wal")
	open := func() (*Journal, *Updater) {
		t.Helper()
		e := serve.New(m, nil, serve.Options{})
		t.Cleanup(e.Close)
		j, err := OpenJournal(path, JournalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		u, err := NewUpdater(j, Options{Engine: e, Dir: dir, KeepSnapshots: 10, FoldSweeps: 8, FoldSeed: 99})
		if err != nil {
			t.Fatal(err)
		}
		return j, u
	}
	evs := streamFixture(g, m)
	j, u := open()
	for i, window := range [][]Event{evs[:5], evs[5:8], evs[8:]} {
		if _, err := u.Ingest(window); err != nil {
			t.Fatal(err)
		}
		if info, err := u.Publish(); err != nil || info.Generation != uint64(i+1) {
			t.Fatalf("publish %d: %+v, %v", i+1, info, err)
		}
	}
	before := make([]os.FileInfo, 3)
	for i := range before {
		fi, err := os.Stat(shard.ManifestPath(dir, uint64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		before[i] = fi
	}
	u.Close()
	j.Close()

	j, u = open()
	defer j.Close()
	defer u.Close()
	// The restart serves generation 3, so a publish needs something new.
	if _, err := u.Ingest([]Event{{Type: EvAddEdge, User: 4, Target: 5}}); err != nil {
		t.Fatal(err)
	}
	info, err := u.Publish()
	if err != nil {
		t.Fatal(err)
	}
	if info == nil || info.Generation != 4 {
		t.Fatalf("first publish after the restart: %+v, want generation 4", info)
	}
	gens, err := shard.ScanManifests(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gens, []uint64{1, 2, 3, 4}) {
		t.Fatalf("manifests %v after the restart, want [1 2 3 4]", gens)
	}
	for i, old := range before {
		fi, err := os.Stat(shard.ManifestPath(dir, uint64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		if !os.SameFile(old, fi) {
			t.Fatalf("the restart rewrote generation %d's manifest", i+1)
		}
	}
}

// TestFailedOpenNeverCommitsTheGeneration: the publisher maps and checks
// the file it wrote before the manifest commits the generation. When that
// open fails, no manifest names the rolled-back generation, so no replica
// can have adopted it; the retry, with one more event ingested in between,
// commits that generation exactly once, over files that check against its
// manifest, and the engine serves it.
func TestFailedOpenNeverCommitsTheGeneration(t *testing.T) {
	g, m := testBase(t)
	dir := t.TempDir()
	engine, _, u := newTestUpdater(t, g, m, func(o *Options) { o.Dir, o.Shards = dir, 3 })
	evs := streamFixture(g, m)
	ingest := func(evs []Event) {
		t.Helper()
		if _, err := u.Ingest(evs); err != nil {
			t.Fatal(err)
		}
	}
	ingest(evs[:5])
	if info, err := u.Publish(); err != nil || info.Generation != 1 {
		t.Fatalf("first publish: %+v, %v", info, err)
	}

	ingest(evs[5:8])
	failed := false
	openWhole = func(path string) (*shard.Group, error) {
		if !failed {
			failed = true
			return nil, errors.New("injected open failure")
		}
		return shard.OpenWhole(path)
	}
	t.Cleanup(func() { openWhole = shard.OpenWhole })
	if info, err := u.Publish(); err == nil {
		t.Fatalf("publish with a failing open succeeded: %+v", info)
	}
	if _, err := os.Stat(shard.ManifestPath(dir, 2)); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("the failed publish left a manifest for generation 2 (%v)", err)
	}
	if gen := u.Status().Generation; gen != 1 {
		t.Fatalf("the failed publish left generation %d, want 1", gen)
	}

	ingest(evs[8:9])
	info, err := u.Publish()
	if err != nil || info.Generation != 2 {
		t.Fatalf("the retry published %+v (%v), want generation 2", info, err)
	}
	committed, err := os.Stat(shard.ManifestPath(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	man, err := shard.ReadManifest(shard.ManifestPath(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < man.Shards; k++ {
		grp, err := shard.OpenGroup(dir, man, k)
		if err != nil {
			t.Fatalf("generation 2's shard %d does not check against its manifest: %v", k, err)
		}
		grp.Close()
	}
	if res, err := engine.MembershipIn(serve.DefaultSnapshot, 0, 1); err != nil || res.Generation != 2 {
		t.Fatalf("the engine serves %+v (%v), want generation 2", res, err)
	}

	ingest(evs[9:])
	if info, err := u.Publish(); err != nil || info.Generation != 3 {
		t.Fatalf("the next publish: %+v, %v", info, err)
	}
	if fi, err := os.Stat(shard.ManifestPath(dir, 2)); err != nil || !os.SameFile(fi, committed) {
		t.Fatalf("generation 2's manifest was committed again (%v)", err)
	}
}

// TestCommittedFilesAreWorldReadable: every file the write and fetch
// paths commit — manifests, snapshot, global and shard files, the
// journal's .mark sidecar, and a replica's downloads — is committed with
// mode 0644, and no temporary file is left beside them.
func TestCommittedFilesAreWorldReadable(t *testing.T) {
	g, m := testBase(t)
	dir := t.TempDir()
	_, j, u := newTestUpdater(t, g, m, func(o *Options) {
		o.Dir = dir
		o.Shards = 2
		o.KeepSnapshots = 1
	})
	evs := streamFixture(g, m)
	for _, window := range [][]Event{evs[:5], evs[5:]} {
		if _, err := u.Ingest(window); err != nil {
			t.Fatal(err)
		}
		if _, err := u.Publish(); err != nil {
			t.Fatal(err)
		}
	}
	if gens, _ := shard.ScanManifests(dir); !reflect.DeepEqual(gens, []uint64{2}) {
		t.Fatalf("manifests %v, want generation 1 pruned", gens)
	}

	srv := httptest.NewServer(SnapshotServer(dir))
	defer srv.Close()
	replica := serve.NewMulti(serve.Options{})
	defer replica.Close()
	cache := t.TempDir()
	f, err := serve.NewFetcher(replica, serve.FetchOptions{Source: srv.URL, Dir: cache, Shard: 1})
	if err != nil {
		t.Fatal(err)
	}
	if gen, err := f.Poll(); gen != 2 || err != nil {
		t.Fatalf("replica poll = %d, %v; want generation 2", gen, err)
	}

	committed := 0
	for _, d := range []string{dir, filepath.Dir(j.path), cache} {
		entries, err := os.ReadDir(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, ent := range entries {
			name := ent.Name()
			if strings.HasPrefix(name, ".") || strings.Contains(name, ".tmp") {
				t.Errorf("%s: temporary file %s survived", d, name)
				continue
			}
			fi, err := ent.Info()
			if err != nil {
				t.Fatal(err)
			}
			if mode := fi.Mode(); mode != 0o644 {
				t.Errorf("%s: %s has mode %v, want -rw-r--r--", d, name, mode)
			}
			committed++
		}
	}
	// Publisher: full file, manifest, global, state file and 2 shards;
	// journal with .mark; replica: manifest, global and shard 1.
	if committed != 11 {
		t.Fatalf("checked %d committed files, want 11", committed)
	}
}

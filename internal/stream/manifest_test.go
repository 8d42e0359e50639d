package stream

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/store"
)

func TestSnapshotServer(t *testing.T) {
	dir := t.TempDir()
	m := serve.SyntheticModel(24, 4, 3, 40, 5)
	// Unsharded generations 2 and 5 (one-shard manifests naming the full
	// file), a 2-shard group at 7.
	for _, gen := range []uint64{2, 5} {
		if err := store.SaveV2(store.GenPath(dir, gen), m); err != nil {
			t.Fatal(err)
		}
		if _, err := shard.PublishWhole(dir, gen, m); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := shard.Split(store.GenPath(dir, 5), dir, 7, shard.SplitOptions{Shards: 2}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(SnapshotServer(dir))
	defer srv.Close()
	get := func(query string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	status, body := get("/api/shards")
	var list ShardManifestList
	if err := json.Unmarshal(body, &list); status != http.StatusOK || err != nil {
		t.Fatalf("/api/shards: %d %s (%v)", status, body, err)
	}
	if list.Generation != 7 || !reflect.DeepEqual(list.Generations, []uint64{2, 5, 7}) {
		t.Fatalf("manifest list %+v, want newest 7 over [2 5 7]", list)
	}
	read := func(path string) []byte {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for query, want := range map[string][]byte{
		"/api/shards/manifest?gen=5":      read(shard.ManifestPath(dir, 5)),
		"/api/shards/file?gen=5&global=1": read(store.GenPath(dir, 5)),
		"/api/shards/file?gen=5&shard=0":  read(store.GenPath(dir, 5)),
		"/api/shards/file?gen=7&global=1": read(shard.GlobalPath(dir, 7)),
		"/api/shards/file?gen=7&shard=1":  read(shard.ShardPath(dir, 7, 1)),
	} {
		if status, body := get(query); status != http.StatusOK || !bytes.Equal(body, want) {
			t.Fatalf("%s: status %d, %d bytes, want the %d-byte file", query, status, len(body), len(want))
		}
	}

	// Manifests that name foreign files: a path out of dir, and another
	// generation's file. EncodeManifest seals them as written; the
	// server's decode must refuse them.
	secret := filepath.Join(filepath.Dir(dir), "secret")
	if err := os.WriteFile(secret, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	defer os.Remove(secret)
	good, err := shard.ReadManifest(shard.ManifestPath(dir, 5))
	if err != nil {
		t.Fatal(err)
	}
	for gen, name := range map[uint64]string{9: "../secret", 10: filepath.Base(store.GenPath(dir, 5))} {
		bad := *good
		bad.Generation = gen
		bad.Global.Name = name
		bad.Ranges = []shard.Range{good.Ranges[0]}
		bad.Ranges[0].File.Name = name
		var doc bytes.Buffer
		if err := shard.EncodeManifest(&doc, &bad); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(shard.ManifestPath(dir, gen), doc.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Pruned, never-published, out-of-range and foreign-named files are
	// 404, malformed and traversal-shaped requests 400 — never a path walk.
	for query, wantStatus := range map[string]int{
		"gen=3&global=1":             http.StatusNotFound,
		"gen=5&shard=7":              http.StatusNotFound,
		"gen=7&shard=2":              http.StatusNotFound,
		"gen=9&global=1":             http.StatusNotFound,
		"gen=9&shard=0":              http.StatusNotFound,
		"gen=10&global=1":            http.StatusNotFound,
		"gen=0&global=1":             http.StatusBadRequest,
		"gen=&global=1":              http.StatusBadRequest,
		"gen=../events.wal&global=1": http.StatusBadRequest,
		"gen=5":                      http.StatusBadRequest,
		"gen=5&shard=x":              http.StatusBadRequest,
		"gen=5&shard=-1":             http.StatusBadRequest,
	} {
		status, body := get("/api/shards/file?" + query)
		if status != wantStatus {
			t.Errorf("file?%s: status %d, want %d", query, status, wantStatus)
		}
		if bytes.Contains(body, []byte("not a snapshot")) {
			t.Errorf("file?%s served a file outside the snapshot directory", query)
		}
	}
	if status, _ := get(fmt.Sprintf("/api/shards/manifest?gen=%d", 3)); status != http.StatusNotFound {
		t.Errorf("manifest of a never-published generation: status %d", status)
	}
}

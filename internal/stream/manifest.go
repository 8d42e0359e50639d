package stream

// The publisher half of snapshot distribution: an HTTP handler that
// serves a snapshot directory's shard manifests — one per published
// generation, sharded or not — and the files they name. Replicas
// (serve.Fetcher) poll either the snapshot directory directly — shared
// filesystem deployments — or these endpoints when the only path to the
// publisher is the network. The files are immutable once written
// (publishes create, pruning unlinks; nothing rewrites), so serving them
// over HTTP needs no coordination with the publish loop.

import (
	"net/http"
	"path/filepath"
	"strconv"

	"repro/internal/shard"
)

// SnapshotServer serves a publisher's snapshot directory to replicas:
//
//	GET /api/shards                      the manifest list (JSON)
//	GET /api/shards/manifest?gen=N       one manifest's bytes
//	GET /api/shards/file?gen=N&shard=K   the file manifest N names for shard K
//	GET /api/shards/file?gen=N&global=1  the file manifest N names as global
//
// A file is served only by the name its manifest gives it, which
// shard.DecodeManifest accepts only as one of that generation's own file
// names; the manifest path itself is built from the parsed number. So the
// handler cannot be walked out of dir, and a manifest that does not
// decode serves nothing. cmd/cpd-serve mounts this next to the query API
// whenever it publishes snapshots, making any publisher a snapshot origin
// for its replicas.
func SnapshotServer(dir string) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/api/shards", func(w http.ResponseWriter, r *http.Request) {
		gens, err := shard.ScanManifests(dir)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		var newest uint64
		if n := len(gens); n > 0 {
			newest = gens[n-1]
		}
		writeJSON(w, ShardManifestList{Generation: newest, Generations: gens})
	})
	mux.HandleFunc("/api/shards/manifest", func(w http.ResponseWriter, r *http.Request) {
		gen, err := strconv.ParseUint(r.URL.Query().Get("gen"), 10, 64)
		if err != nil || gen == 0 {
			http.Error(w, "bad or missing gen parameter", http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		http.ServeFile(w, r, shard.ManifestPath(dir, gen))
	})
	mux.HandleFunc("/api/shards/file", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		gen, err := strconv.ParseUint(q.Get("gen"), 10, 64)
		if err != nil || gen == 0 {
			http.Error(w, "bad or missing gen parameter", http.StatusBadRequest)
			return
		}
		idx := -1
		switch {
		case q.Get("global") != "":
		case q.Get("shard") != "":
			if idx, err = strconv.Atoi(q.Get("shard")); err != nil || idx < 0 {
				http.Error(w, "bad shard index", http.StatusBadRequest)
				return
			}
		default:
			http.Error(w, "need shard=K or global=1", http.StatusBadRequest)
			return
		}
		man, err := shard.ReadManifest(shard.ManifestPath(dir, gen))
		if err != nil {
			http.Error(w, "no valid manifest for that generation", http.StatusNotFound)
			return
		}
		name := man.Global.Name
		if idx >= 0 {
			if idx >= man.Shards {
				http.Error(w, "no such shard in that generation", http.StatusNotFound)
				return
			}
			name = man.Ranges[idx].File.Name
		}
		// ServeFile handles ranges, content-length and 404 for pruned
		// files; the octet-stream type stops any sniffing.
		w.Header().Set("Content-Type", "application/octet-stream")
		http.ServeFile(w, r, filepath.Join(dir, name))
	})
	return mux
}

// ShardManifestList is the /api/shards payload: which generations the
// publisher currently offers (Generation = newest, 0 when none).
type ShardManifestList struct {
	Generation  uint64   `json:"generation"`
	Generations []uint64 `json:"generations,omitempty"`
}

package serve

// Replica-side snapshot distribution: a Fetcher pulls generation-numbered
// shard groups (internal/shard) from a publisher — either its snapshot
// directory (shared filesystem) or its HTTP snapshot endpoints
// (internal/stream's SnapshotServer) — and promotes them into an Engine
// slot. Every published generation is announced by a shard manifest; an
// unsharded one names its full file as its only shard, so a full replica
// is the owner of shard 0 of 1 and takes the same path as a shard
// replica. A replica fetches only the global file and its own shard: the
// generation's state file (the document arrays, training state no query
// reads) stays with the publisher. Distribution is pull-by-generation: each poll discovers the
// newest manifest, and only a strictly newer one triggers a fetch. Before
// a file goes live it is fully CRC-verified against the manifest — the
// section table AND every payload, the O(model) pass the mapped opener
// skips by design — on every adopt: a first fetch, a restart over a
// cache, or a re-linked global file. The check reads the file through a
// mapping, so the same read leaves the page cache hot before the first
// query touches the snapshot's own mapping. Promotion is the engine's
// usual atomic swap; in-flight queries finish on the snapshot they
// started with, exactly as for a local reload.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/corpus"
	"repro/internal/shard"
	"repro/internal/store"
)

// FetchOptions configures a Fetcher.
type FetchOptions struct {
	// Source is where generations come from: a snapshot directory path,
	// or an http(s) base URL of a server mounting stream.SnapshotServer.
	Source string
	// Dir is the local cache directory for downloaded files. Required
	// for an HTTP source; ignored for a directory source (files are
	// verified and mapped in place).
	Dir string
	// Snapshot is the engine slot promoted into (default "default").
	Snapshot string
	// Vocab, when non-nil, enables free-text queries on the promoted
	// snapshots (the vocabulary does not travel with generation files).
	Vocab *corpus.Vocabulary
	// Interval is the poll period for Run (default 2s).
	Interval time.Duration
	// Keep bounds the local cache for HTTP sources: after a promote,
	// downloaded files older than the newest Keep generations are
	// removed (default 2; the file backing the live mapping stays valid
	// even once unlinked).
	Keep int
	// Shard is the shard index this replica owns (default 0). It fetches
	// the manifest plus the global file and this shard's file, verifies
	// each against the manifest's per-section CRCs and promotes them as a
	// unit (Engine.PromoteShardGroup), mapping ~(1/N of Π + the global
	// sections). A one-shard generation's only shard is 0: its
	// full file.
	Shard int
}

// FetchStatus is a Fetcher's observable state (the "replica" section of
// /api/stats on a fetching server).
type FetchStatus struct {
	Source     string `json:"source"`
	Snapshot   string `json:"snapshot"`
	Generation uint64 `json:"generation"`
	// Shard is the owned shard of the promoted generation's Shards (0 of
	// 0 before the first promote).
	Shard  int `json:"shard"`
	Shards int `json:"shards"`
	// Fetches counts promoted generations; Failures failed poll or
	// fetch attempts (the generation is re-attempted next poll).
	Fetches   uint64 `json:"fetches"`
	Failures  uint64 `json:"failures"`
	LastPoll  string `json:"lastPoll,omitempty"`
	LastError string `json:"lastError,omitempty"`

	// PatchedPromotes counts the fetched generations adopted by patching
	// the previous one's indexes (the rest were built in full — /api/stats
	// snapshots[].build.reason says why the live one was);
	// LastPromoteMicros is what adopting the newest cost once its files
	// were verified: open, build or patch, swap.
	PatchedPromotes   uint64 `json:"patchedPromotes"`
	LastPromoteMicros int64  `json:"lastPromoteMicros,omitempty"`
}

// fetchClient fetches from URL sources.
var fetchClient = &http.Client{Timeout: 30 * time.Second}

// Fetcher keeps one engine slot tracking a publisher's newest generation.
type Fetcher struct {
	e    *Engine
	opts FetchOptions
	http bool

	mu       sync.Mutex
	gen      uint64
	shards   int
	fetches  uint64
	failures uint64
	lastPoll time.Time
	lastErr  string

	patched           uint64
	lastPromoteMicros int64

	// global is the manifest entry of generation gen's global file: a
	// newer generation whose global file has the same content reuses the
	// local copy.
	global shard.FileEntry
}

// NewFetcher validates the options and returns a Fetcher. No fetch
// happens yet; call Poll (or Run) to start tracking.
func NewFetcher(e *Engine, opts FetchOptions) (*Fetcher, error) {
	if opts.Source == "" {
		return nil, fmt.Errorf("serve: fetcher needs a source")
	}
	if opts.Shard < 0 {
		return nil, fmt.Errorf("serve: fetcher shard %d is negative", opts.Shard)
	}
	isHTTP := strings.HasPrefix(opts.Source, "http://") || strings.HasPrefix(opts.Source, "https://")
	if isHTTP {
		opts.Source = strings.TrimRight(opts.Source, "/")
		if opts.Dir == "" {
			return nil, fmt.Errorf("serve: an HTTP snapshot source needs a local cache dir")
		}
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, err
		}
	}
	if opts.Snapshot == "" {
		opts.Snapshot = DefaultSnapshot
	}
	if opts.Interval <= 0 {
		opts.Interval = 2 * time.Second
	}
	if opts.Keep <= 0 {
		opts.Keep = 2
	}
	return &Fetcher{e: e, opts: opts, http: isHTTP}, nil
}

// Generation returns the newest generation this fetcher has promoted.
func (f *Fetcher) Generation() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.gen
}

// Status snapshots the fetcher's counters.
func (f *Fetcher) Status() FetchStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := FetchStatus{
		Source:     f.opts.Source,
		Snapshot:   f.opts.Snapshot,
		Generation: f.gen,
		Shard:      f.opts.Shard,
		Shards:     f.shards,
		Fetches:    f.fetches,
		Failures:   f.failures,
		LastError:  f.lastErr,

		PatchedPromotes:   f.patched,
		LastPromoteMicros: f.lastPromoteMicros,
	}
	if !f.lastPoll.IsZero() {
		st.LastPoll = f.lastPoll.UTC().Format(time.RFC3339)
	}
	return st
}

// WriteMetrics emits the fetcher's gauges in Prometheus text exposition
// format — registered on the engine via AddMetricsCollector.
func (f *Fetcher) WriteMetrics(w io.Writer) {
	st := f.Status()
	gauge(w, "cpd_replica_generation", "Publisher generation this replica serves.", "", float64(st.Generation))
	gauge(w, "cpd_replica_fetches_total", "Generations fetched, verified and promoted.", "", float64(st.Fetches))
	gauge(w, "cpd_replica_fetch_failures_total", "Failed fetch or verify attempts.", "", float64(st.Failures))
	gauge(w, "cpd_replica_patched_promotes_total", "Fetched generations adopted by patching the previous one's indexes.", "", float64(st.PatchedPromotes))
	gauge(w, "cpd_replica_last_promote_seconds", "Open, index build or patch, and swap of the newest fetched generation.", "", float64(st.LastPromoteMicros)/1e6)
}

// Poll runs one discover→fetch→verify→promote→prune cycle. It returns
// the promoted generation (0 if the replica is already current) and
// records failures for Status; a failed attempt leaves the serving state
// untouched and is retried on the next poll.
func (f *Fetcher) Poll() (uint64, error) {
	gen, err := f.poll()
	f.mu.Lock()
	f.lastPoll = time.Now()
	if err != nil {
		f.failures++
		f.lastErr = err.Error()
	} else {
		f.lastErr = ""
		if gen > 0 {
			f.gen = gen
			f.fetches++
		}
	}
	f.mu.Unlock()
	return gen, err
}

// Run polls until the context is cancelled.
func (f *Fetcher) Run(ctx context.Context) {
	t := time.NewTicker(f.opts.Interval)
	defer t.Stop()
	for {
		f.Poll() // errors are surfaced via Status/metrics; keep polling
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// poll is one discover→materialize→verify→promote→prune cycle: the
// manifest names every file and its per-section CRCs, so the generation
// either verifies and promotes as a unit or is retried whole next poll.
// A downloaded file that fails the check is removed, so the next poll
// downloads it again.
func (f *Fetcher) poll() (uint64, error) {
	latest, err := f.discover()
	if err != nil {
		return 0, err
	}
	f.mu.Lock()
	have := f.gen
	f.mu.Unlock()
	if latest == 0 || latest <= have {
		return 0, nil // nothing published yet, or already current
	}
	dir, man, err := f.materialize(latest)
	if err != nil {
		return 0, err
	}
	files := []shard.FileEntry{man.Global}
	if own := man.Ranges[f.opts.Shard].File; own.Name != man.Global.Name {
		files = append(files, own)
	}
	for _, ent := range files {
		path := filepath.Join(dir, ent.Name)
		if err := shard.VerifyAgainstManifest(path, ent); err != nil {
			if f.http {
				os.Remove(path)
			}
			return 0, fmt.Errorf("verifying generation %d: %w", latest, err)
		}
	}
	start := time.Now()
	g, err := shard.OpenGroup(dir, man, f.opts.Shard)
	if err != nil {
		return 0, fmt.Errorf("opening generation %d shard %d: %w", latest, f.opts.Shard, err)
	}
	f.e.PromoteShardGroup(f.opts.Snapshot, g, f.opts.Vocab, latest)
	f.mu.Lock()
	f.global = man.Global
	f.shards = man.Shards
	f.mu.Unlock()
	f.promoted(start)
	if f.http && latest > uint64(f.opts.Keep) {
		shard.Prune(f.opts.Dir, latest-uint64(f.opts.Keep))
	}
	return latest, nil
}

// promoted books the promote that began at start: its wall time, and
// whether the snapshot now live was patched from its predecessor.
func (f *Fetcher) promoted(start time.Time) {
	micros := time.Since(start).Microseconds()
	s, release, err := f.e.AcquireNamed(f.opts.Snapshot)
	if err != nil {
		return
	}
	patched := s.build.Kind == BuildPatched
	release()
	f.mu.Lock()
	f.lastPromoteMicros = micros
	if patched {
		f.patched++
	}
	f.mu.Unlock()
}

// discover finds the newest generation the source offers.
func (f *Fetcher) discover() (uint64, error) {
	if !f.http {
		gens, err := shard.ScanManifests(f.opts.Source)
		if err != nil || len(gens) == 0 {
			return 0, err
		}
		return gens[len(gens)-1], nil
	}
	resp, err := fetchClient.Get(f.opts.Source + "/api/shards")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return 0, fmt.Errorf("%s/api/shards answered status %d", f.opts.Source, resp.StatusCode)
	}
	var man struct {
		Generation uint64 `json:"generation"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&man); err != nil {
		return 0, err
	}
	return man.Generation, nil
}

// materialize returns a directory holding generation gen's manifest,
// global file and this replica's shard file, plus the parsed manifest:
// the publisher's directory itself for a directory source, downloaded
// copies for an HTTP source. Already-downloaded files are reused, and so
// is the served generation's global file when the manifest gives the new
// one the same content — the community profiles, which fold-in publishes
// never move: it is hard-linked under the new name. The caller verifies
// every file against the manifest either way, and a downloaded manifest
// that does not parse is removed so the next poll fetches it again.
func (f *Fetcher) materialize(gen uint64) (string, *shard.Manifest, error) {
	dir := f.opts.Source
	manPath := shard.ManifestPath(dir, gen)
	if f.http {
		dir, manPath = f.opts.Dir, shard.ManifestPath(f.opts.Dir, gen)
		if err := f.fetchOnce(fmt.Sprintf("%s/api/shards/manifest?gen=%d", f.opts.Source, gen), manPath); err != nil {
			return "", nil, err
		}
	}
	man, err := shard.ReadManifest(manPath)
	switch {
	case err != nil:
		if f.http {
			os.Remove(manPath)
		}
		return "", nil, err
	case f.opts.Shard >= man.Shards:
		return "", nil, fmt.Errorf("replica owns shard %d but generation %d has %d shards", f.opts.Shard, gen, man.Shards)
	case !f.http:
		return dir, man, nil
	}
	globalPath := filepath.Join(dir, man.Global.Name)
	f.mu.Lock()
	have, served := f.gen, f.global
	f.mu.Unlock()
	if have > 0 && man.Global.SameContent(served) {
		// A link that fails (globalPath exists already, or the link is
		// refused) leaves globalPath to fetchOnce.
		_ = os.Link(filepath.Join(dir, served.Name), globalPath)
	}
	if err := f.fetchOnce(fmt.Sprintf("%s/api/shards/file?gen=%d&global=1", f.opts.Source, gen), globalPath); err != nil {
		return "", nil, err
	}
	own := man.Ranges[f.opts.Shard].File.Name
	if err := f.fetchOnce(fmt.Sprintf("%s/api/shards/file?gen=%d&shard=%d", f.opts.Source, gen, f.opts.Shard), filepath.Join(dir, own)); err != nil {
		return "", nil, err
	}
	return dir, man, nil
}

// fetchOnce downloads url into path unless path is already there,
// committing it through store.WriteFileAtomic.
func (f *Fetcher) fetchOnce(url, path string) error {
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	resp, err := fetchClient.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("fetching %s: status %d", url, resp.StatusCode)
	}
	return store.WriteFileAtomic(path, func(tmp *os.File) error {
		_, err := io.Copy(tmp, resp.Body)
		return err
	})
}

package stream

// The publish path. Every publish promotes a complete, immutable snapshot
// into the serving engine, but it does not have to *build* one from
// scratch: between two fold-in publishes only the re-folded users' rows
// and the streamed documents change, while the base-model blocks (Θ, Φ,
// η, ν, POPF, XI) are the very same arrays. The publisher exploits that
// at every layer:
//
//   - fold: the serving snapshot carries log Θ (shared by every patched
//     successor) and a fold-in tabulates log(k+ρ) once, so the Gibbs
//     kernel reads its conditionals instead of recomputing logarithms of
//     per-snapshot constants per document and sweep;
//   - model: buildExtendedLocked, handed the previously published model,
//     overwrites its changed rows and appends the new users' inside that
//     very Π — the engine serves the file mapping and never sees the
//     array: O(changed), one Π on the heap — and keeps the predecessor's
//     global blocks and prediction caches (core.Model.WithPi) instead of
//     writing every row;
//   - save: store.SaveV2 encodes every section from memory in one pass,
//     checksumming each on its way to the file — for the unchanged global
//     blocks that costs what re-reading them from the previous file would,
//     and no array patched in place can leave a stale byte behind;
//   - shard: shard.Publisher commits the generation's manifest — at one
//     shard over the full file alone; with Options.Shards it hard-links the
//     group's global file (the community profiles, with no user count in
//     it) on every incremental publish, appended users or not, the shard
//     files (Π rows only) no changed user falls in, and the state file
//     (the document arrays) when no document moved, and rewrites the rest
//     the same way;
//   - open: shard.OpenWhole maps the written file and checks its payload
//     CRCs over that mapping before the manifest commits it — a model has
//     no per-user cache to rebuild — and the engine serves that mapping;
//   - serve: serve.Engine.PromoteGroup, handed the publisher's explicit
//     delta (the re-folded rows, relative to its own last promote),
//     recomputes only those rows of the previous snapshot's user index
//     and shares the rest of its derived state, the log Φ table rank
//     reads included.
//
// Ingest is O(1) per event besides the journal append: Status is
// assembled from counters (the dirty-user gauge included), never by
// walking the stream users.
//
// Each layer is bit-identical to its from-scratch counterpart — the
// incremental path changes the cost of a publish, never its bytes or its
// query results. The tests hold every generation to that counterpart: the
// file equals store.EncodeV2 of Updater.Model (which assembles a fresh Π),
// a shard group joins to that file, and the engine answers what a fresh
// engine that loads the file answers. A publish falls back to the full
// model and save path whenever the incremental preconditions do not hold:
// the first publish of a process, or a publish right after a delta-Gibbs
// pass (the refined reference — and with it every global block — changed).
//
// The serving index is a separate question, and the engine answers it from
// the bytes: a full publish hands PromoteGroup no delta, the engine
// compares the new model's blocks with the ones it serves and still
// patches when only Π rows moved or grew. So the first publish of a
// process — after every (re)start — no longer rebuilds the index
// (PublishPhases reads Full with IndexPatched), and neither does a publish
// after somebody else swapped the slot (the stale explicit delta is
// dropped for a derived one). What still builds the index from scratch: a
// delta-Gibbs publish (Θ, Φ and η really changed), and a slot that by then
// serves a model of another shape or vocabulary than the one the updater
// started from.

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/hist"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/store"
)

// PublishPhases is the per-phase wall-clock breakdown of one publish,
// surfaced on /api/ingest/status and /api/stats as
// status.lastPublishPhases.
type PublishPhases struct {
	SyncMicros    int64 `json:"syncMicros"`              // journal fsync
	FoldMicros    int64 `json:"foldMicros"`              // dirty-user fold-in
	GibbsMicros   int64 `json:"gibbsMicros"`             // delta-Gibbs pass (0 when none ran)
	ModelMicros   int64 `json:"modelMicros"`             // extended-model assembly
	SaveMicros    int64 `json:"saveMicros"`              // v2 snapshot write
	ShardMicros   int64 `json:"shardMicros,omitempty"`   // shard-group emit, or the one-shard manifest without Shards
	OpenMicros    int64 `json:"openMicros,omitempty"`    // mapping and checking the written file
	IndexMicros   int64 `json:"indexMicros"`             // serving-snapshot build inside Engine.PromoteGroup: patch or full, see IndexPatched
	PromoteMicros int64 `json:"promoteMicros"`           // the rest of Engine.PromoteGroup: the engine swap
	QualityMicros int64 `json:"qualityMicros,omitempty"` // structural quality scoring (0 when skipped)
	TotalMicros   int64 `json:"totalMicros"`
	// WatermarkMicros (advancing the journal watermark) and PruneMicros
	// (unlinking the snapshot files past KeepSnapshots) run, like quality
	// scoring, after the promote and so outside TotalMicros — the generation
	// is already servable — but before Publish returns: they delay the next
	// publish.
	WatermarkMicros int64 `json:"watermarkMicros"`
	PruneMicros     int64 `json:"pruneMicros"`
	// Full marks a from-scratch publish; incremental otherwise.
	Full bool `json:"full"`
	// IndexPatched marks IndexMicros as a patch of the previous serving
	// snapshot's indexes. Every incremental publish patches; a full one
	// does too when the engine finds the model's global blocks
	// byte-identical to those it already serves (the first publish after a
	// restart reads "full model, patched index"), so a large IndexMicros
	// with this false is a from-scratch index, not a regression.
	IndexPatched bool `json:"indexPatched"`
	// SectionsReused is always 0: every save encodes every section. It
	// stays only for readers of the field that predate that.
	SectionsReused int `json:"sectionsReused"`
	// BytesWritten sums the sizes of the files this publish wrote: the
	// full snapshot, the shard-group files it did not hard-link and the
	// group manifest. FilesLinked counts the group files it hard-linked
	// (links write no bytes). Unlike the timings, both are the same on
	// every host.
	BytesWritten int64 `json:"bytesWritten"`
	FilesLinked  int   `json:"filesLinked,omitempty"`
}

// lagSample timestamps an applied ingest batch; the publish that covers
// its journal offset turns it into a publish-lag observation.
type lagSample struct {
	off uint64
	at  time.Time
}

// --- latency histogram ---------------------------------------------------

// Publish latency and lag accumulate in the shared log-bucketed histogram
// (internal/hist) — the same geometry the serving endpoints and the load
// generator digest, so p50/p95/p99 line up across every surface.

// LatencySummary is a histogram digest in milliseconds, JSON-shaped for
// the status endpoints.
type LatencySummary struct {
	Count uint64  `json:"count"`
	AvgMs float64 `json:"avgMs"`
	P50Ms float64 `json:"p50Ms"`
	P95Ms float64 `json:"p95Ms"`
	P99Ms float64 `json:"p99Ms"`
	MaxMs float64 `json:"maxMs"`
}

func histSummary(h *hist.Hist) *LatencySummary {
	if h.Count == 0 {
		return nil
	}
	ms := func(d time.Duration) float64 {
		return math.Round(float64(d)/float64(time.Millisecond)*1000) / 1000
	}
	return &LatencySummary{
		Count: h.Count,
		AvgMs: ms(h.Mean()),
		P50Ms: ms(h.Quantile(0.50)),
		P95Ms: ms(h.Quantile(0.95)),
		P99Ms: ms(h.Quantile(0.99)),
		MaxMs: ms(time.Duration(h.MaxNS)),
	}
}

// recordLagLocked timestamps the ingest batch just applied for the
// publish-lag histogram (event append → servable generation). One sample
// per batch, bounded so a stalled publisher cannot accumulate samples
// without limit (the bound only coarsens the histogram, never blocks
// ingest).
func (u *Updater) recordLagLocked() {
	const maxLagSamples = 4096
	if len(u.lagPending) >= maxLagSamples {
		return
	}
	u.lagPending = append(u.lagPending, lagSample{off: u.pendingTo, at: time.Now()})
}

// drainLagLocked converts every sample the new generation covers into a
// publish-lag observation.
func (u *Updater) drainLagLocked(now time.Time, covered uint64) {
	kept := u.lagPending[:0]
	for _, s := range u.lagPending {
		if s.off <= covered {
			u.lagHist.Observe(now.Sub(s.at), nil)
		} else {
			kept = append(kept, s)
		}
	}
	u.lagPending = kept
}

// --- publish -------------------------------------------------------------

// MaybePublish publishes when at least one delta window of events is
// pending; returns (nil, false, nil) otherwise.
func (u *Updater) MaybePublish() (*PublishInfo, bool, error) {
	u.mu.Lock()
	due := u.pending >= u.opts.WindowEvents
	u.mu.Unlock()
	if !due {
		return nil, false, nil
	}
	info, err := u.Publish()
	return info, err == nil, err
}

// Publish folds every dirty user in against the frozen reference, runs
// the delta-Gibbs pass when one is due, builds the extended model, writes
// it as a v2 snapshot into Dir, maps and checks it, commits its manifest
// and atomically promotes the mapping into the engine slot. In-flight
// queries finish on the snapshot they started with; the journal watermark
// advances past everything the new generation covers. A publish with
// nothing pending and nothing dirty is a no-op.
//
// When the incremental preconditions hold (see the package comment above)
// the model assembly, snapshot save and index build all run in
// O(changed) instead of O(model) — with output bit-identical to a full
// rebuild.
func (u *Updater) Publish() (*PublishInfo, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.publishLocked()
}

func (u *Updater) publishLocked() (*PublishInfo, error) {
	defer u.refreshStatusLocked()
	// The no-op guard needs the slot to serve this updater's state: a
	// first start, or a restart that could not adopt its newest generation,
	// must publish even with nothing pending.
	if u.pending == 0 && u.dirty == 0 && u.published {
		return nil, nil
	}
	dirty := u.dirtyUsersLocked()
	start := time.Now()
	t := start
	lap := func() int64 {
		now := time.Now()
		d := now.Sub(t)
		t = now
		return d.Microseconds()
	}
	var ph PublishPhases
	// Make everything the new generation will cover durable first: a
	// published snapshot must never be ahead of the journal on disk.
	if err := u.j.Sync(); err != nil {
		return nil, err
	}
	ph.SyncMicros = lap()
	folded, err := u.foldDirtyLocked(dirty)
	if err != nil {
		return nil, err
	}
	ph.FoldMicros = lap()
	// Everything folded now is a changed row relative to the last
	// successful publish — including rows folded by earlier attempts that
	// failed after their fold (pendingRows carries those across retries).
	u.pendingRows = mergeIDs(u.pendingRows, dirty)
	// The cadences key on the committed generation number, which a restart
	// resumes, so they run on the same generations across restarts.
	gibbsDue := u.opts.GibbsEvery > 0 && u.opts.BaseGraph != nil &&
		(u.generation+1)%uint64(u.opts.GibbsEvery) == 0
	if gibbsDue {
		if err := u.gibbsPassLocked(); err != nil {
			return nil, fmt.Errorf("stream: delta-Gibbs pass: %w", err)
		}
		ph.GibbsMicros = lap()
	}
	// The incremental path patches the last published state, so it needs
	// one to exist (this process promoted it) and the refined reference to
	// be the one that state was built from — a delta-Gibbs pass replaces
	// the reference and with it every global block.
	full := !u.published || gibbsDue || u.lastModel == nil || u.lastRef != u.refined
	last := u.lastModel
	if full {
		last = nil
	}
	model := u.buildExtendedLocked(last, u.pendingRows)
	ph.ModelMicros = lap()
	ph.Full = full
	u.generation++
	info := &PublishInfo{
		Generation:  u.generation,
		Users:       model.NumUsers,
		Folded:      folded,
		Gibbs:       gibbsDue,
		Incremental: !full,
	}
	path := store.GenPath(u.opts.Dir, u.generation)
	err = store.SaveV2(path, model)
	var fi os.FileInfo
	if err == nil {
		fi, err = os.Stat(path)
	}
	if err != nil {
		u.generation--
		return nil, err
	}
	info.Path = path
	ph.BytesWritten = fi.Size()
	ph.SaveMicros = lap()
	// The engine serves the file just written from its mapping: its blocks
	// are byte-identical to model (the file was encoded from it), so
	// patching the previous generation's indexes against it preserves
	// bit-identity, and model stays the updater's own. It is opened before
	// the manifest commits the generation, whose number is then announced
	// and never reused: nothing after the commit can fail.
	g, err := openWhole(path)
	if err != nil {
		u.generation-- // no manifest names it: the retry rewrites the file
		return nil, fmt.Errorf("stream: opening the written snapshot: %w", err)
	}
	ph.OpenMicros = lap()
	// The manifest commits the generation. At one shard it names the full
	// file just written; otherwise it names a group published next to that
	// file from the same model, so joining it reproduces the full file's
	// sections byte-for-byte. pendingRows still holds every user touched
	// since the last publish here (it is cleared only after the promote),
	// which is exactly the group's O(changed) delta.
	if _, err := u.publisher.Publish(u.generation, model, shard.Delta{Full: full, ChangedUsers: u.pendingRows}); err != nil {
		g.Close()
		u.generation--
		return nil, fmt.Errorf("stream: committing the generation manifest: %w", err)
	}
	ph.BytesWritten += u.publisher.Last.BytesWritten
	ph.FilesLinked = u.publisher.Last.FilesLinked
	ph.ShardMicros = lap()
	var build serve.BuildInfo
	info.Version, build = u.opts.Engine.PromoteGroup(u.opts.Snapshot, g, u.vocab, u.generation, u.serveDeltaLocked(full))
	ph.IndexMicros = build.Micros
	ph.IndexPatched = build.Kind == serve.BuildPatched
	ph.PromoteMicros = lap() - build.Micros
	now := time.Now()
	ph.TotalMicros = now.Sub(start).Microseconds()
	u.lastPhases = ph
	u.pubHist.Observe(now.Sub(start), nil)
	u.drainLagLocked(now, u.pendingTo)
	u.published = true
	u.lastModel = model
	u.lastRef = u.refined
	u.lastVersion = info.Version
	u.pendingRows = nil
	u.docsChanged = false
	if full {
		u.fullRebuilds++
	} else {
		u.incrementalPublishes++
	}
	if err := u.j.SetWatermark(u.pendingTo); err == nil {
		u.pending = 0
	} else {
		return info, err
	}
	u.lastPhases.WatermarkMicros = lap()
	u.pruneSnapshotsLocked()
	u.lastPhases.PruneMicros = lap()
	u.publishes++
	u.lastPublish = now
	u.lastPublishMs = now.Sub(start).Milliseconds()
	// Quality scoring runs after the promote on purpose: the new
	// generation is already servable, so a slow metric pass delays the
	// NEXT publish, never this one's visibility. TotalMicros above
	// excludes it for the same reason; the cost shows up separately as
	// QualityMicros and cpd_quality_cost_seconds.
	if u.opts.Quality > 0 && u.generation%uint64(u.opts.Quality) == 0 {
		u.qualityLocked(model, info)
	}
	return info, nil
}

// serveDeltaLocked is the delta a publish hands the engine. An
// incremental publish has its explicit O(changed) delta — only user rows
// differ: the vocabulary is the slot's, fixed for the updater's lifetime,
// and without a Gibbs pass the global blocks are unchanged — and names the
// promote it is relative to (u.lastVersion), so that after an external
// swap (operator reload, another writer) the engine drops it. A full
// publish has no delta to give; the engine then derives one from the bytes
// and still patches when only rows moved (the first publish of a process).
func (u *Updater) serveDeltaLocked(full bool) *serve.Delta {
	if full {
		return nil
	}
	return &serve.Delta{Users: u.pendingRows, Base: u.lastVersion}
}

// openWhole opens and checks a written generation file for the engine to
// serve. It is a variable so a test can fail it.
var openWhole = shard.OpenWhole

// mergeIDs merges two ascending id lists into one ascending deduplicated
// list (reusing a's backing array when possible).
func mergeIDs(a, b []int32) []int32 {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return append(a, b...)
	}
	a = append(a, b...)
	slices.Sort(a)
	return slices.Compact(a)
}

// pruneSnapshotsLocked deletes published generations older than the
// last KeepSnapshots. Manifests go first, each before the files it names
// (shard.Prune), so a replica never reads a manifest whose file is
// already gone; the full files no manifest names — a sharded
// publisher's — go after. Retention works off directory listings rather
// than counting generations down from the cut: a gap in the gen-%08d
// sequence (a failed publish rolled the generation back, or a file was
// removed externally) must not shadow everything older than it —
// counting down and stopping at the first missing file did exactly that,
// leaving stale snapshots on disk forever.
func (u *Updater) pruneSnapshotsLocked() {
	if u.generation <= uint64(u.opts.KeepSnapshots) {
		return
	}
	cut := u.generation - uint64(u.opts.KeepSnapshots)
	shard.Prune(u.opts.Dir, cut)
	files, err := store.ScanGenerations(u.opts.Dir)
	if err != nil {
		return // transient listing failure; retried next publish
	}
	for _, f := range files {
		if f.Generation <= cut {
			os.Remove(filepath.Join(u.opts.Dir, f.Name))
		}
	}
}

// Drain performs the graceful-shutdown sequence: stop accepting ingest,
// fsync the journal, and publish a final snapshot covering everything
// pending. Safe to call more than once.
func (u *Updater) Drain() error {
	u.StopIngest()
	if err := u.j.Sync(); err != nil {
		return err
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.pending == 0 && u.dirty == 0 {
		return nil
	}
	_, err := u.publishLocked()
	return err
}

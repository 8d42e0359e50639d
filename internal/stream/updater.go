package stream

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/hist"
	"repro/internal/quality"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/socialgraph"
	"repro/internal/sparse"
	"repro/internal/store"
)

// Options configures an Updater. Engine is required; Base defaults to the
// target slot's current snapshot (pinned for the updater's lifetime).
type Options struct {
	// Engine is the serving engine whose named slot the updater publishes
	// into and whose fold-in worker pool it borrows.
	Engine *serve.Engine
	// Snapshot is the target slot name (default serve.DefaultSnapshot).
	Snapshot string
	// Base is the frozen generation-0 model every fold-in runs against.
	// nil acquires the target slot's current snapshot instead; the
	// updater then keeps that snapshot pinned until Close, so a mapped
	// base can never be unmapped under it.
	Base *core.Model
	// Vocab labels published snapshots (nil keeps free-text queries off).
	Vocab *corpus.Vocabulary
	// Dir is required: it is where published v2 snapshot files land
	// (gen-%08d.v2.snap), each committed by a shard manifest
	// (gen-%08d.shards.json) that replicas fetch it through. The engine
	// serves every generation from the mapping of the file written here.
	Dir string
	// KeepSnapshots bounds how many published snapshot files are retained
	// in Dir (default 3; older generations are pruned).
	KeepSnapshots int
	// Shards, when > 1, additionally publishes each
	// generation as a sharded group (internal/shard): a global file,
	// Shards per-user-range shard files of Π rows and one state file of
	// the document arrays under the manifest. Shard-owning replicas fetch
	// the global file and their shard instead of the full snapshot, and
	// never the state file. Group files whose contents did not change
	// between generations are hard-linked rather than re-encoded, keeping
	// the extra publish work O(changed). At 0 or 1 the manifest names the
	// full snapshot as the only shard.
	Shards int

	// WindowEvents is the delta window: MaybePublish (and Run) publish
	// once at least this many events are pending (default 256).
	WindowEvents int
	// Interval is Run's publish deadline: pending events are published at
	// latest this long after the previous publish even if the window is
	// not full (default 2s).
	Interval time.Duration
	// FoldSweeps is the Gibbs sweep count per fold-in (default 20).
	FoldSweeps int
	// FoldSeed is the base of the per-user fold-in seeds. Each user's seed
	// is a pure function of (FoldSeed, user id), which is what makes
	// incremental replay bit-identical to batch fold-in.
	FoldSeed uint64

	// GibbsEvery, when > 0 (and BaseGraph is set), runs a resumable
	// delta-Gibbs pass in every generation whose number is a multiple of
	// GibbsEvery (a restart keeps the cadence): the merged
	// base+stream graph is re-sampled with only the users touched since
	// the last pass marked dirty, re-estimating their rows and the global
	// profiles. 0 disables (pure fold-in mode — the replay-equals-batch
	// regime).
	GibbsEvery int
	// GibbsSweeps is the EM iteration count per delta pass (default 2).
	GibbsSweeps int
	// BaseGraph is the training graph of Base, required for delta-Gibbs:
	// it must match the base model exactly (same users, documents, words).
	BaseGraph *socialgraph.Graph
	// Workers sizes the delta-Gibbs engine pool (0 = NumCPU).
	Workers int

	// Mmap is ignored: with Dir every publish promotes the file it wrote
	// from its mapping. The field stays for callers that still set it.
	Mmap bool
	// FullRebuild disables incremental publish maintenance: every publish
	// reassembles the extended model from scratch, rebuilds the serving
	// indexes over every user and word, and re-encodes every snapshot
	// section. The incremental path is bit-identical to this one — the
	// field is the differential-test baseline, not a correctness knob.
	FullRebuild bool

	// Quality, when > 0, scores every generation whose number is a
	// multiple of Quality with the structural metrics of internal/quality
	// (modularity, coverage, conductance, size distribution, drift vs the
	// previous scored generation) and records the report into the
	// engine's bounded history (/api/quality, /metrics). 0 disables — the
	// knob exists because scoring is O(users + edges) on the publish path.
	Quality int
	// QualityPLP additionally runs the parallel label-propagation
	// baseline on the merged base+stream friendship edges each time
	// quality is scored, recording it as the comparison row. Needs edges
	// (BaseGraph and/or streamed add-edge events) to say anything.
	QualityPLP bool
}

func (o Options) withDefaults() Options {
	if o.Snapshot == "" {
		o.Snapshot = serve.DefaultSnapshot
	}
	if o.WindowEvents <= 0 {
		o.WindowEvents = 256
	}
	if o.Interval <= 0 {
		o.Interval = 2 * time.Second
	}
	if o.FoldSweeps <= 0 {
		o.FoldSweeps = 20
	}
	if o.GibbsSweeps <= 0 {
		o.GibbsSweeps = 2
	}
	if o.KeepSnapshots <= 0 {
		o.KeepSnapshots = 3
	}
	return o
}

// userState is one stream-touched user's accumulated corpus.
type userState struct {
	docs    []int32 // indices into Updater.docs
	friends []int32 // friend user ids, arrival order, deduplicated
	dirty   bool    // needs re-folding at the next publish
}

// Status is the freshness/lag gauge surfaced on /api/ingest/status and
// inside /api/stats.
type Status struct {
	Snapshot   string `json:"snapshot"`
	Generation uint64 `json:"generation"`
	BaseUsers  int    `json:"baseUsers"`
	Users      int    `json:"users"`

	StreamDocs  int `json:"streamDocs"`
	StreamEdges int `json:"streamEdges"`
	StreamDiffs int `json:"streamDiffs"`

	// PendingEvents is the publish lag: events applied in memory but not
	// yet visible to queries. JournalTail/Watermark are the corresponding
	// journal offsets.
	PendingEvents int    `json:"pendingEvents"`
	DirtyUsers    int    `json:"dirtyUsers"`
	JournalTail   uint64 `json:"journalTail"`
	Watermark     uint64 `json:"watermark"`
	JournalBytes  int64  `json:"journalBytes"`

	// AppliedEvents counts the events applied by this process, replayed
	// ones included; Publishes and GibbsPasses count this process's
	// publishes and delta-Gibbs passes (Generation is the committed count).
	AppliedEvents   uint64 `json:"appliedEvents"`
	Publishes       uint64 `json:"publishes"`
	GibbsPasses     uint64 `json:"gibbsPasses"`
	LastPublishUnix int64  `json:"lastPublishUnix,omitempty"`
	LastPublishMs   int64  `json:"lastPublishMs,omitempty"`

	// Publish cost introspection: how many publishes took the
	// O(changed) incremental path vs a full rebuild, the per-phase
	// timing of the most recent publish, and histogram summaries of
	// publish wall latency and publish lag (event append → servable
	// generation).
	FullRebuilds         uint64          `json:"fullRebuilds"`
	IncrementalPublishes uint64          `json:"incrementalPublishes"`
	LastPublishPhases    *PublishPhases  `json:"lastPublishPhases,omitempty"`
	PublishLatency       *LatencySummary `json:"publishLatency,omitempty"`
	PublishLag           *LatencySummary `json:"publishLag,omitempty"`
	// QualityRuns counts publishes scored by the quality layer
	// (Options.Quality); LastQuality is the most recent report.
	QualityRuns uint64          `json:"qualityRuns,omitempty"`
	LastQuality *quality.Report `json:"lastQuality,omitempty"`
	// LastError is the most recent publish failure the Run loop retried
	// past ("" when healthy).
	LastError string `json:"lastError,omitempty"`
	Draining  bool   `json:"draining"`
}

// PublishInfo describes one completed publish.
type PublishInfo struct {
	Generation uint64 `json:"generation"`
	Version    uint64 `json:"version"`
	Users      int    `json:"users"`
	Folded     int    `json:"folded"`
	Gibbs      bool   `json:"gibbs"`
	Path       string `json:"path,omitempty"`
	// Incremental marks a publish that took the O(changed) path: patched
	// extended model and patched serving indexes.
	Incremental bool `json:"incremental,omitempty"`
}

// ErrDraining reports an ingest attempted after StopIngest.
var ErrDraining = fmt.Errorf("stream: updater is draining; ingest is closed")

// ErrJournal marks a server-side journal write failure during Ingest —
// distinct from a validation error: the batch may be PARTIALLY journaled
// and applied (everything before the failing event), so a retry of the
// whole batch would duplicate that prefix. The HTTP surface maps it to
// 500, not 400.
var ErrJournal = fmt.Errorf("stream: journal write failed")

// Updater drains journaled events into refreshed snapshots. All methods
// are safe for concurrent use; Publish is internally serialized with
// Ingest.
type Updater struct {
	opts Options
	j    *Journal

	releaseBase func() // pin on the acquired base snapshot (may be nil)

	mu        sync.Mutex
	base      *core.Model          // generation-0 reference (frozen)
	refined   *core.Model          // latest delta-Gibbs output (== base until a pass runs)
	baseUsers int                  // base.NumUsers
	baseDocs  int                  // len(base.DocCommunity)
	users     map[int32]*userState // stream-touched users (new and changed)
	dirty     int                  // users with userState.dirty set (setDirtyLocked keeps it)
	newUsers  int                  // users added above baseUsers
	docs      []socialgraph.Doc    // stream documents, global user ids
	docC      []int32              // latest assignment per stream doc
	docZ      []int32
	edges     []socialgraph.FriendLink
	diffs     []socialgraph.DiffLink // global doc ids
	foldPi    map[int32][]float64    // latest folded membership row per user

	pending   int    // events applied since the last publish
	pendingTo uint64 // journal offset covering the applied events

	generation    uint64
	applied       uint64
	publishes     uint64
	gibbsPasses   uint64
	lastPublish   time.Time
	lastPublishMs int64
	lastError     string
	draining      bool
	// published marks that the engine slot serves this updater's state: a
	// generation this updater promoted, or the newest generation a restart
	// adopted (Engine.LoadGeneration). Until then a Publish rebuilds even
	// with nothing pending.
	published bool

	// Incremental-publish state (publish.go): the extended model behind
	// the last successful promote (the engine serves that generation's file
	// mapping, so the model's Π is the updater's to patch in place), the
	// refined reference it was built from, the engine version it produced,
	// and the user rows re-folded since that promote (carried across failed
	// attempts so a retried publish cannot lose a row that was folded
	// before the failure).
	lastModel   *core.Model
	lastRef     *core.Model
	lastVersion uint64
	pendingRows []int32
	// publisher commits each generation's manifest: over the full snapshot
	// file at one shard, over a shard group written next to it (clean
	// shard files hard-linked across generations) at Options.Shards > 1.
	publisher *shard.Publisher
	// docsChanged marks that the stream documents' assignment arrays
	// (docC/docZ) or their length changed since lastModel was built. While
	// false, extendedDocArraysLocked hands out lastModel's own doc arrays
	// instead of fresh copies, so shard.Publisher, finding the very arrays
	// it last wrote, hard-links the previous generation's state file
	// instead of rewriting it — the publish headroom for friends-only delta
	// windows, whose folds move membership rows but leave every document
	// assignment where it was.
	docsChanged bool

	fullRebuilds         uint64
	incrementalPublishes uint64
	lastPhases           PublishPhases
	pubHist              hist.Hist   // publish wall latency
	lagHist              hist.Hist   // event append -> servable generation
	lagPending           []lagSample // applied batches awaiting a publish

	// Quality scoring state (Options.Quality): the previous scored
	// generation's hard assignments (drift baseline), the latest report,
	// and how many publishes were scored.
	prevQualityAssign []int32
	lastQuality       *quality.Report
	qualityRuns       uint64

	// statusMu guards statusCache (and the histogram copies WriteMetrics
	// reads), refreshed after every mutation so Status() and the /metrics
	// collector never have to wait on a long-running publish.
	statusMu     sync.Mutex
	statusCache  Status
	pubHistCache hist.Hist
	lagHistCache hist.Hist

	notify chan struct{} // pending >= window, consumed by Run
}

// NewUpdater builds an updater over an opened journal and restores its
// state from what is on disk: the journal is the corpus, and the newest
// committed generation in Options.Dir is the model (see restartLocked).
func NewUpdater(j *Journal, opts Options) (*Updater, error) {
	opts = opts.withDefaults()
	if opts.Engine == nil {
		return nil, fmt.Errorf("stream: Options.Engine is required")
	}
	if opts.Dir == "" {
		return nil, fmt.Errorf("stream: Options.Dir is required")
	}
	if opts.GibbsEvery > 0 && opts.BaseGraph == nil {
		return nil, fmt.Errorf("stream: GibbsEvery needs Options.BaseGraph")
	}
	publisher, err := shard.NewPublisher(opts.Dir, max(1, opts.Shards))
	if err != nil {
		return nil, err
	}
	u := &Updater{
		opts:      opts,
		j:         j,
		users:     make(map[int32]*userState),
		foldPi:    make(map[int32][]float64),
		notify:    make(chan struct{}, 1),
		publisher: publisher,
	}
	u.base = opts.Base
	if u.base == nil {
		s, release, err := opts.Engine.AcquireNamed(opts.Snapshot)
		if err != nil {
			return nil, fmt.Errorf("stream: acquiring base snapshot: %w", err)
		}
		u.base = s.Model
		u.releaseBase = release
	}
	u.refined = u.base
	u.baseUsers = u.base.NumUsers
	u.baseDocs = len(u.base.DocCommunity)
	if g := opts.BaseGraph; g != nil {
		if g.NumUsers != u.baseUsers || len(g.Docs) != u.baseDocs || g.NumWords != u.base.NumWords {
			u.close()
			return nil, fmt.Errorf("stream: BaseGraph (%d users, %d docs, %d words) does not match the base model (%d users, %d docs, %d words)",
				g.NumUsers, len(g.Docs), g.NumWords, u.baseUsers, u.baseDocs, u.base.NumWords)
		}
	}
	if err := u.restartLocked(); err != nil {
		u.close()
		return nil, err
	}
	u.refreshStatusLocked()
	return u, nil
}

// restartLocked replays the whole journal and adopts the newest committed
// generation as the model it extends. Events up to the watermark are
// covered by a committed generation: they are applied but neither pending
// nor dirty. Events past it are pending and dirty their users, as an
// Ingest would. The generation file is adopted when it fits the replayed
// corpus (adoptLocked); otherwise the restart extends the base model as a
// first start would: every stream user is dirty and every replayed event
// pending, so the first publish re-folds them all. Numbering resumes above
// the newest manifest either way, so a generation number replicas may have
// fetched is never reused.
func (u *Updater) restartLocked() error {
	gens, err := shard.ScanManifests(u.opts.Dir)
	if err != nil {
		return err
	}
	mark := u.j.Watermark()
	pastMark := false
	var markUsers, markDocs int // the corpus the watermark covers
	reachMark := func() {
		pastMark = true
		markUsers, markDocs = u.baseUsers+u.newUsers, len(u.docs)
		for _, us := range u.users {
			u.setDirtyLocked(us, false)
		}
	}
	if err := u.j.Replay(0, func(off uint64, ev Event) error {
		if off > mark && !pastMark {
			reachMark()
		}
		if aerr := u.applyLocked(&ev); aerr != nil {
			return fmt.Errorf("stream: journal replay at offset %d: %w", off, aerr)
		}
		u.pendingTo = off
		u.applied++
		if pastMark {
			u.pending++
		}
		return nil
	}); err != nil {
		return err
	}
	if !pastMark {
		reachMark()
	}
	if n := len(gens); n > 0 {
		u.generation = gens[n-1]
		if u.adoptLocked(markUsers, markDocs) {
			return nil
		}
	}
	for _, us := range u.users {
		u.setDirtyLocked(us, true)
	}
	u.pending = int(u.applied)
	return nil
}

// adoptLocked makes the full file of generation u.generation the refined
// reference and serves it, if the file checks and fits the corpus: the
// base's shape, and user and stream-document counts between what the
// watermark covers (markUsers, markDocs) and what the journal holds. A
// count past the watermark is a crash between a manifest commit and the
// watermark write; the events in between stay pending and re-fold into
// the next generation. The file holds every row and document assignment
// that generation published, Gibbs refinements included, so the fold rows
// start empty and the stream documents' assignments continue from the
// file's.
func (u *Updater) adoptLocked(markUsers, markDocs int) bool {
	path := store.GenPath(u.opts.Dir, u.generation)
	m, err := store.LoadFile(path)
	if err != nil {
		return false
	}
	docs := len(m.DocCommunity) - u.baseDocs
	if m.Cfg.NumCommunities != u.base.Cfg.NumCommunities || m.Cfg.NumTopics != u.base.Cfg.NumTopics ||
		m.NumWords != u.base.NumWords ||
		m.NumUsers < markUsers || m.NumUsers > u.baseUsers+u.newUsers ||
		docs < markDocs || docs > len(u.docs) {
		return false
	}
	if _, err := u.opts.Engine.LoadGeneration(u.opts.Snapshot, path, u.opts.Vocab, u.generation); err != nil {
		return false
	}
	u.refined = m
	copy(u.docC, m.DocCommunity[u.baseDocs:])
	copy(u.docZ, m.DocTopic[u.baseDocs:])
	u.published = true
	return true
}

// close releases held resources (not the journal, which the caller owns).
func (u *Updater) close() {
	if u.releaseBase != nil {
		u.releaseBase()
		u.releaseBase = nil
	}
}

// Close releases the base-snapshot pin. The journal is the caller's to
// close.
func (u *Updater) Close() { u.close() }

// StopIngest makes every further Ingest fail with ErrDraining — the first
// step of a graceful drain.
func (u *Updater) StopIngest() {
	u.mu.Lock()
	u.draining = true
	u.refreshStatusLocked()
	u.mu.Unlock()
}

// Ingest validates evs against the current corpus, resolves AddUser ids,
// appends everything to the journal and applies it in memory. It returns
// the resolved events (AddUser events carry their assigned ids). The batch
// is atomic: on a validation error nothing is journaled or applied.
func (u *Updater) Ingest(evs []Event) ([]Event, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.draining {
		return nil, ErrDraining
	}
	// Validate the whole batch against a speculative view before touching
	// the journal.
	resolved := make([]Event, len(evs))
	specUsers := u.baseUsers + u.newUsers
	specDocs := u.baseDocs + len(u.docs)
	for i := range evs {
		ev := evs[i]
		switch ev.Type {
		case EvAddUser:
			next := int32(specUsers)
			if ev.User > 0 && ev.User != next {
				return nil, fmt.Errorf("stream: event %d adds user %d, expected the next id %d", i, ev.User, next)
			}
			ev.User = next
			specUsers++
		case EvAddEdge:
			if err := u.checkUser(int(ev.User), specUsers); err != nil {
				return nil, fmt.Errorf("stream: event %d: %w", i, err)
			}
			if err := u.checkUser(int(ev.Target), specUsers); err != nil {
				return nil, fmt.Errorf("stream: event %d: %w", i, err)
			}
			if ev.User == ev.Target {
				return nil, fmt.Errorf("stream: event %d is a self-edge on user %d", i, ev.User)
			}
		case EvAddDoc, EvDiffusion:
			if err := u.checkUser(int(ev.User), specUsers); err != nil {
				return nil, fmt.Errorf("stream: event %d: %w", i, err)
			}
			if len(ev.Words) == 0 {
				return nil, fmt.Errorf("stream: event %d carries an empty document", i)
			}
			if len(ev.Words) > MaxEventWords {
				return nil, fmt.Errorf("stream: event %d has %d words (limit %d)", i, len(ev.Words), MaxEventWords)
			}
			for _, w := range ev.Words {
				if w < 0 || int(w) >= u.base.NumWords {
					return nil, fmt.Errorf("stream: event %d has out-of-vocabulary word %d (|W|=%d)", i, w, u.base.NumWords)
				}
			}
			if ev.Type == EvDiffusion {
				if ev.Target < 0 || int(ev.Target) >= specDocs {
					return nil, fmt.Errorf("stream: event %d diffuses unknown document %d (have %d)", i, ev.Target, specDocs)
				}
			}
			specDocs++
		default:
			return nil, fmt.Errorf("stream: event %d has unknown type %d", i, ev.Type)
		}
		resolved[i] = ev
	}
	for i := range resolved {
		off, err := u.j.Append(&resolved[i])
		if err != nil {
			u.refreshStatusLocked()
			return nil, fmt.Errorf("%w: event %d of %d: %v", ErrJournal, i, len(resolved), err)
		}
		if aerr := u.applyLocked(&resolved[i]); aerr != nil {
			// Cannot happen after validation; surface loudly if it does.
			u.refreshStatusLocked()
			return nil, fmt.Errorf("stream: internal error applying validated event: %w", aerr)
		}
		u.pendingTo = off
		u.pending++
		u.applied++
	}
	u.recordLagLocked()
	u.refreshStatusLocked()
	if u.pending >= u.opts.WindowEvents {
		select {
		case u.notify <- struct{}{}:
		default:
		}
	}
	return resolved, nil
}

func (u *Updater) checkUser(id, specUsers int) error {
	if id < 0 || id >= specUsers {
		return fmt.Errorf("unknown user %d (have %d)", id, specUsers)
	}
	return nil
}

// user returns (creating if needed) the stream state of a user.
func (u *Updater) user(id int32) *userState {
	us := u.users[id]
	if us == nil {
		us = &userState{}
		u.users[id] = us
	}
	return us
}

// setDirtyLocked is the only writer of userState.dirty: it keeps u.dirty,
// the count Status reports, in step, so reading it never walks u.users.
func (u *Updater) setDirtyLocked(us *userState, dirty bool) {
	if us.dirty == dirty {
		return
	}
	us.dirty = dirty
	if dirty {
		u.dirty++
	} else {
		u.dirty--
	}
}

// applyLocked folds one validated event into the corpus state.
func (u *Updater) applyLocked(ev *Event) error {
	switch ev.Type {
	case EvAddUser:
		next := int32(u.baseUsers + u.newUsers)
		if ev.User != next {
			return fmt.Errorf("add-user id %d, expected %d", ev.User, next)
		}
		u.newUsers++
		u.user(ev.User)
	case EvAddEdge:
		total := u.baseUsers + u.newUsers
		if int(ev.User) >= total || int(ev.Target) >= total || ev.User < 0 || ev.Target < 0 || ev.User == ev.Target {
			return fmt.Errorf("bad edge %d->%d", ev.User, ev.Target)
		}
		u.edges = append(u.edges, socialgraph.FriendLink{U: ev.User, V: ev.Target})
		for _, id := range [2]int32{ev.User, ev.Target} {
			us := u.user(id)
			if !containsInt32(us.friends, other(id, ev.User, ev.Target)) {
				us.friends = append(us.friends, other(id, ev.User, ev.Target))
			}
			u.setDirtyLocked(us, true)
		}
	case EvAddDoc, EvDiffusion:
		total := u.baseUsers + u.newUsers
		if int(ev.User) >= total || ev.User < 0 || len(ev.Words) == 0 {
			return fmt.Errorf("bad document event for user %d", ev.User)
		}
		docID := int32(u.baseDocs + len(u.docs))
		if ev.Type == EvDiffusion {
			if ev.Target < 0 || ev.Target >= docID {
				return fmt.Errorf("diffusion of unknown document %d", ev.Target)
			}
			u.diffs = append(u.diffs, socialgraph.DiffLink{I: docID, J: ev.Target, T: ev.Time})
		}
		u.docs = append(u.docs, socialgraph.Doc{User: ev.User, Time: ev.Time, Words: ev.Words})
		u.docC = append(u.docC, 0)
		u.docZ = append(u.docZ, 0)
		u.docsChanged = true
		us := u.user(ev.User)
		us.docs = append(us.docs, docID)
		u.setDirtyLocked(us, true)
	default:
		return fmt.Errorf("unknown event type %d", ev.Type)
	}
	return nil
}

func other(self, a, b int32) int32 {
	if self == a {
		return b
	}
	return a
}

func containsInt32(xs []int32, v int32) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// Model assembles and returns the current extended model — the state the
// next publish would promote. The returned model is freshly built and
// owned by the caller (its global blocks alias the frozen reference).
func (u *Updater) Model() *core.Model {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.buildExtendedLocked(nil, nil)
}

// Pending returns the number of applied-but-unpublished events.
func (u *Updater) Pending() int {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.pending
}

// Generation returns the last published generation number.
func (u *Updater) Generation() uint64 {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.generation
}

// Status returns the freshness/lag gauge. It reads a cache refreshed
// after every mutation instead of taking the updater lock, so monitoring
// (/api/ingest/status, /api/stats) stays responsive during a long
// publish or delta-Gibbs pass — at the cost of reporting the state as of
// the last completed mutation.
func (u *Updater) Status() Status {
	u.statusMu.Lock()
	defer u.statusMu.Unlock()
	return u.statusCache
}

// refreshStatusLocked recomputes the status cache; callers hold u.mu. The
// raw publish/lag histograms are copied alongside so WriteMetrics (the
// /metrics collector) never has to wait on a long-running publish either.
func (u *Updater) refreshStatusLocked() {
	st := u.statusLocked()
	u.statusMu.Lock()
	u.statusCache = st
	u.pubHistCache = u.pubHist
	u.lagHistCache = u.lagHist
	u.statusMu.Unlock()
}

func (u *Updater) statusLocked() Status {
	st := Status{
		Snapshot:      u.opts.Snapshot,
		Generation:    u.generation,
		BaseUsers:     u.baseUsers,
		Users:         u.baseUsers + u.newUsers,
		StreamDocs:    len(u.docs),
		StreamEdges:   len(u.edges),
		StreamDiffs:   len(u.diffs),
		PendingEvents: u.pending,
		DirtyUsers:    u.dirty,
		JournalTail:   u.j.Tail(),
		Watermark:     u.j.Watermark(),
		JournalBytes:  u.j.SizeBytes(),
		AppliedEvents: u.applied,
		Publishes:     u.publishes,
		GibbsPasses:   u.gibbsPasses,
		Draining:      u.draining,
	}
	if !u.lastPublish.IsZero() {
		st.LastPublishUnix = u.lastPublish.Unix()
		st.LastPublishMs = u.lastPublishMs
	}
	st.FullRebuilds = u.fullRebuilds
	st.IncrementalPublishes = u.incrementalPublishes
	if u.lastPhases.TotalMicros > 0 {
		ph := u.lastPhases
		st.LastPublishPhases = &ph
	}
	st.PublishLatency = histSummary(&u.pubHist)
	st.PublishLag = histSummary(&u.lagHist)
	st.QualityRuns = u.qualityRuns
	st.LastQuality = u.lastQuality
	st.LastError = u.lastError
	return st
}

// dirtyUsersLocked lists dirty users in ascending id order — the fixed
// fold order determinism depends on.
func (u *Updater) dirtyUsersLocked() []int32 {
	if u.dirty == 0 {
		return nil
	}
	ids := make([]int32, 0, u.dirty)
	for id, us := range u.users {
		if us.dirty {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids
}

// foldDirtyLocked re-infers every dirty user with at least one stream
// document through the serving engine's fold-in pool, against the current
// slot snapshot — whose Φ/Θ and base-user rows are bit-identical to the
// frozen base until a delta-Gibbs pass re-estimates them. A changed
// TRAINED user folds over their full history when the base graph is
// available (trained documents + streamed documents); without it, only
// the streamed documents carry evidence — a documented degradation, not
// a silent one. Users without documents stay on their previous row
// (edges alone cannot move a membership off the prior). Dirty flags
// clear on success.
func (u *Updater) foldDirtyLocked(ids []int32) (int, error) {
	var reqs []*serve.FoldInRequest
	var reqUsers []int32
	var reqSkip []int // base-graph documents prepended per request
	for _, id := range ids {
		us := u.users[id]
		if len(us.docs) == 0 {
			u.setDirtyLocked(us, false)
			continue
		}
		req := &serve.FoldInRequest{
			Docs:   make([][]int32, 0, len(us.docs)),
			Seed:   u.opts.FoldSeed ^ (uint64(uint32(id))*0x9E3779B97F4A7C15 + 0x1CE),
			Sweeps: u.opts.FoldSweeps,
		}
		// A trained user's re-fold keeps their training-corpus evidence
		// when we have it, so one streamed document cannot collapse a
		// 20-document posterior.
		if int(id) < u.baseUsers && u.opts.BaseGraph != nil {
			for _, d := range u.opts.BaseGraph.UserDocs(int(id)) {
				req.Docs = append(req.Docs, u.opts.BaseGraph.Docs[d].Words)
			}
		}
		skip := len(req.Docs)
		for _, d := range us.docs {
			req.Docs = append(req.Docs, u.docs[d-int32(u.baseDocs)].Words)
		}
		// Fold-in conditions on trained neighbours only: links to other
		// stream users wait for the delta-Gibbs pass.
		for _, f := range us.friends {
			if int(f) < u.baseUsers {
				req.Friends = append(req.Friends, f)
			}
		}
		reqs = append(reqs, req)
		reqUsers = append(reqUsers, id)
		reqSkip = append(reqSkip, skip)
	}
	if len(reqs) == 0 {
		return 0, nil
	}
	results, errs := u.opts.Engine.FoldInBatchNamed(u.opts.Snapshot, reqs)
	for i, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("stream: folding user %d in: %w", reqUsers[i], err)
		}
	}
	for i, res := range results {
		id := reqUsers[i]
		us := u.users[id]
		u.foldPi[id] = res.Pi
		for k, d := range us.docs {
			c, z := res.DocCommunity[reqSkip[i]+k], res.DocTopic[reqSkip[i]+k]
			// Write-if-different keeps docsChanged honest: a re-fold that
			// lands every document where it already was (the common case for
			// an edge-only dirty window) must not spoil doc-array reuse.
			if j := d - int32(u.baseDocs); u.docC[j] != c || u.docZ[j] != z {
				u.docC[j] = c
				u.docZ[j] = z
				u.docsChanged = true
			}
		}
		u.setDirtyLocked(us, false)
	}
	return len(reqs), nil
}

// gibbsPassLocked runs the resumable delta-Gibbs refinement: resume a
// sampler from the current extended model on the merged base+stream
// graph, sweep only the users touched since the last pass, and adopt the
// re-estimated model as the new reference for base rows and global
// profiles. Deterministic per (options, generation).
func (u *Updater) gibbsPassLocked() error {
	g, err := u.mergedGraphLocked()
	if err != nil {
		return err
	}
	m0 := u.buildExtendedLocked(nil, nil)
	eng, err := core.NewEngineFromModel(g, m0, core.ResumeOptions{
		Workers: u.opts.Workers,
		Seed:    u.opts.FoldSeed + 0xD1B5 + u.generation,
	})
	if err != nil {
		return err
	}
	defer eng.Close()
	dirty := make([]bool, g.NumUsers)
	for id := range u.users {
		dirty[id] = true
	}
	if len(u.users) > 0 {
		if err := eng.SetDirty(dirty); err != nil {
			return err
		}
	}
	model, _, err := eng.RunEM(u.opts.GibbsSweeps)
	if err != nil {
		return err
	}
	u.refined = model
	u.gibbsPasses++
	// The refined model is now authoritative for every user: fold rows
	// are superseded, and stream-doc assignments continue from the
	// re-sampled chain.
	u.foldPi = make(map[int32][]float64)
	for i := range u.docs {
		u.docC[i] = model.DocCommunity[u.baseDocs+i]
		u.docZ[i] = model.DocTopic[u.baseDocs+i]
	}
	u.docsChanged = true
	return nil
}

// mergedGraphLocked assembles base graph + stream corpus.
func (u *Updater) mergedGraphLocked() (*socialgraph.Graph, error) {
	bg := u.opts.BaseGraph
	if bg == nil {
		return nil, fmt.Errorf("stream: no base graph")
	}
	g := &socialgraph.Graph{
		NumUsers: u.baseUsers + u.newUsers,
		NumWords: bg.NumWords,
		NumAttrs: bg.NumAttrs,
		Docs:     append(append(make([]socialgraph.Doc, 0, len(bg.Docs)+len(u.docs)), bg.Docs...), u.docs...),
		Friends:  append(append(make([]socialgraph.FriendLink, 0, len(bg.Friends)+len(u.edges)), bg.Friends...), u.edges...),
		Diffs:    append(append(make([]socialgraph.DiffLink, 0, len(bg.Diffs)+len(u.diffs)), bg.Diffs...), u.diffs...),
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("stream: merged graph invalid: %w", err)
	}
	return g, nil
}

// buildExtendedLocked assembles the next published model: the refined
// reference's global blocks, and for each user of the stream population
// the latest fold row, else the reference's row, else (a declared user
// with no documents yet) the smoothed uniform prior.
//
// With last nil every row is written into a fresh Π, and the model shares
// the reference's blocks and prediction caches (core.Model.WithPi). Given
// last — the model behind the last publish, built from this same
// reference — only rows (re-folded since then) and the users appended
// since are written, inside last's Π grown in place, and last's blocks and
// caches are kept: the engine serves each generation from its file's
// mapping and never sees that array, and last is spent. A publish that
// fails after the patch leaves the rows in place; rows (pendingRows)
// still names each, so the retry arrives at the same bytes.
//
// Both paths give the same bytes: fold rows are only added or replaced,
// each time for a user rows then names, and cleared only by a delta-Gibbs
// pass, which replaces the reference and so forces last nil — a row of
// last that rows does not name already holds what this rule assigns.
func (u *Updater) buildExtendedLocked(last *core.Model, rows []int32) *core.Model {
	ref := u.refined
	C := ref.Cfg.NumCommunities
	total := u.baseUsers + u.newUsers
	var m *core.Model
	from := 0 // users from here on are written whatever rows names
	if last == nil {
		m = ref.WithPi(sparse.NewDense(total, C))
	} else {
		from = last.NumUsers
		pi := slices.Grow(last.Pi.Data, (total-from)*C)[:total*C]
		m = last.WithPi(sparse.NewDenseView(total, C, pi))
	}
	uniform := 1 / float64(C)
	write := func(id int) {
		dst := m.Pi.Row(id)
		if row, ok := u.foldPi[int32(id)]; ok {
			copy(dst, row)
		} else if id < ref.NumUsers {
			copy(dst, ref.Pi.Row(id))
		} else {
			for c := range dst {
				dst[c] = uniform
			}
		}
	}
	for _, id := range rows {
		if int(id) < from {
			write(int(id))
		}
	}
	for id := from; id < total; id++ {
		write(id)
	}
	u.extendedDocArraysLocked(m, ref)
	return m
}

// extendedDocArraysLocked fills m's per-document assignment arrays: the
// refined reference's base-corpus assignments followed by the stream
// documents' latest fold/Gibbs assignments. Stream documents' buckets
// default to 0: the popularity factor is re-estimated only by delta-Gibbs
// passes, which recompute buckets from the merged graph's real time
// range. The doc arrays are O(stream) memcpys on either path of
// buildExtendedLocked.
func (u *Updater) extendedDocArraysLocked(m, ref *core.Model) {
	// Friends-only fast path: when no stream document was added or
	// reassigned since the last published model was built against this
	// same refined reference, hand out that model's arrays verbatim: no
	// O(documents) copy, and shard.Publisher recognizes them by identity
	// and hard-links the previous generation's state file — nothing ever
	// mutates a published model's arrays in place (publishes that would
	// change them build fresh slices here), so that file is still good.
	if !u.docsChanged && u.lastModel != nil && ref == u.lastRef &&
		len(u.lastModel.DocCommunity) == u.baseDocs+len(u.docs) {
		m.DocCommunity = u.lastModel.DocCommunity
		m.DocTopic = u.lastModel.DocTopic
		m.DocBucket = u.lastModel.DocBucket
		return
	}
	m.DocCommunity = make([]int32, u.baseDocs+len(u.docs))
	m.DocTopic = make([]int32, u.baseDocs+len(u.docs))
	m.DocBucket = make([]int, u.baseDocs+len(u.docs))
	copy(m.DocCommunity, ref.DocCommunity[:min(len(ref.DocCommunity), u.baseDocs)])
	copy(m.DocTopic, ref.DocTopic[:min(len(ref.DocTopic), u.baseDocs)])
	copy(m.DocBucket, ref.DocBucket[:min(len(ref.DocBucket), u.baseDocs)])
	copy(m.DocCommunity[u.baseDocs:], u.docC)
	copy(m.DocTopic[u.baseDocs:], u.docZ)
}

// Run is the background publish loop: it publishes whenever a delta
// window fills (promptly, via Ingest's notification) and at latest every
// Interval while events are pending. A failed publish is recorded in
// Status().LastError and retried on the next tick — the loop only returns
// when ctx is cancelled. The caller typically follows with Drain.
func (u *Updater) Run(ctx context.Context) error {
	t := time.NewTicker(u.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-u.notify:
		case <-t.C:
		}
		if u.Pending() == 0 {
			continue
		}
		_, err := u.Publish()
		u.mu.Lock()
		u.lastError = ""
		if err != nil {
			u.lastError = err.Error()
		}
		u.refreshStatusLocked()
		u.mu.Unlock()
	}
}

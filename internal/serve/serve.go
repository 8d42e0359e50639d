// Package serve is the online profile-serving subsystem: the read path
// between a trained CPD model and the HTTP edge. The paper ships its
// results as an interactive service (SocialLens, footnote 1); this package
// is the engine such a service needs to hold up under load:
//
//   - one Engine hosts any number of named snapshots (e.g. per-region
//     models); each lives behind an atomic pointer, so SwapNamed (a heap
//     model) or PromoteGroup (a checked file group; LoadGeneration picks
//     between the two) hot-swaps a model with zero downtime — in-flight
//     queries keep the snapshot they
//     started on, and no query ever observes a torn mix of two models;
//   - snapshots hold matrix *views*, not owned copies: a v2 file is
//     served from its read-only mapping (only legacy v1 and JSON models
//     are copied), and the mapping's lifetime is tied to the snapshot's
//     reference count — the file is unmapped only when the last in-flight
//     query releases it, never under one;
//   - every user's top-K memberships live in one flat per-snapshot table
//     (plus a member count per community), from which memberships, member
//     counts and member lists are answered;
//   - Eq. 19 community ranking is exact per query: the query's topic
//     posterior is summed from the snapshot's word-major log Φ table and
//     finished by core.Model.RankFromLogPosterior, the same code the
//     offline ranking runs;
//   - that derived state has one builder, buildSnapshot (build.go),
//     behind every way a model reaches a slot. When only membership rows
//     changed or were appended — what a fold-in publish does — it patches
//     those rows into the slot's current snapshot and shares the rest, from
//     a delta the caller supplies or one it derives by comparing the
//     blocks; any other difference is a full build;
//     Snapshot.Build, /api/stats and /metrics say what each build did;
//   - fold-in inference (FoldInNamed) gives users the model was never trained
//     on a community membership and profile, by a short seeded Gibbs pass
//     against the frozen Φ/Θ/Π — batched through a persistent worker pool
//     in the spirit of core.Engine's segment workers;
//   - every endpoint keeps a log-bucketed latency histogram (Stats,
//     p50/p95/p99 included), StatsReport adds process RSS plus
//     per-snapshot mapped/heap byte accounting, the engine stores a
//     bounded per-snapshot history of structural quality reports
//     (internal/quality) served on /api/quality, and WriteMetrics
//     exports the whole surface in Prometheus text format (/metrics).
//
// APIHandler exposes the engine over HTTP — the JSON API, the Fig. 7
// diffusion graph and the SocialLens page — as the one surface of
// cmd/cpd-serve.
package serve

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/hist"
	"repro/internal/mathx"
	"repro/internal/quality"
	"repro/internal/rng"
	"repro/internal/shard"
	"repro/internal/store"
)

// DefaultSnapshot is the snapshot name the HTTP surface resolves a request
// without a ?snapshot= parameter against, and the slot a single-model
// engine loads into.
const DefaultSnapshot = "default"

// Options tunes an Engine. The zero value is ready for use.
type Options struct {
	// FoldInWorkers sizes the persistent fold-in worker pool
	// FoldInBatchNamed fans out over. Results are bit-identical for every
	// value (each request is a pure function of the snapshot and its own
	// seed); 0 selects the default (4).
	FoldInWorkers int
	// Mmap is ignored: LoadGeneration serves every v2 file from its
	// mapping. The field stays for callers that still set it.
	Mmap bool
}

const (
	// memberTopK is the "top communities per user" convention used for
	// member lists (the paper's choice).
	memberTopK = 5
	// qualityHistory bounds the per-snapshot ring of structural quality
	// reports kept for /api/quality, in generations.
	qualityHistory = 32
)

func (o Options) withDefaults() Options {
	if o.FoldInWorkers == 0 {
		o.FoldInWorkers = 4
	}
	return o
}

// Snapshot is one immutable serving state: a model, its optional
// vocabulary, and everything precomputed from them. Queries resolve
// against exactly one snapshot, so a swap during a request can never mix
// parameters from two models.
//
// A snapshot's matrices are views — for a mapped model they alias a
// read-only file mapping owned by the snapshot. The snapshot therefore
// carries a reference count: it is born with one reference (slot
// ownership), every query pins it for the duration (Engine.AcquireNamed /
// Release), the owning slot drops its reference on swap, and the backing
// mapping is closed exactly when the count reaches zero. An in-flight
// query can never see an unmapped page.
type Snapshot struct {
	Model *core.Model
	Vocab *corpus.Vocabulary
	// Name is the engine slot the snapshot serves under.
	Name string
	// Version increments on every swap (globally across the engine's
	// snapshots); results carry it so callers can attribute answers to a
	// model generation.
	Version uint64
	// Generation is the publisher's generation number the snapshot was
	// built from (0 = not generation-tracked). Unlike Version — which is
	// process-local — generations are assigned by the publisher and so
	// compare across replicas; the distribution tier (serve.Fetcher,
	// internal/router) keys freshness on it.
	Generation uint64
	// Shard identifies the user range this snapshot owns when its model is
	// a shard of a sharded generation (nil for full snapshots). User-scoped
	// queries accept GLOBAL user ids: owned ids are translated to local Π
	// rows, non-owned ids answer ErrNotOwned so a shard-aware router can
	// re-route. Rank and diffusion stay exact — they read only the global
	// sections (plus rows the caller supplies).
	Shard *shard.Info

	opts     Options
	openness []int
	// etaBase[c] is community c's η base (apps.EtaBases): Community lists
	// the flows of 2|C| pairs, and a base per pair would rescan η's
	// |C|·|Z| row each time.
	etaBase []float64
	labels  []string
	users   *userIndex
	// logTheta[c*|Z|+z] = log(θ_{c,z} + 1e-300): the per-snapshot constant
	// fold-in's conditionals read per document and sweep.
	logTheta []float64
	// logPhi[w*|Z|+z] = log(φ_{z,w} + 1e-300), word-major: a fold-in adds
	// one contiguous |Z|-run per document word, and Rank one per query
	// word, where Φ's own layout would have them gather |Z| values |W|
	// apart and take their logarithms.
	logPhi []float64

	// build records how the derived state above came to be (Build).
	build BuildInfo

	refs        atomic.Int64
	closer      io.Closer // mapped backing; nil for heap snapshots
	mapped      bool
	mappedBytes int64
	heapBytes   int64
}

// newSnapshot builds every derived structure from the model. Production
// code reaches it through buildSnapshot (and patchFrom's fallback) only;
// it is the reference the patch path is held bit-identical to.
func newSnapshot(m *core.Model, vocab *corpus.Vocabulary, name string, version uint64, opts Options) *Snapshot {
	s := &Snapshot{
		Model:    m,
		Vocab:    vocab,
		Name:     name,
		Version:  version,
		opts:     opts,
		openness: apps.Openness(m),
		etaBase:  apps.EtaBases(m),
		labels:   communityLabels(m, vocab),
		users:    buildUserIndex(m),
		logTheta: logThetaTable(m),
		logPhi:   logPhiTable(m),
		build:    BuildInfo{Kind: BuildFull, Users: m.NumUsers},
	}
	s.refs.Store(1)
	s.heapBytes = s.derivedBytes()
	return s
}

// Build reports how the snapshot's derived state was constructed.
func (s *Snapshot) Build() BuildInfo { return s.build }

// derivedBytes is the heap accounting of a freshly built snapshot. Derived
// state is always heap; the matrices count as heap until a mapped backing
// is attached (attach subtracts them).
func (s *Snapshot) derivedBytes() int64 {
	return s.Model.CacheBytes() + s.users.bytes() + 8*int64(len(s.logTheta)+len(s.logPhi)) + s.Model.MatrixBytes()
}

// Delta describes how a model differs from the one behind an existing
// snapshot, letting snapshot construction reuse unchanged derived state
// (patchFrom). The zero Delta means "nothing changed beyond appended
// users".
//
// A patch changes membership rows and nothing else: Θ and Φ are
// estimated from the same document assignments (Sect. 4.2), so a model
// whose Φ moved moved Θ too, and every other block feeds the shared
// derived state wholesale. A delta must be complete: patchFrom recomputes
// the rows it lists and nothing else, so a changed row left out keeps its
// stale entries. A caller that cannot vouch for that passes PromoteGroup
// no delta and gets one derived from the bytes (deriveDelta), complete by
// construction: every block derived state reads is compared exactly, and
// whatever a Delta cannot name forces the full build.
type Delta struct {
	// Users lists the users whose membership row (π_u) changed, in any
	// order (patchFrom normalizes). Users with ids at or past the
	// previous snapshot's user count are implicitly new and need not be
	// listed.
	Users []int32
	// Globals marks the shared profile blocks (Θ, Φ, η, ν wholesale) as
	// changed — forces a full rebuild of every derived structure.
	Globals bool
	// Base, when non-zero, is the Version of the snapshot the delta was
	// computed against. PromoteGroup honours the delta only while
	// the slot still holds that snapshot; after an external swap (operator
	// reload, another writer) it derives one from the bytes instead.
	Base uint64
}

// patchFrom builds a snapshot of m by patching prev's derived state:
// user-index rows and member counts are recomputed for delta.Users (plus
// appended users), and everything else — openness, labels, log Θ and
// log Φ tables — is shared with prev. Sharing is safe because
// derived state is immutable and heap-allocated (never a view into prev's
// possibly-mapped matrices), so it outlives prev's retirement.
//
// A patched snapshot is bit-identical to a from-scratch newSnapshot of m
// provided the delta covers every change between prev.Model and m: the
// per-user top-K selection runs the exact float operation sequence of the
// full builder. When patching does not apply — delta.Globals, a changed
// community/topic/word count, or a shrunken user set — patchFrom falls
// back to a full build (Build().Reason says which). It does not look at
// delta.Base or at shard identities: those are buildSnapshot's to check
// before it calls here.
//
// The returned snapshot is not yet published and carries one reference
// (for the slot that will own it); callers that abandon it must Release
// it.
func patchFrom(prev *Snapshot, m *core.Model, vocab *corpus.Vocabulary, delta Delta) *Snapshot {
	pm := prev.Model
	reason := ""
	if delta.Globals {
		reason = reasonGlobals
	} else if m.Cfg.NumCommunities != pm.Cfg.NumCommunities ||
		m.Cfg.NumTopics != pm.Cfg.NumTopics ||
		m.NumWords != pm.NumWords ||
		m.NumUsers < pm.NumUsers {
		reason = reasonShape
	}
	if reason != "" {
		s := newSnapshot(m, vocab, prev.Name, 0, prev.opts)
		s.build.Reason = reason
		return s
	}
	dirty := normalizeDirty(delta.Users, pm.NumUsers)
	s := &Snapshot{
		Model: m,
		Vocab: vocab,
		Name:  prev.Name,
		opts:  prev.opts,
		// Openness, the η bases and the log tables read Θ, η and Φ only,
		// which a patch leaves as they were.
		openness: prev.openness,
		etaBase:  prev.etaBase,
		logTheta: prev.logTheta,
		logPhi:   prev.logPhi,
		labels:   prev.labels,
		users:    patchUserIndex(prev.users, m, dirty),
		build:    BuildInfo{Kind: BuildPatched, Users: len(dirty) + m.NumUsers - pm.NumUsers},
	}
	if vocab != prev.Vocab {
		s.labels = communityLabels(m, vocab)
	}
	s.refs.Store(1)
	s.heapBytes = s.derivedBytes()
	return s
}

func communityLabels(m *core.Model, vocab *corpus.Vocabulary) []string {
	labels := make([]string, m.Cfg.NumCommunities)
	for c := range labels {
		labels[c] = apps.CommunityLabel(m, vocab, c, 3)
	}
	return labels
}

// normalizeDirty sorts, dedups, and clips the explicit dirty-user set to
// ids below the previous snapshot's user count (larger ids are the
// implicit appended range).
func normalizeDirty(users []int32, prevUsers int) []int32 {
	out := make([]int32, 0, len(users))
	for _, u := range users {
		if u >= 0 && int(u) < prevUsers {
			out = append(out, u)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// attach hands the snapshot ownership of the file storage its matrices
// alias: closer is closed when the last reference goes, and mapped and
// mappedBytes say whether (and how much of) the backing is a real kernel
// mapping. Must run before the snapshot is published. On the aligned-copy
// fallback (no real kernel mapping) the matrices stay accounted as heap —
// which they are.
func (s *Snapshot) attach(closer io.Closer, mapped bool, mappedBytes int64) {
	s.closer = closer
	s.mapped = mapped
	if mapped {
		s.mappedBytes = mappedBytes
		s.heapBytes -= s.Model.MatrixBytes()
	}
}

// tryAcquire pins the snapshot unless it is already fully released.
func (s *Snapshot) tryAcquire() bool {
	for {
		n := s.refs.Load()
		if n <= 0 {
			return false
		}
		if s.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// Release drops one reference. When the last reference goes, the mapped
// backing (if any) is closed — after which the snapshot's matrices must
// not be touched. Engine.AcquireNamed hands out the matching acquire.
func (s *Snapshot) Release() {
	if s.refs.Add(-1) == 0 && s.closer != nil {
		s.closer.Close()
	}
}

// Label returns community c's display label ("data database search"
// style, or "cNN" without a vocabulary), precomputed per snapshot.
func (s *Snapshot) Label(c int) string { return s.labels[c] }

// Members returns the users having community c among their top-k
// memberships (k = memberTopK), as global ids. On a shard
// snapshot the list covers only the owned user range.
func (s *Snapshot) Members(c int) []int { return s.members(c, s.users.memberCount(c)) }

// members returns community c's first n members, ascending, as global ids.
func (s *Snapshot) members(c, n int) []int {
	ms := s.users.members(c, n)
	for i, u := range ms {
		ms[i] = s.globalUser(u)
	}
	return ms
}

// Openness returns community c's openness count (above-average diffusion
// edges shared with other communities).
func (s *Snapshot) Openness(c int) int { return s.openness[c] }

// Mapped reports whether the snapshot's matrices alias a file mapping.
func (s *Snapshot) Mapped() bool { return s.mapped }

// Endpoint identifiers for the latency histograms.
const (
	epCommunities = iota
	epCommunity
	epMembership
	epRank
	epDiffusion
	epFoldIn
	epReload
	epStats
	epQuality
	epMetrics
	epPiRow
	epCount
)

var endpointNames = [epCount]string{
	"communities", "community", "membership", "rank", "diffusion", "foldin", "reload",
	"stats", "quality", "metrics", "pirow",
}

// EndpointStats is one endpoint's latency digest: the cumulative counters
// plus p50/p95/p99 from the shared log-bucketed histogram (internal/hist)
// — the same geometry the load generator and /metrics report, so the
// numbers line up across all three surfaces.
type EndpointStats struct {
	Count       uint64 `json:"count"`
	Errors      uint64 `json:"errors"`
	TotalMicros uint64 `json:"totalMicros"`
	MaxMicros   uint64 `json:"maxMicros"`
	P50Micros   uint64 `json:"p50Micros"`
	P95Micros   uint64 `json:"p95Micros"`
	P99Micros   uint64 `json:"p99Micros"`
}

// slot is one named snapshot holder.
type slot struct {
	snap atomic.Pointer[Snapshot]
}

// Engine is the concurrent query engine: a set of named snapshot slots
// plus the shared fold-in worker pool and latency counters. All methods
// are safe for concurrent use, including concurrently with SwapNamed,
// PromoteGroup, LoadGeneration or DropSnapshot on any slot.
type Engine struct {
	opts Options

	// mu guards the slots map's shape; the snapshots themselves swap
	// through per-slot atomic pointers, so readers hold mu only for the
	// map lookup.
	mu    sync.RWMutex
	slots map[string]*slot

	version atomic.Uint64
	// swapMu serializes writers (publish, DropSnapshot, Close); readers
	// never take it.
	swapMu sync.Mutex

	// draining is the one-way drain latch (Drain/Draining): advertised on
	// /healthz and /api/generation so routers deprioritize this replica.
	draining atomic.Bool

	lat [epCount]hist.Atomic

	// Snapshot-construction accounting (buildSnapshot): builds by kind and
	// their latency, whether or not the snapshot was then promoted.
	patchedBuilds, fullBuilds atomic.Uint64
	buildLat                  hist.Atomic

	// foldConsidered / foldEvaluated sum the lazy-draw counters of every
	// fold-in request served (see FoldInLazyStats).
	foldConsidered, foldEvaluated atomic.Uint64

	// ingestStats, when set (SetIngestStats), contributes the streaming
	// freshness/lag section of StatsReport; replicaStats
	// (SetReplicaStats) the snapshot fetcher's.
	ingestStats  atomic.Value // of func() any
	replicaStats atomic.Value // of func() any

	// qualityMu guards the bounded per-snapshot quality report history
	// and the per-snapshot baseline comparison row.
	qualityMu       sync.Mutex
	qualityHist     map[string][]*quality.Report
	qualityBaseline map[string]*quality.Report

	// collectorsMu guards extra /metrics contributors (AddMetricsCollector).
	collectorsMu sync.Mutex
	collectors   []func(io.Writer)

	foldJobs  chan foldJob
	closeOnce sync.Once
}

// NewMulti builds an engine with no snapshots; load them with SwapNamed,
// PromoteGroup or LoadGeneration under chosen names.
func NewMulti(opts Options) *Engine {
	e := &Engine{
		opts:            opts.withDefaults(),
		slots:           make(map[string]*slot),
		qualityHist:     make(map[string][]*quality.Report),
		qualityBaseline: make(map[string]*quality.Report),
	}
	e.foldJobs = make(chan foldJob)
	for i := 0; i < e.opts.FoldInWorkers; i++ {
		go e.foldWorker()
	}
	return e
}

// New builds an engine serving m as the default snapshot (vocab may be
// nil: numeric labels only, free-text queries disabled) and starts its
// fold-in worker pool.
func New(m *core.Model, vocab *corpus.Vocabulary, opts Options) *Engine {
	e := NewMulti(opts)
	e.SwapNamed(DefaultSnapshot, m, vocab)
	return e
}

// Close stops the fold-in worker pool and drops every snapshot slot
// (releasing the engine's references; mapped backings unmap once their
// last in-flight query finishes). The engine must not be used after
// Close.
func (e *Engine) Close() {
	e.closeOnce.Do(func() {
		close(e.foldJobs)
		e.swapMu.Lock()
		defer e.swapMu.Unlock()
		e.mu.Lock()
		slots := e.slots
		e.slots = make(map[string]*slot)
		e.mu.Unlock()
		for _, sl := range slots {
			if s := sl.snap.Swap(nil); s != nil {
				s.Release()
			}
		}
	})
}

// ErrNoSnapshot reports a query against a snapshot name the engine does
// not hold.
type ErrNoSnapshot struct{ Name string }

func (e *ErrNoSnapshot) Error() string {
	return fmt.Sprintf("serve: no snapshot named %q", e.Name)
}

// ErrNotOwned reports a user-scoped query against a shard snapshot that
// does not own the user — a misroute, not a bad request. The HTTP layer
// answers 421 (Misdirected Request) so a shard-aware router can retry
// against the owning replica; Shard tells the caller what range this
// replica does own.
type ErrNotOwned struct {
	User  int
	Shard shard.Info
}

func (e *ErrNotOwned) Error() string {
	return fmt.Sprintf("serve: user %d not owned by shard %d/%d (users [%d, %d))",
		e.User, e.Shard.Index, e.Shard.Count, e.Shard.UserLo, e.Shard.UserHi)
}

// localUser maps a global user id to the snapshot's Π row index: the
// identity for full snapshots, a range-checked offset for shard
// snapshots (non-owned ids answer ErrNotOwned).
func (s *Snapshot) localUser(u int) (int, error) {
	if s.Shard == nil {
		if u < 0 || u >= s.Model.NumUsers {
			return 0, fmt.Errorf("serve: user %d out of range [0, %d)", u, s.Model.NumUsers)
		}
		return u, nil
	}
	if u < 0 || u >= s.Shard.TotalUsers {
		return 0, fmt.Errorf("serve: user %d out of range [0, %d)", u, s.Shard.TotalUsers)
	}
	if !s.Shard.Owns(u) {
		return 0, &ErrNotOwned{User: u, Shard: *s.Shard}
	}
	return u - s.Shard.UserLo, nil
}

// globalUser maps a local Π row index back to the global id space.
func (s *Snapshot) globalUser(local int) int {
	if s.Shard == nil {
		return local
	}
	return local + s.Shard.UserLo
}

// AcquireNamed pins the named snapshot for a sequence of reads and
// returns it with its release func. Every read through the snapshot is
// consistent regardless of concurrent swaps, and for mapped snapshots the
// pin is what keeps the file mapped. Always call release (defer it).
func (e *Engine) AcquireNamed(name string) (*Snapshot, func(), error) {
	for {
		e.mu.RLock()
		sl := e.slots[name]
		e.mu.RUnlock()
		if sl == nil {
			return nil, nil, &ErrNoSnapshot{Name: name}
		}
		s := sl.snap.Load()
		if s == nil {
			return nil, nil, &ErrNoSnapshot{Name: name}
		}
		if s.tryAcquire() {
			return s, s.Release, nil
		}
		// Raced with a swap that released the slot's reference between our
		// load and pin; the slot already points at a newer snapshot.
	}
}

// Names returns the engine's snapshot names, sorted.
func (e *Engine) Names() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	names := make([]string, 0, len(e.slots))
	for name := range e.slots {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// publish installs s as the new snapshot of its named slot, creating the
// slot if needed, and releases the slot's reference on the one it
// replaces.
func (e *Engine) publish(s *Snapshot) uint64 {
	e.swapMu.Lock()
	defer e.swapMu.Unlock()
	s.Version = e.version.Add(1)
	e.mu.Lock()
	sl := e.slots[s.Name]
	if sl == nil {
		sl = &slot{}
		e.slots[s.Name] = sl
	}
	e.mu.Unlock()
	if old := sl.snap.Swap(s); old != nil {
		old.Release()
	}
	return s.Version
}

// SwapNamed atomically replaces (or creates) the named snapshot with an
// in-process model and returns the new version. In-flight queries finish
// on the snapshot they started with.
func (e *Engine) SwapNamed(name string, m *core.Model, vocab *corpus.Vocabulary) uint64 {
	return e.publish(e.buildSnapshot(name, m, vocab, nil, nil))
}

// SwapMapped installs a model opened by store.Open, taking ownership of
// mm. It stays for the benchmark harness, which predates PromoteGroup.
func (e *Engine) SwapMapped(name string, mm *store.MappedModel, vocab *corpus.Vocabulary) uint64 {
	s := e.buildSnapshot(name, mm.Model, vocab, nil, nil)
	s.attach(mm, mm.Mapped(), mm.MappedBytes())
	return e.publish(s)
}

// PromoteGroup, the one install for mapped files, installs a checked file
// group (shard.OpenGroup, shard.OpenWhole) carrying gen as the named
// snapshot and returns its version and how its derived state was built. A
// shard of a several-shard group serves local Π rows with its identity
// attached, so user-scoped queries translate global ids and answer
// ErrNotOwned outside the owned range; a one-shard group serves as the
// full snapshot it is. delta is what changed since the slot's snapshot,
// or nil to derive it from the bytes. The engine takes ownership of g: its
// mappings close when the snapshot retires and the last query drains.
func (e *Engine) PromoteGroup(name string, g *shard.Group, vocab *corpus.Vocabulary, gen uint64, delta *Delta) (version uint64, build BuildInfo) {
	sh := &g.Info
	if g.Info.Count == 1 {
		sh = nil
	}
	s := e.buildSnapshot(name, g.Model, vocab, delta, sh)
	s.Generation = gen
	s.attach(g, g.Mapped, g.MappedBytes)
	return e.publish(s), s.build
}

// PromoteShardGroup is PromoteGroup without a delta, for the benchmark
// harness, which predates it.
func (e *Engine) PromoteShardGroup(name string, g *shard.Group, vocab *corpus.Vocabulary, gen uint64) uint64 {
	v, _ := e.PromoteGroup(name, g, vocab, gen, nil)
	return v
}

// Drain flips the engine into draining mode: /healthz advertises it so
// routers stop sending new owned-user work here, while in-flight and
// straggler queries keep being answered. Draining is one-way — restart
// the process to rejoin a fleet.
func (e *Engine) Drain() { e.draining.Store(true) }

// Draining reports whether Drain was called.
func (e *Engine) Draining() bool { return e.draining.Load() }

// DropSnapshot removes the named slot, releasing the engine's reference.
// In-flight queries finish unharmed; new queries for the name fail with
// ErrNoSnapshot.
func (e *Engine) DropSnapshot(name string) bool {
	e.swapMu.Lock()
	defer e.swapMu.Unlock()
	e.mu.Lock()
	sl := e.slots[name]
	delete(e.slots, name)
	e.mu.Unlock()
	if sl == nil {
		return false
	}
	if s := sl.snap.Swap(nil); s != nil {
		s.Release()
	}
	return true
}

// LoadGeneration loads the model file at modelPath and hot-swaps it into
// the named slot (created if absent) with an already-parsed vocabulary
// (nil disables free-text queries). A v2 file is served zero-copy from
// its mapping, once every payload CRC has been checked over that same
// mapping (shard.OpenWhole); a legacy v1 or JSON file is copied onto the
// heap (store.LoadFile). The promoted snapshot, and every result it
// answers, carries gen, so freshness compares across replicas serving the
// same publisher; gen 0 marks a snapshot that is not generation-tracked.
// On error the serving state is left untouched.
func (e *Engine) LoadGeneration(name, modelPath string, vocab *corpus.Vocabulary, gen uint64) (version uint64, err error) {
	start := time.Now()
	defer func() { e.lat[epReload].Observe(time.Since(start), err) }()
	g, err := shard.OpenWhole(modelPath)
	if err == nil {
		version, _ = e.PromoteGroup(name, g, vocab, gen, nil)
		return version, nil
	}
	if !errors.Is(err, store.ErrNotV2) {
		return 0, err
	}
	m, err := store.LoadFile(modelPath)
	if err != nil {
		return 0, err
	}
	s := e.buildSnapshot(name, m, vocab, nil, nil)
	s.Generation = gen
	return e.publish(s), nil
}

// Stats returns the per-endpoint latency digests, keyed by endpoint name.
func (e *Engine) Stats() map[string]EndpointStats {
	out := make(map[string]EndpointStats, epCount)
	for i := 0; i < epCount; i++ {
		h := e.lat[i].Snapshot()
		out[endpointNames[i]] = EndpointStats{
			Count:       h.Count,
			Errors:      h.Errs,
			TotalMicros: h.TotalNS / 1e3,
			MaxMicros:   h.MaxNS / 1e3,
			P50Micros:   uint64(h.Quantile(0.50).Microseconds()),
			P95Micros:   uint64(h.Quantile(0.95).Microseconds()),
			P99Micros:   uint64(h.Quantile(0.99).Microseconds()),
		}
	}
	return out
}

// SnapshotStats is one snapshot's resource accounting.
type SnapshotStats struct {
	Name string `json:"name"`
	// Version is the engine's process-local swap counter; Generation the
	// publisher-assigned generation (0 when not generation-tracked),
	// comparable across replicas.
	Version    uint64 `json:"version"`
	Generation uint64 `json:"generation,omitempty"`
	Users      int    `json:"users"`
	Words      int    `json:"words"`
	// Mapped reports a real file mapping; MappedBytes is its size (0 for
	// heap snapshots), HeapBytes the estimated heap footprint (matrices
	// if owned, plus caches and indexes).
	Mapped      bool  `json:"mapped"`
	MappedBytes int64 `json:"mappedBytes"`
	HeapBytes   int64 `json:"heapBytes"`
	// Refs is the number of in-flight query pins (0 = idle; the slot's
	// own reference and the stats reader's pin are excluded).
	Refs int64 `json:"refs"`
	// Shard is the owned user range for shard snapshots (nil for full
	// snapshots) — the topology routers read off /api/snapshots.
	Shard *shard.Info `json:"shard,omitempty"`
	// Build says how the live snapshot's indexes were constructed: patched
	// from its predecessor or built in full (and why), and what it cost.
	Build BuildInfo `json:"build"`
}

// SnapshotsInfo reports every live snapshot's accounting, sorted by name.
func (e *Engine) SnapshotsInfo() []SnapshotStats {
	var out []SnapshotStats
	for _, name := range e.Names() {
		s, release, err := e.AcquireNamed(name)
		if err != nil {
			continue
		}
		out = append(out, SnapshotStats{
			Name:        s.Name,
			Version:     s.Version,
			Generation:  s.Generation,
			Users:       s.Model.NumUsers,
			Words:       s.Model.NumWords,
			Mapped:      s.mapped,
			MappedBytes: s.mappedBytes,
			HeapBytes:   s.heapBytes,
			Refs:        s.refs.Load() - 2, // exclude the slot's ref and our own pin
			Shard:       s.Shard,
			Build:       s.build,
		})
		release()
	}
	return out
}

// StatsReport is the full /api/stats payload: endpoint latency counters,
// per-snapshot memory accounting, process RSS, and — when a streaming
// updater is attached — its freshness/lag gauge.
type StatsReport struct {
	Endpoints map[string]EndpointStats `json:"endpoints"`
	Snapshots []SnapshotStats          `json:"snapshots"`
	// ProcessRSSBytes is the process's resident set size (0 where the
	// platform offers no cheap reading).
	ProcessRSSBytes int64 `json:"processRSSBytes"`
	// FoldInLazy reports how much of their candidate sets the fold-in
	// draws computed, present once a fold-in was served.
	FoldInLazy *FoldInLazyStats `json:"foldinLazy,omitempty"`
	// Quality is the latest structural quality report per snapshot slot
	// (the /api/quality history's head), present once any were recorded.
	Quality map[string]*quality.Report `json:"quality,omitempty"`
	// Ingest is the streaming updater's status (generation, pending-event
	// lag, last publish), present only on servers running live ingest.
	Ingest any `json:"ingest,omitempty"`
	// Replica is the snapshot fetcher's status (source, promoted
	// generation, fetch/verify counters), present only on replicas that
	// pull generations from a publisher (serve.Fetcher).
	Replica any `json:"replica,omitempty"`
}

// SetIngestStats attaches a provider whose value is embedded as the
// "ingest" section of every StatsReport — how cmd/cpd-serve surfaces the
// stream updater's freshness gauge on /api/stats without this package
// depending on internal/stream. nil detaches.
func (e *Engine) SetIngestStats(fn func() any) {
	e.ingestStats.Store(fn)
}

// SetReplicaStats attaches a provider whose value is embedded as the
// "replica" section of every StatsReport — the fetcher counterpart of
// SetIngestStats. nil detaches.
func (e *Engine) SetReplicaStats(fn func() any) {
	e.replicaStats.Store(fn)
}

// FoldInLazyStats is the fold-in kernel's lazy Gumbel-max accounting over
// every request served: the topic and community candidates its draws were
// offered, those whose Gumbel value (and, with friends, friend terms) were
// actually computed, and their ratio. A share drifting toward 1 means the
// bounds stopped pruning — flat posteriors, or friend rows whose range
// makes the bound-then-refine bounds loose — and fold-in latency follows.
type FoldInLazyStats struct {
	Considered     uint64  `json:"considered"`
	Evaluated      uint64  `json:"evaluated"`
	EvaluatedShare float64 `json:"evaluatedShare"`
}

// FoldInLazy returns the fold-in lazy-draw counters.
func (e *Engine) FoldInLazy() rng.LazyStats {
	return rng.LazyStats{Considered: e.foldConsidered.Load(), Evaluated: e.foldEvaluated.Load()}
}

// StatsReport assembles the full stats payload.
func (e *Engine) StatsReport() *StatsReport {
	r := &StatsReport{
		Endpoints:       e.Stats(),
		Snapshots:       e.SnapshotsInfo(),
		ProcessRSSBytes: ProcessRSS(),
		Quality:         e.latestQuality(),
	}
	if lazy := e.FoldInLazy(); lazy.Considered > 0 {
		r.FoldInLazy = &FoldInLazyStats{Considered: lazy.Considered, Evaluated: lazy.Evaluated, EvaluatedShare: lazy.Share()}
	}
	if fn, ok := e.ingestStats.Load().(func() any); ok && fn != nil {
		r.Ingest = fn()
	}
	if fn, ok := e.replicaStats.Load().(func() any); ok && fn != nil {
		r.Replica = fn()
	}
	return r
}

// --- typed query API ----------------------------------------------------

// CommunityWeight is one (community, weight) membership entry.
type CommunityWeight struct {
	Community int     `json:"community"`
	Weight    float64 `json:"weight"`
}

// CommunitySummary is the list-view payload of one community.
type CommunitySummary struct {
	ID       int     `json:"id"`
	Label    string  `json:"label"`
	Members  int     `json:"members"`
	Openness int     `json:"openness"`
	SelfDiff float64 `json:"selfDiffusion"`
}

// TopicShare is one entry of a community's content profile.
type TopicShare struct {
	Topic int      `json:"topic"`
	Share float64  `json:"share"`
	Words []string `json:"words,omitempty"`
}

// FlowSummary is one topic-specific community-to-community diffusion flow.
type FlowSummary struct {
	Community int     `json:"community"`
	Topic     int     `json:"topic"`
	Strength  float64 `json:"strength"`
}

// CommunityDetail is the full profile triple of one community.
type CommunityDetail struct {
	CommunitySummary
	TopTopics     []TopicShare  `json:"topTopics"`
	TopAttributes []int         `json:"topAttributes,omitempty"`
	OutFlows      []FlowSummary `json:"outFlows"`
	InFlows       []FlowSummary `json:"inFlows"`
	MemberSample  []int         `json:"memberSample"`
}

// MembershipResult is a user's community membership answer.
type MembershipResult struct {
	User        int               `json:"user"`
	Version     uint64            `json:"version"`
	Generation  uint64            `json:"generation,omitempty"`
	Communities []CommunityWeight `json:"communities"`
}

// RankEntry is one Eq. 19 ranking entry.
type RankEntry struct {
	Community int     `json:"community"`
	Label     string  `json:"label"`
	Score     float64 `json:"score"`
	Members   int     `json:"members"`
}

// RankResult is the answer to a profile-driven ranking query.
type RankResult struct {
	Version    uint64      `json:"version"`
	Generation uint64      `json:"generation,omitempty"`
	Entries    []RankEntry `json:"entries"`
}

// DiffusionResult is a per-topic diffusion probability answer (Eq. 5's
// sigmoid without the individual-preference features, which need pairwise
// graph context the serving layer does not hold).
type DiffusionResult struct {
	Version    uint64  `json:"version"`
	Generation uint64  `json:"generation,omitempty"`
	Logit      float64 `json:"logit"`
	Prob       float64 `json:"prob"`
}

func (s *Snapshot) summary(c int) CommunitySummary {
	m := s.Model
	var selfD float64
	for z := 0; z < m.Cfg.NumTopics; z++ {
		selfD += m.Eta.At(c, c, z)
	}
	return CommunitySummary{
		ID:       c,
		Label:    s.labels[c],
		Members:  s.users.memberCount(c),
		Openness: s.openness[c],
		SelfDiff: selfD,
	}
}

// Communities returns every community's summary, in community-id order.
func (s *Snapshot) Communities() []CommunitySummary {
	out := make([]CommunitySummary, s.Model.Cfg.NumCommunities)
	for c := range out {
		out[c] = s.summary(c)
	}
	return out
}

// Community returns the full profile of one community.
func (s *Snapshot) Community(c int) (*CommunityDetail, error) {
	m := s.Model
	if c < 0 || c >= m.Cfg.NumCommunities {
		return nil, fmt.Errorf("serve: community %d out of range [0, %d)", c, m.Cfg.NumCommunities)
	}
	d := &CommunityDetail{CommunitySummary: s.summary(c)}
	theta := m.Theta.Row(c)
	for _, z := range mathx.TopKIndices(theta, 3) {
		ts := TopicShare{Topic: z, Share: theta[z]}
		if s.Vocab != nil {
			for _, wid := range m.TopWords(z, 4) {
				ts.Words = append(ts.Words, s.Vocab.Word(wid))
			}
		}
		d.TopTopics = append(d.TopTopics, ts)
	}
	d.TopAttributes = m.TopAttributes(c, 5)
	d.OutFlows, d.InFlows = topFlows(m, s.etaBase, c, 5)
	d.MemberSample = s.members(c, 10)
	return d, nil
}

// topFlows lists the k strongest topic-specific flows out of and into c,
// strongest first (ties by community, then topic): the merged top k of
// apps.TopDiffusionTopics over c's pairs, so a cell at its source's η base
// (bases[source]) is not listed and a community with none answers empty
// lists, not null.
func topFlows(m *core.Model, bases []float64, c, k int) (outs, ins []FlowSummary) {
	outs, ins = []FlowSummary{}, []FlowSummary{}
	for c2 := range m.Cfg.NumCommunities {
		for _, f := range apps.TopDiffusionTopicsAbove(m, bases[c], c, c2, k) {
			outs = append(outs, FlowSummary{c2, f.Community, f.Score})
		}
		for _, f := range apps.TopDiffusionTopicsAbove(m, bases[c2], c2, c, k) {
			ins = append(ins, FlowSummary{c2, f.Community, f.Score})
		}
	}
	top := func(fs []FlowSummary) []FlowSummary {
		slices.SortStableFunc(fs, func(x, y FlowSummary) int { return cmp.Compare(y.Strength, x.Strength) })
		return fs[:min(k, len(fs))]
	}
	return top(outs), top(ins)
}

// Membership returns user u's top-k community memberships, served from
// the user index when k is within the precomputed depth.
func (s *Snapshot) Membership(u, k int) (*MembershipResult, error) {
	m := s.Model
	local, err := s.localUser(u)
	if err != nil {
		return nil, err
	}
	if k <= 0 {
		k = memberTopK
	}
	row := m.Pi.Row(local)
	res := &MembershipResult{User: u, Version: s.Version, Generation: s.Generation}
	if comms, ok := s.users.top(local, k); ok {
		if len(comms) > 0 {
			res.Communities = make([]CommunityWeight, 0, len(comms))
		}
		for _, c := range comms {
			res.Communities = append(res.Communities, CommunityWeight{Community: int(c), Weight: row[c]})
		}
		return res, nil
	}
	comms := m.TopCommunities(local, k)
	if len(comms) > 0 {
		res.Communities = make([]CommunityWeight, 0, len(comms))
	}
	for _, c := range comms {
		res.Communities = append(res.Communities, CommunityWeight{Community: c, Weight: row[c]})
	}
	return res, nil
}

// PiRow returns an owned user's membership row — the hydration endpoint
// shard-aware routers read to carry a row to another shard's replica for
// cross-shard diffusion and fold-in. The returned slice aliases the
// snapshot and must not outlive the caller's pin.
func (s *Snapshot) PiRow(u int) ([]float64, error) {
	local, err := s.localUser(u)
	if err != nil {
		return nil, err
	}
	return s.Model.Pi.Row(local), nil
}

// rowFor returns user u's membership row: the explicit row when one is
// supplied, the snapshot's own (owned) row otherwise. A supplied row holds
// the bytes of its owner's Π row, so scoring it is bit-identical to a full
// node.
func (s *Snapshot) rowFor(u int, row []float64) ([]float64, error) {
	m := s.Model
	if row != nil {
		if len(row) != m.Cfg.NumCommunities {
			return nil, fmt.Errorf("serve: supplied membership row has %d entries, model has %d communities", len(row), m.Cfg.NumCommunities)
		}
		return row, nil
	}
	local, err := s.localUser(u)
	if err != nil {
		return nil, err
	}
	return m.Pi.Row(local), nil
}

// DiffusionRows returns the probability that user req.U diffuses user
// req.V's content on topic req.Topic in time bucket req.Bucket (-1 skips
// the popularity factor). A supplied VRow stands in for v's row, which
// is how a shard-aware router scores a pair whose v another shard owns:
// it fetches v's row from v's owner (PiRow) and posts it here with the
// owner of u. A row from another generation than the snapshot's is
// refused with ErrGenerationConflict; then the checks run in the order
// u, v, topic, whether or not a row was supplied.
func (s *Snapshot) DiffusionRows(req *DiffusionRowsRequest) (*DiffusionResult, error) {
	m := s.Model
	if req.RowsGeneration != 0 && req.RowsGeneration != s.Generation {
		return nil, &ErrGenerationConflict{Rows: req.RowsGeneration, Serving: s.Generation}
	}
	urow, err := s.PiRow(req.U)
	if err != nil {
		return nil, err
	}
	vrow, err := s.rowFor(req.V, req.VRow)
	if err != nil {
		return nil, err
	}
	if z := req.Topic; z < 0 || z >= m.Cfg.NumTopics {
		return nil, fmt.Errorf("serve: topic %d out of range [0, %d)", z, m.Cfg.NumTopics)
	}
	logit := m.DiffusionLogitTopicRows(urow, vrow, req.Topic, req.Bucket, nil)
	return &DiffusionResult{Version: s.Version, Generation: s.Generation, Logit: logit, Prob: mathx.Sigmoid(logit)}, nil
}

// Rank answers an Eq. 19 profile-driven ranking query (a bag of word ids),
// returning the top-k communities. The scores are bit-identical to
// core.Model.RankCommunities: the query's log topic posterior is the sum
// of its words' |Z|-runs of logPhi — the expression core evaluates, added
// in the same order — and RankFromLogPosterior does the rest, so a query
// costs |q|·|Z| additions, one softmax and |C|·|Z| multiply-adds.
func (s *Snapshot) Rank(query []int32, k int) (*RankResult, error) {
	m := s.Model
	if len(query) == 0 {
		return nil, fmt.Errorf("serve: empty rank query")
	}
	for _, w := range query {
		if w < 0 || int(w) >= m.NumWords {
			return nil, fmt.Errorf("serve: query word %d out of range [0, %d)", w, m.NumWords)
		}
	}
	C, Z := m.Cfg.NumCommunities, m.Cfg.NumTopics
	if k <= 0 || k > C {
		k = C
	}
	buf := make([]float64, C+Z)
	scores, logq := buf[:C], buf[C:]
	for _, w := range query {
		for z, v := range s.logPhi[int(w)*Z:][:Z] {
			logq[z] += v
		}
	}
	m.RankFromLogPosterior(scores, logq)
	res := &RankResult{Version: s.Version, Generation: s.Generation}
	top := mathx.TopKIndices(scores, k)
	if len(top) > 0 {
		res.Entries = make([]RankEntry, 0, len(top))
	}
	for _, c := range top {
		res.Entries = append(res.Entries, RankEntry{
			Community: c,
			Label:     s.labels[c],
			Score:     scores[c],
			Members:   s.users.memberCount(c),
		})
	}
	return res, nil
}

// ErrNoVocabulary reports a free-text query against a snapshot without a
// vocabulary.
var ErrNoVocabulary = fmt.Errorf("serve: snapshot has no vocabulary; free-text queries disabled")

// queryPipeline tokenizes free-text rank queries: tokens pass through
// unstemmed and unfiltered, and a one-word query is kept.
var queryPipeline = corpus.Pipeline{MinDocTokens: 1}

// RankText tokenizes a free-text query through queryPipeline and the
// snapshot's vocabulary (unknown words dropped) and ranks communities.
func (s *Snapshot) RankText(query string, k int) (*RankResult, error) {
	if s.Vocab == nil {
		return nil, ErrNoVocabulary
	}
	var ids []int32
	for _, tok := range queryPipeline.Process(query) {
		if id, ok := s.Vocab.ID(tok); ok {
			ids = append(ids, int32(id))
		}
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("serve: no query token of %q is in the vocabulary", query)
	}
	return s.Rank(ids, k)
}

// --- engine-level instrumented wrappers ---------------------------------

// onSnapshot runs fn against a pinned named snapshot with latency
// accounting on the given endpoint counter.
func (e *Engine) onSnapshot(ep int, name string, fn func(*Snapshot) error) error {
	start := time.Now()
	var err error
	defer func() { e.lat[ep].Observe(time.Since(start), err) }()
	s, release, aerr := e.AcquireNamed(name)
	if aerr != nil {
		err = aerr
		return err
	}
	defer release()
	err = fn(s)
	return err
}

// CommunitiesIn returns every community's summary from a named snapshot.
func (e *Engine) CommunitiesIn(name string) (out []CommunitySummary, err error) {
	err = e.onSnapshot(epCommunities, name, func(s *Snapshot) error {
		out = s.Communities()
		return nil
	})
	return out, err
}

// CommunityIn returns the full profile of one community from a named
// snapshot.
func (e *Engine) CommunityIn(name string, c int) (detail *CommunityDetail, err error) {
	err = e.onSnapshot(epCommunity, name, func(s *Snapshot) error {
		detail, err = s.Community(c)
		return err
	})
	return detail, err
}

// MembershipIn returns user u's top-k community memberships from a named
// snapshot.
func (e *Engine) MembershipIn(name string, u, k int) (res *MembershipResult, err error) {
	err = e.onSnapshot(epMembership, name, func(s *Snapshot) error {
		res, err = s.Membership(u, k)
		return err
	})
	return res, err
}

// DiffusionIn returns the probability that user u diffuses user v's
// content on topic z in time bucket b, from a named snapshot (b = -1 skips
// the popularity factor).
func (e *Engine) DiffusionIn(name string, u, v, z, b int) (*DiffusionResult, error) {
	return e.DiffusionRowsIn(name, &DiffusionRowsRequest{U: u, V: v, Topic: z, Bucket: b})
}

// RankIn answers an Eq. 19 ranking query from a named snapshot
// (Snapshot.Rank: the scores of core.Model.RankCommunities, bit for bit).
func (e *Engine) RankIn(name string, query []int32, k int) (res *RankResult, err error) {
	err = e.onSnapshot(epRank, name, func(s *Snapshot) error {
		res, err = s.Rank(query, k)
		return err
	})
	return res, err
}

// RankTextIn tokenizes a free-text query and ranks communities in a named
// snapshot.
func (e *Engine) RankTextIn(name, query string, k int) (res *RankResult, err error) {
	err = e.onSnapshot(epRank, name, func(s *Snapshot) error {
		res, err = s.RankText(query, k)
		return err
	})
	return res, err
}

// PiRowResult is the /api/pirow payload: one owned user's membership row
// plus the generation it came from, so the consumer can detect a
// mid-rollout generation mismatch.
type PiRowResult struct {
	User       int       `json:"user"`
	Version    uint64    `json:"version"`
	Generation uint64    `json:"generation,omitempty"`
	Row        []float64 `json:"row"`
}

// PiRowIn returns an owned user's membership row from a named snapshot
// (copied — safe after release).
func (e *Engine) PiRowIn(name string, u int) (res *PiRowResult, err error) {
	err = e.onSnapshot(epPiRow, name, func(s *Snapshot) error {
		row, rerr := s.PiRow(u)
		if rerr != nil {
			return rerr
		}
		res = &PiRowResult{User: u, Version: s.Version, Generation: s.Generation, Row: slices.Clone(row)}
		return nil
	})
	return res, err
}

// DiffusionRowsIn is DiffusionRows against a named snapshot.
func (e *Engine) DiffusionRowsIn(name string, req *DiffusionRowsRequest) (res *DiffusionResult, err error) {
	err = e.onSnapshot(epDiffusion, name, func(s *Snapshot) error {
		res, err = s.DiffusionRows(req)
		return err
	})
	return res, err
}

package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/serve"
	"repro/internal/socialgraph"
	"repro/internal/stream"
)

// StreamPreset names one streaming-ingest regime: how much of a base
// preset's population is trained into the frozen base model, in what
// pattern the rest arrives as live events, and which invariants the run
// must uphold.
type StreamPreset struct {
	Name        string
	Description string

	// Base is the underlying population preset (graph, truth, training
	// config); BaseFraction of its users form the trained base model, the
	// rest arrive through the journal.
	Base         Preset
	BaseFraction float64

	// BatchEvents is the ingest batch size (1 = strict event-by-event
	// drip); WindowEvents the updater's publish window.
	BatchEvents  int
	WindowEvents int

	// HoldoutDocs streams this fraction of each base user's documents as
	// live add-doc events instead of training on them — the "changed
	// trained user" churn regime.
	HoldoutDocs float64

	// GibbsEvery > 0 runs the resumable delta-Gibbs refinement every
	// N publishes (disables the replay-equals-batch check, which only
	// holds for pure fold-in).
	GibbsEvery int

	// QualityEvery > 0 scores every N-th published generation with the
	// structural quality metrics (internal/quality), PLP baseline
	// included; the run asserts reports accumulated with drift tracked
	// between consecutive scored generations.
	QualityEvery int

	// MinNMI floors the full-population NMI (base + streamed users'
	// top communities vs. the planted truth) after all events land.
	MinNMI float64
}

// StreamPresets returns the streaming regimes the regression suite runs.
func StreamPresets() []StreamPreset {
	mk := func(name, desc, from string, f func(*StreamPreset)) StreamPreset {
		bp, err := Lookup(from)
		if err != nil {
			panic(err)
		}
		sp := StreamPreset{
			Name: name, Description: desc, Base: bp,
			BaseFraction: 0.75, BatchEvents: 1, WindowEvents: 8,
			MinNMI: 0.30,
		}
		if f != nil {
			f(&sp)
		}
		return sp
	}
	return []StreamPreset{
		mk("steady-drip",
			"one event at a time, publish every 8: the always-on trickle; pins replay-equals-batch and quality scoring",
			"uniform", func(sp *StreamPreset) {
				sp.QualityEvery = 4
			}),
		mk("burst",
			"whole-population burst in big batches, one publish window: the backfill shape",
			"power-law", func(sp *StreamPreset) {
				sp.BatchEvents = 64
				sp.WindowEvents = 256
			}),
		mk("user-churn",
			"new users plus fresh documents on trained users, delta-Gibbs every 2 publishes",
			"disjoint", func(sp *StreamPreset) {
				sp.HoldoutDocs = 0.3
				sp.BatchEvents = 16
				sp.WindowEvents = 32
				sp.GibbsEvery = 2
				sp.MinNMI = 0.35
			}),
	}
}

// LookupStream resolves a streaming preset by name.
func LookupStream(name string) (StreamPreset, error) {
	for _, p := range StreamPresets() {
		if p.Name == name {
			return p, nil
		}
	}
	var names []string
	for _, p := range StreamPresets() {
		names = append(names, p.Name)
	}
	return StreamPreset{}, fmt.Errorf("scenario: unknown streaming preset %q (have %v)", name, names)
}

// StreamMetrics is one streaming run's end-to-end measurement.
type StreamMetrics struct {
	Preset       string `json:"preset"`
	BaseUsers    int    `json:"baseUsers"`
	TotalUsers   int    `json:"totalUsers"`
	Events       int    `json:"events"`
	SkippedDiffs int    `json:"skippedDiffs"`

	Publishes   uint64 `json:"publishes"`
	GibbsPasses uint64 `json:"gibbsPasses"`
	QualityRuns uint64 `json:"qualityRuns"`
	// IncrementalPublishes counts the publishes that took the O(changed)
	// path (patched model and indexes) rather than a full rebuild; the
	// run verifies these serve bit-identically to a shadow updater forced
	// to rebuild everything.
	IncrementalPublishes uint64 `json:"incrementalPublishes"`

	// NMI is detected-vs-planted agreement over the FULL population —
	// trained base users and streamed users together.
	NMI float64 `json:"nmi"`
	// ReadQueries/ReadErrors account the concurrent read hammer that runs
	// during ingest (the under-load half of the freshness invariant).
	ReadQueries uint64 `json:"readQueries"`
	ReadErrors  uint64 `json:"readErrors"`
}

// prefixGraph cuts the full bundle graph down to its first baseUsers
// users, minus held-out documents, returning the subgraph, the
// full-graph→prefix doc id map (-1 = not in the prefix) and the held-out
// doc ids in full-graph order.
func prefixGraph(g *socialgraph.Graph, baseUsers int, holdout map[int32]bool) (*socialgraph.Graph, []int32, []int32) {
	sub := &socialgraph.Graph{NumUsers: baseUsers, NumWords: g.NumWords}
	docMap := make([]int32, len(g.Docs))
	var held []int32
	for i, d := range g.Docs {
		docMap[i] = -1
		if int(d.User) >= baseUsers {
			continue
		}
		if holdout[int32(i)] {
			held = append(held, int32(i))
			continue
		}
		docMap[i] = int32(len(sub.Docs))
		sub.Docs = append(sub.Docs, d)
	}
	for _, f := range g.Friends {
		if int(f.U) < baseUsers && int(f.V) < baseUsers {
			sub.Friends = append(sub.Friends, f)
		}
	}
	for _, e := range g.Diffs {
		if docMap[e.I] >= 0 && docMap[e.J] >= 0 {
			sub.Diffs = append(sub.Diffs, socialgraph.DiffLink{I: docMap[e.I], J: docMap[e.J], T: e.T})
		}
	}
	return sub, docMap, held
}

// buildStreamEvents turns everything the prefix graph lacks into an
// ordered event sequence: held-out base-user documents first-come, then
// the remaining users arriving one by one with their edges, documents and
// diffusions. Diffusion links whose target document never materialized,
// or whose source document already diffused once, are skipped (counted).
func buildStreamEvents(g *socialgraph.Graph, baseUsers int, docMap []int32, held []int32) (evs []stream.Event, skippedDiffs int) {
	// globalID[fullDoc] = the doc's id in the stream numbering (prefix
	// docs keep their prefix id; streamed docs get base+k as they are
	// emitted); -1 = not (yet) present.
	baseDocs := 0
	for _, id := range docMap {
		if id >= 0 {
			baseDocs++
		}
	}
	globalID := make([]int32, len(g.Docs))
	copy(globalID, docMap)
	nextDoc := int32(baseDocs)

	// diffBySource[i] lists the diff links with source doc i.
	diffBySource := make(map[int32][]socialgraph.DiffLink)
	for _, e := range g.Diffs {
		diffBySource[e.I] = append(diffBySource[e.I], e)
	}
	userDocs := make([][]int32, g.NumUsers)
	for i, d := range g.Docs {
		userDocs[d.User] = append(userDocs[d.User], int32(i))
	}

	emitDoc := func(doc int32) {
		d := g.Docs[doc]
		// A document that diffuses an already-present document becomes one
		// diffusion event; everything else is a plain add-doc. Only the
		// first qualifying link is expressible (the event creates the doc).
		links := diffBySource[doc]
		emitted := false
		for _, l := range links {
			if !emitted && globalID[l.J] >= 0 {
				evs = append(evs, stream.Event{Type: stream.EvDiffusion, User: d.User, Target: globalID[l.J], Time: l.T, Words: d.Words})
				emitted = true
			} else {
				skippedDiffs++
			}
		}
		if !emitted {
			evs = append(evs, stream.Event{Type: stream.EvAddDoc, User: d.User, Time: d.Time, Words: d.Words})
		}
		globalID[doc] = nextDoc
		nextDoc++
	}

	// Held-out base-user documents drip in first (the churn half).
	for _, doc := range held {
		emitDoc(doc)
	}
	// Then the streamed users, ascending, each followed by their edges to
	// already-present users and their documents.
	for u := baseUsers; u < g.NumUsers; u++ {
		evs = append(evs, stream.Event{Type: stream.EvAddUser, User: int32(u)})
		// An edge is emitted once its later endpoint materializes.
		for _, f := range g.Friends {
			if int(f.U) == u && int(f.V) < u {
				evs = append(evs, stream.Event{Type: stream.EvAddEdge, User: f.U, Target: f.V})
			} else if int(f.V) == u && int(f.U) < u && int(f.U) >= baseUsers {
				evs = append(evs, stream.Event{Type: stream.EvAddEdge, User: f.V, Target: f.U})
			} else if int(f.V) == u && int(f.U) < baseUsers {
				// Base-user edge to a just-arrived user.
				evs = append(evs, stream.Event{Type: stream.EvAddEdge, User: f.V, Target: f.U})
			}
		}
		for _, doc := range userDocs[u] {
			emitDoc(doc)
		}
	}
	return evs, skippedDiffs
}

// RunStream executes one streaming preset end to end and verifies its
// invariants:
//
//   - freshness: a probe event ingested mid-run is query-visible after
//     exactly one publish cycle, while a concurrent read hammer runs;
//   - replay-equals-batch (pure fold-in presets): the incrementally
//     ingested corpus serves bit-identical memberships and document
//     assignments to batch-folding the same final corpus in one window;
//   - quality: full-population NMI (base + streamed users) stays above
//     the preset floor;
//   - the delta-Gibbs cadence fires when configured.
func RunStream(p StreamPreset, opts RunOptions) (*StreamMetrics, error) {
	b, err := Build(p.Base)
	if err != nil {
		return nil, err
	}
	g := b.Graph
	baseUsers := int(float64(g.NumUsers) * p.BaseFraction)
	if baseUsers < 2 || baseUsers >= g.NumUsers {
		return nil, fmt.Errorf("scenario %s: base fraction %.2f leaves no streamed users", p.Name, p.BaseFraction)
	}
	// Hold out a deterministic tail slice of each base user's documents
	// under churn: the first ceil((1-f)·n) docs train, the rest stream.
	holdout := map[int32]bool{}
	if p.HoldoutDocs > 0 {
		total := map[int32]int{}
		for _, d := range g.Docs {
			if int(d.User) < baseUsers {
				total[d.User]++
			}
		}
		seen := map[int32]int{}
		for i, d := range g.Docs {
			if int(d.User) >= baseUsers {
				continue
			}
			seen[d.User]++
			keep := total[d.User] - int(p.HoldoutDocs*float64(total[d.User]))
			if keep < 1 {
				keep = 1
			}
			if seen[d.User] > keep {
				holdout[int32(i)] = true
			}
		}
	}
	baseG, docMap, held := prefixGraph(g, baseUsers, holdout)
	if err := baseG.Validate(); err != nil {
		return nil, fmt.Errorf("scenario %s: base subgraph invalid: %w", p.Name, err)
	}
	baseModel, _, err := core.Train(baseG, p.Base.Train)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: base training failed: %w", p.Name, err)
	}
	evs, skipped := buildStreamEvents(g, baseUsers, docMap, held)

	var cleanups []func()
	defer func() {
		for _, fn := range cleanups {
			fn()
		}
	}()
	newUpdater := func(tag string, fullRebuild bool) (*serve.Engine, *stream.Journal, *stream.Updater, error) {
		engine := serve.New(baseModel, b.Vocab, serve.Options{})
		tmp, err := os.MkdirTemp(opts.Dir, "cpd-stream-"+tag+"-*")
		if err != nil {
			engine.Close()
			return nil, nil, nil, err
		}
		cleanups = append(cleanups, func() { os.RemoveAll(tmp) })
		j, err := stream.OpenJournal(filepath.Join(tmp, "events.wal"), stream.JournalOptions{})
		if err != nil {
			engine.Close()
			return nil, nil, nil, err
		}
		u, err := stream.NewUpdater(j, stream.Options{
			Engine:       engine,
			Base:         baseModel,
			Vocab:        b.Vocab,
			Dir:          tmp,
			WindowEvents: p.WindowEvents,
			FoldSweeps:   10,
			FoldSeed:     p.Base.Synth.Seed,
			GibbsEvery:   p.GibbsEvery,
			GibbsSweeps:  2,
			BaseGraph:    baseG,
			Workers:      2,
			FullRebuild:  fullRebuild,
			Quality:      p.QualityEvery,
			QualityPLP:   p.QualityEvery > 0,
		})
		if err != nil {
			j.Close()
			engine.Close()
			return nil, nil, nil, err
		}
		return engine, j, u, nil
	}

	engine, j, u, err := newUpdater("incr", false)
	if err != nil {
		return nil, err
	}
	defer engine.Close()
	defer j.Close()
	defer u.Close()

	// Shadow updater: same events, same publish cadence, but every publish
	// forced down the full-rebuild path — the baseline the incremental
	// publisher must serve bit-identically to.
	fbEngine, fbJournal, fb, err := newUpdater("fullrb", true)
	if err != nil {
		return nil, err
	}
	defer fbEngine.Close()
	defer fbJournal.Close()
	defer fb.Close()

	m := &StreamMetrics{
		Preset: p.Name, BaseUsers: baseUsers, TotalUsers: g.NumUsers,
		Events: len(evs), SkippedDiffs: skipped,
	}
	var problems []string
	fail := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}

	// Concurrent read hammer: queries flow against the engine for the
	// whole ingest, and none may error (hot-swaps must be invisible).
	stopReads := make(chan struct{})
	var wg sync.WaitGroup
	var reads, readErrs atomic.Uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := 0
		for {
			select {
			case <-stopReads:
				return
			default:
			}
			reads.Add(1)
			if _, err := engine.RankIn(serve.DefaultSnapshot, []int32{int32(w % baseModel.NumWords)}, 3); err != nil {
				readErrs.Add(1)
			}
			reads.Add(1)
			if _, err := engine.MembershipIn(serve.DefaultSnapshot, w%baseUsers, 3); err != nil {
				readErrs.Add(1)
			}
			w++
		}
	}()

	// Ingest in the preset's batch pattern, publishing per window.
	for i := 0; i < len(evs); i += p.BatchEvents {
		end := i + p.BatchEvents
		if end > len(evs) {
			end = len(evs)
		}
		if _, err := u.Ingest(evs[i:end]); err != nil {
			close(stopReads)
			wg.Wait()
			return m, fmt.Errorf("scenario %s: ingest failed at event %d: %w", p.Name, i, err)
		}
		if _, _, err := u.MaybePublish(); err != nil {
			close(stopReads)
			wg.Wait()
			return m, fmt.Errorf("scenario %s: publish failed: %w", p.Name, err)
		}
		if _, err := fb.Ingest(evs[i:end]); err != nil {
			close(stopReads)
			wg.Wait()
			return m, fmt.Errorf("scenario %s: shadow ingest failed at event %d: %w", p.Name, i, err)
		}
		if _, _, err := fb.MaybePublish(); err != nil {
			close(stopReads)
			wg.Wait()
			return m, fmt.Errorf("scenario %s: shadow publish failed: %w", p.Name, err)
		}
	}
	if _, err := u.Publish(); err != nil {
		close(stopReads)
		wg.Wait()
		return m, fmt.Errorf("scenario %s: final publish failed: %w", p.Name, err)
	}
	if _, err := fb.Publish(); err != nil {
		close(stopReads)
		wg.Wait()
		return m, fmt.Errorf("scenario %s: shadow final publish failed: %w", p.Name, err)
	}

	// Freshness probe: one more user+doc, one publish cycle, visible —
	// all while the read hammer is still running.
	probeUser := int32(g.NumUsers)
	probeEvents := []stream.Event{
		{Type: stream.EvAddUser, User: probeUser},
		{Type: stream.EvAddDoc, User: probeUser, Time: 1 << 20, Words: g.Docs[0].Words},
	}
	genBefore := u.Generation()
	if _, err := u.Ingest(probeEvents); err != nil {
		close(stopReads)
		wg.Wait()
		return m, fmt.Errorf("scenario %s: probe ingest failed: %w", p.Name, err)
	}
	if _, err := engine.MembershipIn(serve.DefaultSnapshot, int(probeUser), 3); err == nil {
		fail("probe user visible before any publish cycle")
	}
	if _, err := u.Publish(); err != nil {
		close(stopReads)
		wg.Wait()
		return m, fmt.Errorf("scenario %s: probe publish failed: %w", p.Name, err)
	}
	if u.Generation() != genBefore+1 {
		fail("probe publish did not advance exactly one generation (%d -> %d)", genBefore, u.Generation())
	}
	if res, err := engine.MembershipIn(serve.DefaultSnapshot, int(probeUser), 3); err != nil || len(res.Communities) == 0 {
		fail("probe event not query-visible within one publish cycle (%v)", err)
	}
	if _, err := fb.Ingest(probeEvents); err != nil {
		close(stopReads)
		wg.Wait()
		return m, fmt.Errorf("scenario %s: shadow probe ingest failed: %w", p.Name, err)
	}
	if _, err := fb.Publish(); err != nil {
		close(stopReads)
		wg.Wait()
		return m, fmt.Errorf("scenario %s: shadow probe publish failed: %w", p.Name, err)
	}
	close(stopReads)
	wg.Wait()
	m.ReadQueries, m.ReadErrors = reads.Load(), readErrs.Load()
	if m.ReadErrors > 0 {
		fail("%d of %d concurrent reads failed during ingest", m.ReadErrors, m.ReadQueries)
	}

	st := u.Status()
	m.Publishes, m.GibbsPasses = st.Publishes, st.GibbsPasses
	m.IncrementalPublishes = st.IncrementalPublishes
	m.QualityRuns = st.QualityRuns
	if p.GibbsEvery > 0 && st.GibbsPasses == 0 {
		fail("delta-Gibbs never ran despite GibbsEvery=%d over %d publishes", p.GibbsEvery, st.Publishes)
	}
	if p.QualityEvery > 0 {
		if st.QualityRuns == 0 {
			fail("quality scoring never ran despite QualityEvery=%d over %d publishes", p.QualityEvery, st.Publishes)
		}
		history, baseline := engine.QualityHistory(serve.DefaultSnapshot)
		if len(history) == 0 {
			fail("quality ran %d times but the engine recorded no history", st.QualityRuns)
		}
		for i, r := range history {
			if i > 0 && !r.HasPrev {
				fail("quality report for generation %d lost drift tracking against its predecessor", r.Generation)
			}
			if r.GraphEdges == 0 {
				fail("quality report for generation %d scored zero friendship edges", r.Generation)
			}
		}
		if baseline == nil || baseline.Algo != "plp" {
			fail("quality PLP baseline row missing from the engine history")
		}
	}
	if st.PendingEvents != 0 {
		fail("%d events still pending after the final publish", st.PendingEvents)
	}
	if st.Publishes >= 2 && st.IncrementalPublishes == 0 && p.GibbsEvery != 1 {
		fail("no publish took the incremental path over %d publishes", st.Publishes)
	}

	// Incremental-equals-full-rebuild, as served: after identical events
	// through identical publish cadences, the chain of patched snapshots
	// must answer every query bit-identically to the shadow's from-scratch
	// rebuilds.
	if diff := servedDiff(engine, fbEngine, g.NumUsers+1, baseModel.NumWords); diff != "" {
		fail("incremental and full-rebuild publishes serve differently: %s", diff)
	}

	// Replay-equals-batch (pure fold-in only): batch-ingest the identical
	// event sequence (probe included) and compare the extended models.
	if p.GibbsEvery == 0 {
		bEngine, bJournal, batch, err := newUpdater("batch", false)
		if err != nil {
			return m, err
		}
		defer bEngine.Close()
		defer bJournal.Close()
		defer batch.Close()
		all := append(append([]stream.Event{}, evs...),
			stream.Event{Type: stream.EvAddUser, User: probeUser},
			stream.Event{Type: stream.EvAddDoc, User: probeUser, Time: 1 << 20, Words: g.Docs[0].Words})
		if _, err := batch.Ingest(all); err != nil {
			return m, fmt.Errorf("scenario %s: batch ingest failed: %w", p.Name, err)
		}
		if _, err := batch.Publish(); err != nil {
			return m, fmt.Errorf("scenario %s: batch publish failed: %w", p.Name, err)
		}
		am, bm := u.Model(), batch.Model()
		if !floatsEqual(am.Pi.Data, bm.Pi.Data) {
			fail("incremental replay and batch fold-in serve different memberships")
		}
		if !int32Equal(am.DocCommunity, bm.DocCommunity) || !int32Equal(am.DocTopic, bm.DocTopic) {
			fail("incremental replay and batch fold-in disagree on document assignments")
		}
	}

	// Quality floor over the full population.
	final := u.Model()
	detected := make([]int32, final.NumUsers)
	for id := range detected {
		detected[id] = int32(final.TopCommunity(id))
	}
	truth := b.Truth.HomeCommunity
	if len(truth) > final.NumUsers {
		truth = truth[:final.NumUsers]
	} else if len(truth) < final.NumUsers {
		detected = detected[:len(truth)]
	}
	m.NMI = eval.NMI(detected[:len(truth)], truth)
	if m.NMI < p.MinNMI {
		fail("full-population NMI %.4f below the streaming floor %.2f", m.NMI, p.MinNMI)
	}

	if len(problems) > 0 {
		return m, fmt.Errorf("scenario %s: %s", p.Name, strings.Join(problems, "; "))
	}
	return m, nil
}

// servedDiff compares everything two engines serve on their default
// slots — per-user memberships, word-query rankings and community
// summaries — with the process-local Version counters normalized away.
// It returns "" when they are bit-identical, else a description of the
// first divergence. An engine that cannot serve the community summaries
// (no snapshot in the slot) is a divergence, so two empty engines never
// compare equal.
func servedDiff(a, b *serve.Engine, users, words int) string {
	for id := 0; id < users; id++ {
		ra, ea := a.MembershipIn(serve.DefaultSnapshot, id, 5)
		rb, eb := b.MembershipIn(serve.DefaultSnapshot, id, 5)
		if (ea != nil) != (eb != nil) {
			return fmt.Sprintf("membership(%d) errors diverge: %v vs %v", id, ea, eb)
		}
		if ea != nil {
			continue
		}
		ra.Version, rb.Version = 0, 0
		if !reflect.DeepEqual(ra, rb) {
			return fmt.Sprintf("membership(%d): %+v vs %+v", id, ra, rb)
		}
	}
	step := words / 16
	if step < 1 {
		step = 1
	}
	for w := 0; w < words; w += step {
		ra, ea := a.RankIn(serve.DefaultSnapshot, []int32{int32(w)}, 5)
		rb, eb := b.RankIn(serve.DefaultSnapshot, []int32{int32(w)}, 5)
		if (ea != nil) != (eb != nil) {
			return fmt.Sprintf("rank(%d) errors diverge: %v vs %v", w, ea, eb)
		}
		if ea != nil {
			continue
		}
		ra.Version, rb.Version = 0, 0
		if !reflect.DeepEqual(ra, rb) {
			return fmt.Sprintf("rank(%d): %+v vs %+v", w, ra, rb)
		}
	}
	ca, ea := a.CommunitiesIn(serve.DefaultSnapshot)
	cb, eb := b.CommunitiesIn(serve.DefaultSnapshot)
	if ea != nil || eb != nil {
		return fmt.Sprintf("community summaries: %v vs %v", ea, eb)
	}
	if !reflect.DeepEqual(ca, cb) {
		return fmt.Sprintf("community summaries: %+v vs %+v", ca, cb)
	}
	return ""
}

func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func int32Equal(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

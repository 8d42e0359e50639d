package stream

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/socialgraph"
	"repro/internal/store"
)

// randomEvents builds a deterministic randomized event stream with user
// churn: user additions, documents on base and streamed users (including
// repeat touches, which exercise row overwrites), edges and diffusions.
func randomEvents(g *socialgraph.Graph, m *core.Model, n int, seed uint64) []Event {
	r := rand.New(rand.NewPCG(seed, seed^0xABCD))
	users := m.NumUsers
	docs := len(g.Docs)
	words := func() []int32 { return g.Docs[r.IntN(len(g.Docs))].Words }
	evs := make([]Event, 0, n)
	for i := 0; i < n; i++ {
		switch p := r.IntN(10); {
		case p == 0:
			evs = append(evs, Event{Type: EvAddUser})
			users++
		case p <= 5:
			evs = append(evs, Event{
				Type: EvAddDoc, User: int32(r.IntN(users)),
				Time: int64(1000 + i), Words: words(),
			})
			docs++
		case p <= 7:
			a, b := int32(r.IntN(users)), int32(r.IntN(users))
			if a == b {
				b = (b + 1) % int32(users)
			}
			evs = append(evs, Event{Type: EvAddEdge, User: a, Target: b})
		default:
			evs = append(evs, Event{
				Type: EvDiffusion, User: int32(r.IntN(users)),
				Target: int32(r.IntN(docs)), Time: int64(1000 + i), Words: words()[:1],
			})
			docs++
		}
	}
	return evs
}

// requireSameServed compares everything the two engines serve for the
// default slot, Version normalized away (the counters are process-local).
func requireSameServed(t *testing.T, inc, full *serve.Engine, users int, queries [][]int32) {
	t.Helper()
	for id := 0; id < users; id++ {
		a, aerr := inc.MembershipIn(serve.DefaultSnapshot, id, 4)
		b, berr := full.MembershipIn(serve.DefaultSnapshot, id, 4)
		if (aerr != nil) != (berr != nil) {
			t.Fatalf("membership(%d) errors diverge: %v vs %v", id, aerr, berr)
		}
		if aerr != nil {
			continue
		}
		a.Version, b.Version = 0, 0
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("membership(%d) diverges:\nincremental %+v\nfull        %+v", id, a, b)
		}
	}
	for qi, q := range queries {
		a, aerr := inc.RankIn(serve.DefaultSnapshot, q, 5)
		b, berr := full.RankIn(serve.DefaultSnapshot, q, 5)
		if (aerr != nil) != (berr != nil) {
			t.Fatalf("rank(query %d) errors diverge: %v vs %v", qi, aerr, berr)
		}
		if aerr != nil {
			continue
		}
		a.Version, b.Version = 0, 0
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("rank(query %d) diverges:\nincremental %+v\nfull        %+v", qi, a, b)
		}
	}
	ca, aerr := inc.CommunitiesIn(serve.DefaultSnapshot)
	cb, berr := full.CommunitiesIn(serve.DefaultSnapshot)
	if aerr != nil || berr != nil {
		t.Fatalf("community summaries: %v / %v", aerr, berr)
	}
	if !reflect.DeepEqual(ca, cb) {
		t.Fatalf("community summaries diverge:\nincremental %+v\nfull        %+v", ca, cb)
	}
}

// TestIncrementalPublishMatchesFullRebuild is the end-to-end differential
// contract of the O(changed) publish path: an updater publishing
// incrementally (patched model, patched indexes) must serve bit-identical
// results to an updater forced to rebuild everything from scratch, across
// a randomized churny event sequence published window by window. Every
// generation is served from the file it wrote while Π is patched in
// place, and the two updaters must write byte-identical snapshot files.
func TestIncrementalPublishMatchesFullRebuild(t *testing.T) {
	// A single case: every updater publishes to a directory.
	t.Run("dir", func(t *testing.T) {
		g, m := testBase(t)
		_, _, inc := newTestUpdater(t, g, m, nil)
		_, _, full := newTestUpdater(t, g, m, func(o *Options) { o.FullRebuild = true })

		evs := randomEvents(g, m, 120, 42)
		queries := [][]int32{
			g.Docs[0].Words[:2],
			g.Docs[1].Words[:3],
			{g.Docs[2].Words[0]},
		}
		const window = 8
		gens := 0
		for lo := 0; lo < len(evs); lo += window {
			hi := min(lo+window, len(evs))
			if _, err := inc.Ingest(evs[lo:hi]); err != nil {
				t.Fatal(err)
			}
			if _, err := full.Ingest(evs[lo:hi]); err != nil {
				t.Fatal(err)
			}
			ii, err := inc.Publish()
			if err != nil {
				t.Fatal(err)
			}
			fi, err := full.Publish()
			if err != nil {
				t.Fatal(err)
			}
			if fi.Incremental {
				t.Fatal("FullRebuild updater reported an incremental publish")
			}
			gens++
			if gens > 1 && !ii.Incremental {
				t.Fatalf("publish %d did not take the incremental path", gens)
			}
			requireSameServed(t, inc.opts.Engine, full.opts.Engine, ii.Users, queries)
			s, release, err := inc.opts.Engine.AcquireNamed(serve.DefaultSnapshot)
			if err != nil {
				t.Fatal(err)
			}
			own := s.Model == inc.lastModel
			release()
			if own {
				t.Fatalf("generation %d: the engine serves the updater's own model, not the file's mapping", ii.Generation)
			}
			ab, err := os.ReadFile(store.GenPath(inc.opts.Dir, ii.Generation))
			if err != nil {
				t.Fatal(err)
			}
			bb, err := os.ReadFile(store.GenPath(full.opts.Dir, fi.Generation))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ab, bb) {
				t.Fatalf("generation %d snapshot files differ (%d vs %d bytes)", ii.Generation, len(ab), len(bb))
			}
		}

		st := inc.Status()
		if st.IncrementalPublishes == 0 {
			t.Fatal("no publish took the incremental path")
		}
		if st.LastPublishPhases == nil || st.LastPublishPhases.Full {
			t.Fatalf("last publish phases missing or full: %+v", st.LastPublishPhases)
		}
		if st.PublishLatency == nil || st.PublishLatency.Count == 0 {
			t.Fatal("publish latency histogram empty")
		}
		if st.PublishLag == nil || st.PublishLag.Count == 0 {
			t.Fatal("publish lag histogram empty")
		}
	})
}

// TestIncrementalPublishWithGibbsMatches runs the same differential with
// periodic delta-Gibbs passes: a Gibbs publish forces the full path (the
// refined reference changed) and the incremental path must resume cleanly
// on the publish after it.
func TestIncrementalPublishWithGibbsMatches(t *testing.T) {
	g, m := testBase(t)
	mod := func(o *Options) {
		o.BaseGraph = g
		o.GibbsEvery = 3
		o.GibbsSweeps = 1
		o.Workers = 2
	}
	_, _, inc := newTestUpdater(t, g, m, mod)
	_, _, full := newTestUpdater(t, g, m, func(o *Options) {
		mod(o)
		o.FullRebuild = true
	})

	evs := randomEvents(g, m, 60, 7)
	const window = 10
	for lo := 0; lo < len(evs); lo += window {
		hi := min(lo+window, len(evs))
		if _, err := inc.Ingest(evs[lo:hi]); err != nil {
			t.Fatal(err)
		}
		if _, err := full.Ingest(evs[lo:hi]); err != nil {
			t.Fatal(err)
		}
		ii, err := inc.Publish()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := full.Publish(); err != nil {
			t.Fatal(err)
		}
		if ii.Gibbs && ii.Incremental {
			t.Fatal("a Gibbs publish must take the full path")
		}
		requireSameServed(t, inc.opts.Engine, full.opts.Engine, ii.Users, nil)
	}
	if inc.Status().IncrementalPublishes == 0 {
		t.Fatal("no publish took the incremental path between Gibbs passes")
	}
}

// TestPublishOverMappedBaseMatchesHeapBase covers cpd-serve -model …
// -ingest …: the updater's base is the slot LoadGeneration served from the
// mapping of the model file, and it publishes into Dir. Incremental
// publishes and a delta-Gibbs pass over that base must serve what the same
// updater serves over the heap model the file was saved from. The mapping
// is read-only, so a publish that wrote into a base block would fault
// here instead of answering.
func TestPublishOverMappedBaseMatchesHeapBase(t *testing.T) {
	g, m := testBase(t)
	basePath := filepath.Join(t.TempDir(), "base.v2.snap")
	if err := store.SaveV2(basePath, m); err != nil {
		t.Fatal(err)
	}
	mappedEngine := serve.NewMulti(serve.Options{})
	t.Cleanup(mappedEngine.Close)
	if _, err := mappedEngine.LoadGeneration(serve.DefaultSnapshot, basePath, nil, 0); err != nil {
		t.Fatal(err)
	}
	gibbs := func(o *Options) {
		o.BaseGraph = g
		o.GibbsEvery = 2
		o.GibbsSweeps = 1
		o.Workers = 2
	}
	_, _, overMapped := newTestUpdater(t, g, m, func(o *Options) {
		gibbs(o)
		o.Engine, o.Base = mappedEngine, nil
	})
	_, _, overHeap := newTestUpdater(t, g, m, gibbs)

	evs := randomEvents(g, m, 40, 19)
	const window = 10
	var incremental, gibbsPasses int
	for lo := 0; lo < len(evs); lo += window {
		var info *PublishInfo
		for _, u := range []*Updater{overMapped, overHeap} {
			if _, err := u.Ingest(evs[lo : lo+window]); err != nil {
				t.Fatal(err)
			}
			var err error
			if info, err = u.Publish(); err != nil {
				t.Fatal(err)
			}
		}
		if info.Incremental {
			incremental++
		}
		if info.Gibbs {
			gibbsPasses++
		}
		requireSameServed(t, mappedEngine, overHeap.opts.Engine, info.Users, [][]int32{g.Docs[0].Words[:2], {g.Docs[2].Words[0]}})
	}
	if incremental == 0 || gibbsPasses == 0 {
		t.Fatalf("%d incremental publishes and %d delta-Gibbs passes, want both", incremental, gibbsPasses)
	}
}

// TestPruneSurvivesGenerationGap is the retention regression test: a gap
// in the gen-%08d sequence (here: one file removed externally, as a
// failed publish rolling the generation back also leaves) must not
// shield older snapshots from pruning. The pre-fix implementation
// counted down from the cut and stopped at the first missing file,
// leaking everything older than the gap forever.
func TestPruneSurvivesGenerationGap(t *testing.T) {
	dir := t.TempDir()
	for gen := uint64(1); gen <= 10; gen++ {
		if gen == 5 {
			continue // the planted gap
		}
		if err := os.WriteFile(store.GenPath(dir, gen), []byte("snap"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	u := &Updater{opts: Options{Dir: dir, KeepSnapshots: 3}}
	u.generation = 10
	u.pruneSnapshotsLocked()

	files, err := store.ScanGenerations(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []uint64
	for _, f := range files {
		got = append(got, f.Generation)
	}
	if want := []uint64{8, 9, 10}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after pruning with a gap at 5: generations on disk = %v, want %v", got, want)
	}

	// Below the keep threshold nothing is pruned (and nothing panics on
	// the generation-underflow edge).
	low := &Updater{opts: Options{Dir: dir, KeepSnapshots: 3}}
	low.generation = 2
	low.pruneSnapshotsLocked()
	if files, _ := store.ScanGenerations(dir); len(files) != 3 {
		t.Fatalf("pruning below the keep threshold removed files: %v", files)
	}
}

// TestDirectoryReplicaLeavesPublisherDirAlone: a directory-source
// replica verifies and maps each generation in the publisher's own
// directory and writes nothing there, so after every publish and poll the
// directory holds exactly the newest KeepSnapshots generations the
// publisher wrote: each one's full file and its manifest.
func TestDirectoryReplicaLeavesPublisherDirAlone(t *testing.T) {
	g, m := testBase(t)
	dir := t.TempDir()
	_, _, u := newTestUpdater(t, g, m, func(o *Options) {
		o.Dir = dir
		o.KeepSnapshots = 2
	})
	replica := serve.NewMulti(serve.Options{})
	t.Cleanup(replica.Close)
	f, err := serve.NewFetcher(replica, serve.FetchOptions{Source: dir})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		if _, err := u.Ingest([]Event{{Type: EvAddDoc, User: 3, Time: int64(round), Words: []int32{1, 2}}}); err != nil {
			t.Fatal(err)
		}
		info, err := u.Publish()
		if err != nil {
			t.Fatal(err)
		}
		if got, err := f.Poll(); got != info.Generation || err != nil {
			t.Fatalf("round %d: replica polled generation %d, %v; want %d", round, got, err, info.Generation)
		}
		var names, want []string
		for gen := max(info.Generation, 2) - 1; gen <= info.Generation; gen++ {
			want = append(want, filepath.Base(shard.ManifestPath(dir, gen)), filepath.Base(store.GenPath(dir, gen)))
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, ent := range entries {
			names = append(names, ent.Name())
		}
		if !reflect.DeepEqual(names, want) {
			t.Fatalf("generation %d: the publisher's directory holds %v, want %v", info.Generation, names, want)
		}
	}
}

// TestPruneCommitsInOrder: an unsharded publisher's one-shard manifests
// name its full files (each generation joins to its file byte for byte),
// so retention must remove each manifest before the file it names. A watcher lists the directory throughout five publishes
// with KeepSnapshots 2 and fails on any manifest it finds still on disk
// after one of its files is gone.
func TestPruneCommitsInOrder(t *testing.T) {
	g, m := testBase(t)
	dir := t.TempDir()
	_, _, u := newTestUpdater(t, g, m, func(o *Options) {
		o.Dir = dir
		o.KeepSnapshots = 2
	})
	// dangling reports a manifest in dir that names a missing file.
	dangling := func() string {
		gens, _ := shard.ScanManifests(dir)
		for _, gen := range gens {
			path := shard.ManifestPath(dir, gen)
			man, err := shard.ReadManifest(path)
			if err != nil {
				continue // pruned since the listing
			}
			for _, name := range []string{man.Global.Name, man.Ranges[0].File.Name} {
				if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
					if _, err := os.Stat(path); err == nil {
						return fmt.Sprintf("generation %d's manifest outlives %s", gen, name)
					}
				}
			}
		}
		return ""
	}
	stop := make(chan struct{})
	found := make(chan string, 1)
	go func() {
		defer close(found)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if d := dangling(); d != "" {
				found <- d
				return
			}
		}
	}()
	for round := 0; round < 5; round++ {
		if _, err := u.Ingest([]Event{{Type: EvAddDoc, User: 3, Time: int64(round), Words: []int32{1, 2}}}); err != nil {
			t.Fatal(err)
		}
		info, err := u.Publish()
		if err != nil {
			t.Fatal(err)
		}
		if d := dangling(); d != "" {
			t.Fatalf("after generation %d: %s", info.Generation, d)
		}
		// The one-shard group joins to the full file it names.
		joined := filepath.Join(t.TempDir(), "joined.v2.snap")
		if err := shard.Join(dir, info.Generation, joined); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(joined)
		if err != nil {
			t.Fatal(err)
		}
		if want, err := os.ReadFile(info.Path); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("generation %d does not join to its full file (%v)", info.Generation, err)
		}
		gens, err := shard.ScanManifests(dir)
		if err != nil {
			t.Fatal(err)
		}
		want := []uint64{info.Generation}
		if info.Generation > 1 {
			want = []uint64{info.Generation - 1, info.Generation}
		}
		if !reflect.DeepEqual(gens, want) {
			t.Fatalf("after generation %d: manifests %v, want %v", info.Generation, gens, want)
		}
	}
	close(stop)
	if d := <-found; d != "" {
		t.Fatal(d)
	}
}

// TestFriendsOnlyPublishReusesDocSections pins the doc-array publish
// headroom: a delta window containing only edge events among users with
// no stream documents hands out the last published model's doc arrays,
// so the shard publisher hard-links the previous generation's state file
// (DOCC/DOCZ/DOCB) instead of rewriting it, while every full file stays
// byte-identical to a from-scratch rebuild's.
func TestFriendsOnlyPublishReusesDocSections(t *testing.T) {
	g, m := testBase(t)
	incDir, fullDir := t.TempDir(), t.TempDir()
	_, _, inc := newTestUpdater(t, g, m, func(o *Options) {
		o.Dir = incDir
		o.Shards = 3
	})
	_, _, full := newTestUpdater(t, g, m, func(o *Options) {
		o.Dir = fullDir
		o.Shards = 3
		o.FullRebuild = true
	})
	// linked reports whether generation gen's state file is generation
	// gen-1's, and how many of gen's group files are links of gen-1's.
	linked := func(gen uint64) (state bool, files int) {
		t.Helper()
		read := func(gen uint64) *shard.Manifest {
			man, err := shard.ReadManifest(shard.ManifestPath(incDir, gen))
			if err != nil {
				t.Fatal(err)
			}
			return man
		}
		prev, cur := read(gen-1), read(gen)
		same := func(a, b shard.FileEntry) bool {
			ai, err := os.Stat(filepath.Join(incDir, a.Name))
			if err != nil {
				t.Fatal(err)
			}
			bi, err := os.Stat(filepath.Join(incDir, b.Name))
			if err != nil {
				t.Fatal(err)
			}
			if os.SameFile(ai, bi) {
				files++
				return true
			}
			return false
		}
		same(prev.Global, cur.Global)
		for i := range cur.Ranges {
			same(prev.Ranges[i].File, cur.Ranges[i].File)
		}
		return same(*prev.State, *cur.State), files
	}

	publishBoth := func(evs []Event) *PublishInfo {
		t.Helper()
		if _, err := inc.Ingest(evs); err != nil {
			t.Fatal(err)
		}
		if _, err := full.Ingest(evs); err != nil {
			t.Fatal(err)
		}
		ii, err := inc.Publish()
		if err != nil {
			t.Fatal(err)
		}
		fi, err := full.Publish()
		if err != nil {
			t.Fatal(err)
		}
		af := filepath.Join(incDir, fmt.Sprintf("gen-%08d.v2.snap", ii.Generation))
		bf := filepath.Join(fullDir, fmt.Sprintf("gen-%08d.v2.snap", fi.Generation))
		ab, err := os.ReadFile(af)
		if err != nil {
			t.Fatal(err)
		}
		bb, err := os.ReadFile(bf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ab, bb) {
			t.Fatalf("generation %d snapshot files differ (%d vs %d bytes)", ii.Generation, len(ab), len(bb))
		}
		return ii
	}

	// Two doc-bearing windows: the first publish is always full; the
	// second is incremental but must re-encode the grown doc arrays.
	publishBoth([]Event{
		{Type: EvAddDoc, User: 0, Time: 100, Words: g.Docs[0].Words},
		{Type: EvAddDoc, User: 1, Time: 110, Words: g.Docs[1].Words},
		{Type: EvAddEdge, User: 0, Target: 1},
	})
	withDocs := publishBoth([]Event{
		{Type: EvAddDoc, User: 2, Time: 200, Words: g.Docs[2].Words},
	})
	if state, files := linked(withDocs.Generation); state || files != inc.Status().LastPublishPhases.FilesLinked {
		t.Fatalf("doc-bearing publish: state file linked %v, %d group files linked, FilesLinked %d",
			state, files, inc.Status().LastPublishPhases.FilesLinked)
	}
	inc.mu.Lock()
	prev := inc.lastModel
	if inc.docsChanged {
		t.Fatal("docsChanged still set after publish")
	}
	inc.mu.Unlock()

	// Friends-only window: edges among base users that own no stream
	// documents. The fold refolds their membership rows but every doc
	// assignment stays put, so the state file rides along unchanged.
	friendsOnly := publishBoth([]Event{
		{Type: EvAddEdge, User: 5, Target: 6},
		{Type: EvAddEdge, User: 7, Target: 8},
	})
	if state, files := linked(friendsOnly.Generation); !state || files != inc.Status().LastPublishPhases.FilesLinked {
		t.Fatalf("friends-only publish: state file linked %v, %d group files linked, FilesLinked %d",
			state, files, inc.Status().LastPublishPhases.FilesLinked)
	}
	inc.mu.Lock()
	cur := inc.lastModel
	inc.mu.Unlock()
	if &cur.DocCommunity[0] != &prev.DocCommunity[0] ||
		&cur.DocTopic[0] != &prev.DocTopic[0] ||
		&cur.DocBucket[0] != &prev.DocBucket[0] {
		t.Fatal("friends-only publish rebuilt doc arrays instead of aliasing the last model's")
	}
}

// TestPublishPhasesIndexPatched pins what IndexPatched reports and that
// every way the publisher reaches the index builder serves the same as
// the from-scratch twin: the first publish of a process assembles the
// full model but patches the index (the global blocks are the served
// model's, byte for byte, in other memory when mapped), a steady publish
// patches from its explicit delta, a delta-Gibbs publish rebuilds, a
// publish after somebody else swapped the slot derives its delta anew,
// and FullRebuild never patches.
func TestPublishPhasesIndexPatched(t *testing.T) {
	g, m := testBase(t)
	mod := func(o *Options) {
		o.Dir = t.TempDir()
		o.BaseGraph = g
		o.GibbsEvery = 3
		o.GibbsSweeps = 1
		o.Workers = 2
	}
	mkEngine := func() *serve.Engine {
		e := serve.New(m, nil, serve.Options{})
		t.Cleanup(e.Close)
		return e
	}
	mk := func(e *serve.Engine, fullRebuild bool) *Updater {
		j, err := OpenJournal(filepath.Join(t.TempDir(), "events.wal"), JournalOptions{SyncEvery: 8})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { j.Close() })
		o := Options{Engine: e, Base: m, WindowEvents: 4, FoldSweeps: 8, FoldSeed: 99, FullRebuild: fullRebuild}
		mod(&o)
		u, err := NewUpdater(j, o)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(u.Close)
		return u
	}
	incEngine, fullEngine := mkEngine(), mkEngine()
	inc, full := mk(incEngine, false), mk(fullEngine, true)

	evs := randomEvents(g, m, 50, 23)
	const window = 10
	publish := func(round int) (*PublishInfo, PublishPhases) {
		t.Helper()
		lo := round * window
		for _, u := range []*Updater{inc, full} {
			if _, err := u.Ingest(evs[lo : lo+window]); err != nil {
				t.Fatal(err)
			}
		}
		info, err := inc.Publish()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := full.Publish(); err != nil {
			t.Fatal(err)
		}
		if ph := full.Status().LastPublishPhases; ph == nil || !ph.Full || ph.IndexPatched {
			t.Fatalf("round %d: FullRebuild publish reports %+v, want a full model and a from-scratch index", round, ph)
		}
		requireSameServed(t, incEngine, fullEngine, info.Users, [][]int32{g.Docs[0].Words[:2]})
		return info, *inc.Status().LastPublishPhases
	}

	if info, ph := publish(0); info.Incremental || !ph.Full || !ph.IndexPatched {
		t.Fatalf("first publish: %+v / %+v, want a full model with a patched index", info, ph)
	}
	if info, ph := publish(1); !info.Incremental || ph.Full || !ph.IndexPatched {
		t.Fatalf("steady publish: %+v / %+v, want incremental with a patched index", info, ph)
	}
	info, ph := publish(2)
	if !info.Gibbs || !ph.Full || ph.IndexPatched {
		t.Fatalf("delta-Gibbs publish: %+v / %+v, want a full model and a from-scratch index (Θ, Φ, η moved)", info, ph)
	}
	// An operator reloads the live generation's file under the publisher:
	// same bytes, but the publisher's next delta names a promote the slot
	// no longer holds.
	if _, err := incEngine.LoadGeneration(serve.DefaultSnapshot, store.GenPath(inc.opts.Dir, info.Generation), nil, 0); err != nil {
		t.Fatal(err)
	}
	info, ph = publish(3)
	if !info.Incremental {
		t.Fatalf("publish after the external swap: %+v, want the incremental model path", info)
	}
	requireSameServed(t, incEngine, fullEngine, info.Users, [][]int32{g.Docs[1].Words[:3], {g.Docs[2].Words[0]}})
	s, release, err := incEngine.AcquireNamed(serve.DefaultSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	if b := s.Build(); !b.Derived || b.Kind != serve.BuildPatched || !ph.IndexPatched {
		t.Fatalf("publish after the external swap built %+v (phases %+v), want a patch by a delta derived from the bytes", b, ph)
	}
	release()
	if _, ph := publish(4); ph.Full || !ph.IndexPatched {
		t.Fatalf("publish after that: %+v, want the steady patched path again", ph)
	}
}

// TestPromotedPiIsNeverPatched is the other side of the in-place rule:
// the updater patches the Π it built generation N from, but the engine
// serves generation N from its file's mapping, never that array. Snapshot
// N is held, and read from another goroutine, across incremental publishes
// N+1 and N+2 that re-fold its users and patch Π where it stands: its rows
// and its answers must not move, and under -race a publish that wrote into
// the array it reads is a reported race.
func TestPromotedPiIsNeverPatched(t *testing.T) {
	g, m := testBase(t)
	engine, _, u := newTestUpdater(t, g, m, nil)
	// Documents for trained users only: nobody is appended, so Π keeps its
	// length and patching in place would need no new array at all.
	const window = 24
	publish := func(k int) *PublishInfo {
		t.Helper()
		for i := 0; i < window; i++ {
			ev := Event{Type: EvAddDoc, User: int32((7*k + 5*i) % m.NumUsers), Time: int64(1000 + window*k + i), Words: g.Docs[(3*k+i)%len(g.Docs)].Words}
			if _, err := u.Ingest([]Event{ev}); err != nil {
				t.Fatal(err)
			}
		}
		info, err := u.Publish()
		if err != nil {
			t.Fatal(err)
		}
		return info
	}
	publish(0)
	held, release, err := engine.AcquireNamed(serve.DefaultSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if held.Model == u.lastModel {
		t.Fatal("the engine serves the updater's own model, not the file's mapping")
	}
	patched := &u.lastModel.Pi.Data[0]
	rows := append([]float64(nil), held.Model.Pi.Data...)
	answers := make([]*serve.MembershipResult, held.Model.NumUsers)
	for id := range answers {
		if answers[id], err = held.Membership(id, 4); err != nil {
			t.Fatal(err)
		}
	}

	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i, v := range held.Model.Pi.Data {
				if v != rows[i] {
					t.Errorf("element %d of the held snapshot's Π moved under a reader", i)
					return
				}
			}
		}
	}()
	for k := 1; k <= 2; k++ {
		info := publish(k)
		if !info.Incremental {
			t.Fatalf("publish %d took the full path; the test needs the patched one", k+1)
		}
		if &u.lastModel.Pi.Data[0] != patched {
			t.Fatalf("publish %d built a new Π; the test needs the one it patches in place", k+1)
		}
	}
	close(stop)
	<-done
	if !reflect.DeepEqual(held.Model.Pi.Data, rows) {
		t.Fatal("the held snapshot's rows changed across two publishes")
	}
	moved := false
	for id, want := range answers {
		got, err := held.Membership(id, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("the held snapshot now answers membership(%d) with %+v, before the publishes %+v", id, got, want)
		}
		if now, err := engine.MembershipIn(serve.DefaultSnapshot, id, 4); err != nil || !reflect.DeepEqual(now.Communities, want.Communities) {
			moved = true
		}
	}
	if !moved {
		t.Fatal("no answer moved between generation N and N+2; the publishes re-folded nobody the test can see")
	}
}

// dirFiles reads every regular file of dir, by name.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte)
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = raw
	}
	return files
}

// TestFailedPublishRetriesToSameBytes is the patch side of the rule: with
// Dir the engine serves the file mapping and the updater patches Π inside
// the array it published from last time — so a publish that fails after
// the patch (here: its snapshot directory is gone when the save comes)
// leaves that array ahead of what is served. The retry, with more events
// ingested in between, must still write exactly the files an updater that
// never failed and rebuilds everything from scratch writes: full snapshot
// and every file of the shard group.
func TestFailedPublishRetriesToSameBytes(t *testing.T) {
	g, m := testBase(t)
	mk := func(fullRebuild bool) (*Updater, string) {
		e := serve.New(m, nil, serve.Options{})
		t.Cleanup(e.Close)
		dir := filepath.Join(t.TempDir(), "snapshots") // a directory the test may rename
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		_, _, u := newTestUpdater(t, g, m, func(o *Options) {
			o.Engine, o.Dir, o.Shards, o.FullRebuild = e, dir, 3, fullRebuild
		})
		return u, dir
	}
	disturbed, dDir := mk(false)
	steady, sDir := mk(true)
	evs := randomEvents(g, m, 96, 31)
	const window = 24
	ingest := func(u *Updater, k int) {
		t.Helper()
		if _, err := u.Ingest(evs[k*window : (k+1)*window]); err != nil {
			t.Fatal(err)
		}
	}
	publish := func(u *Updater) *PublishInfo {
		t.Helper()
		info, err := u.Publish()
		if err != nil {
			t.Fatal(err)
		}
		return info
	}
	for k := 0; k < 2; k++ { // generation 1 is full, generation 2 patches
		ingest(disturbed, k)
		ingest(steady, k)
		publish(disturbed)
		publish(steady)
	}
	ingest(disturbed, 2)
	if err := os.Rename(dDir, dDir+".away"); err != nil {
		t.Fatal(err)
	}
	if info, err := disturbed.Publish(); err == nil {
		t.Fatalf("publish into a missing directory succeeded: %+v", info)
	}
	if err := os.Rename(dDir+".away", dDir); err != nil {
		t.Fatal(err)
	}
	if gen := disturbed.Status().Generation; gen != 2 {
		t.Fatalf("the failed publish left generation %d, want 2", gen)
	}
	ingest(disturbed, 3)
	info := publish(disturbed)
	if !info.Incremental || info.Generation != 3 {
		t.Fatalf("the retry published %+v, want incremental generation 3", info)
	}

	ingest(steady, 2)
	ingest(steady, 3)
	publish(steady)

	got, want := dirFiles(t, dDir), dirFiles(t, sDir)
	if len(got) != len(want) {
		t.Fatalf("the disturbed run left %d files, the steady one %d", len(got), len(want))
	}
	for name, raw := range want {
		if !reflect.DeepEqual(got[name], raw) {
			t.Errorf("%s differs between the retried and the undisturbed run", name)
		}
	}
	requireSameServed(t, disturbed.opts.Engine, steady.opts.Engine, info.Users, [][]int32{g.Docs[0].Words[:2]})

	// And the saving is real: with nobody appended, the next Π is the last
	// one's array.
	array := &disturbed.lastModel.Pi.Data[0]
	if _, err := disturbed.Ingest([]Event{{Type: EvAddDoc, User: 5, Time: 5000, Words: g.Docs[3].Words}}); err != nil {
		t.Fatal(err)
	}
	if info := publish(disturbed); !info.Incremental || &disturbed.lastModel.Pi.Data[0] != array {
		t.Fatalf("a mapped incremental publish (%+v) should patch Π where it stands", info)
	}
}

// TestPublishPhasesCountBytesWritten: a fold-in publish that appends a
// user to a 3-shard updater hard-links the group's global file (it holds no
// user count) and reports as BytesWritten exactly the on-disk sizes of the
// files it did write: the full snapshot, the group manifest and the group
// files (global, state and shard files) that are not links of the previous
// generation's.
func TestPublishPhasesCountBytesWritten(t *testing.T) {
	u := costUpdater(t, serve.SyntheticModel(300, 8, 4, 50, 3))
	dir := u.opts.Dir
	stat := func(path string) os.FileInfo {
		t.Helper()
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi
	}
	var prev uint64
	for round, evs := range [][]Event{
		{{Type: EvAddDoc, User: 7, Words: []int32{1, 2, 3}}},
		{{Type: EvAddUser}, {Type: EvAddDoc, User: 300, Time: 1, Words: []int32{4, 5}}},
	} {
		if _, err := u.Ingest(evs); err != nil {
			t.Fatal(err)
		}
		info, err := u.Publish()
		if err != nil {
			t.Fatal(err)
		}
		ph := u.Status().LastPublishPhases
		gen := info.Generation
		want := stat(store.GenPath(dir, gen)).Size() + stat(shard.ManifestPath(dir, gen)).Size()
		linked := 0
		group := []string{shard.GlobalPath(dir, gen), shard.StatePath(dir, gen)}
		prevGroup := []string{shard.GlobalPath(dir, prev), shard.StatePath(dir, prev)}
		for i := 0; i < 3; i++ {
			group = append(group, shard.ShardPath(dir, gen, i))
			prevGroup = append(prevGroup, shard.ShardPath(dir, prev, i))
		}
		for i, path := range group {
			if pi, err := os.Stat(prevGroup[i]); err == nil && os.SameFile(stat(path), pi) {
				linked++
			} else {
				want += stat(path).Size()
			}
		}
		if ph.BytesWritten != want || ph.FilesLinked != linked {
			t.Fatalf("publish %d reports %d bytes written / %d files linked; the files say %d / %d", round, ph.BytesWritten, ph.FilesLinked, want, linked)
		}
		if round == 1 {
			if ph.Full || info.Users != 301 || linked < 1 {
				t.Fatalf("growth publish: %+v with %d users and %d links, want an incremental publish of 301 users with the global file linked", ph, info.Users, linked)
			}
			if !os.SameFile(stat(group[0]), stat(prevGroup[0])) {
				t.Fatal("growth publish rewrote the global file")
			}
		}
		prev = gen
	}
	raw, err := json.Marshal(u.Status())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"bytesWritten"`)) || !bytes.Contains(raw, []byte(`"filesLinked"`)) {
		t.Fatalf("status lacks the write counters: %s", raw)
	}
}

package stream

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/store"
)

// TestRestartPublishesTheSameBytes: a stream of four windows with a
// delta-Gibbs pass on the third publish, run once in one process and once
// per restart point with a new process (a fresh engine holding only the
// base) taking over after window 1, 2 or 3. Every generation file must be
// byte-identical to the run without a restart — the Gibbs generation, and
// the publishes after it, which fold against the refined profiles.
func TestRestartPublishesTheSameBytes(t *testing.T) {
	g, m := testBase(t)
	evs := streamFixture(g, m)
	windows := [][]Event{evs[:3], evs[3:7], evs[7:9], evs[9:]}
	run := func(restartAfter int) [][]byte {
		path := filepath.Join(t.TempDir(), "events.wal")
		dir := t.TempDir()
		open := func() (*serve.Engine, *Journal, *Updater) {
			e := serve.New(m, nil, serve.Options{})
			j, err := OpenJournal(path, JournalOptions{})
			if err != nil {
				t.Fatal(err)
			}
			u, err := NewUpdater(j, Options{
				Engine: e, Dir: dir, FoldSweeps: 4, FoldSeed: 99,
				GibbsEvery: 3, GibbsSweeps: 1, Workers: 1, BaseGraph: g,
			})
			if err != nil {
				t.Fatal(err)
			}
			return e, j, u
		}
		e, j, u := open()
		var files [][]byte
		for i, w := range windows {
			if i == restartAfter {
				u.Close()
				j.Close()
				e.Close()
				e, j, u = open()
			}
			if _, err := u.Ingest(w); err != nil {
				t.Fatal(err)
			}
			info, err := u.Publish()
			if err != nil {
				t.Fatal(err)
			}
			if info == nil || info.Generation != uint64(i+1) {
				t.Fatalf("restart after window %d: publish %d returned %+v", restartAfter, i+1, info)
			}
			file, err := os.ReadFile(info.Path)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, file)
		}
		u.Close()
		j.Close()
		e.Close()
		return files
	}
	want := run(-1)
	for restartAfter := 1; restartAfter < len(windows); restartAfter++ {
		got := run(restartAfter)
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("restart after window %d: generation %d (%d bytes) differs from the run without a restart (%d bytes)",
					restartAfter, i+1, len(got[i]), len(want[i]))
			}
		}
	}
}

// restartRig runs updater processes one after another over one journal
// and one snapshot directory, each with a fresh engine that holds only the
// base model, as a restarted server would.
type restartRig struct {
	t    *testing.T
	path string
	dir  string
	m    *core.Model
}

func newRestartRig(t *testing.T, m *core.Model) *restartRig {
	return &restartRig{t: t, path: filepath.Join(t.TempDir(), "events.wal"), dir: t.TempDir(), m: m}
}

// open starts one process; everything it opens is closed at cleanup.
func (r *restartRig) open() (*serve.Engine, *Journal, *Updater) {
	r.t.Helper()
	e := serve.New(r.m, nil, serve.Options{})
	r.t.Cleanup(e.Close)
	j, err := OpenJournal(r.path, JournalOptions{})
	if err != nil {
		r.t.Fatal(err)
	}
	r.t.Cleanup(func() { j.Close() })
	u, err := NewUpdater(j, Options{Engine: e, Dir: r.dir, FoldSweeps: 8, FoldSeed: 99})
	if err != nil {
		r.t.Fatal(err)
	}
	r.t.Cleanup(u.Close)
	return e, j, u
}

// stop ends a process: the updater and its journal close.
func (r *restartRig) stop(j *Journal, u *Updater) {
	u.Close()
	if err := j.Close(); err != nil {
		r.t.Fatal(err)
	}
}

// TestRestartServesNewestGeneration: a restart serves the newest
// committed generation at once. Over a fresh engine holding only the base,
// a streamed user answers before any publish, with the newest generation's
// row; the slot reports that generation, nobody is dirty, nothing is
// pending, and a Publish commits nothing.
func TestRestartServesNewestGeneration(t *testing.T) {
	g, m := testBase(t)
	evs := streamFixture(g, m)
	r := newRestartRig(t, m)
	e1, j, u := r.open()
	for _, w := range [][]Event{evs[:5], evs[5:]} {
		if _, err := u.Ingest(w); err != nil {
			t.Fatal(err)
		}
		if _, err := u.Publish(); err != nil {
			t.Fatal(err)
		}
	}
	want, err := e1.MembershipIn(serve.DefaultSnapshot, m.NumUsers, 3)
	if err != nil {
		t.Fatal(err)
	}
	r.stop(j, u)

	e2, _, u := r.open()
	got, err := e2.MembershipIn(serve.DefaultSnapshot, m.NumUsers, 3)
	if err != nil {
		t.Fatalf("the streamed user does not answer after the restart: %v", err)
	}
	if got.Generation != 2 || !reflect.DeepEqual(got.Communities, want.Communities) {
		t.Fatalf("after the restart the slot serves generation %d with %v; want generation 2 with %v",
			got.Generation, got.Communities, want.Communities)
	}
	if st := u.Status(); st.PendingEvents != 0 || st.DirtyUsers != 0 || st.Generation != 2 {
		t.Fatalf("status after the restart: %d pending, %d dirty, generation %d; want 0, 0, 2",
			st.PendingEvents, st.DirtyUsers, st.Generation)
	}
	if info, err := u.Publish(); info != nil || err != nil {
		t.Fatalf("a publish with nothing pending after the restart: %+v, %v", info, err)
	}
	if gens, err := shard.ScanManifests(r.dir); err != nil || !reflect.DeepEqual(gens, []uint64{1, 2}) {
		t.Fatalf("manifests %v (%v) after the restart, want [1 2]", gens, err)
	}
}

// TestRestartWithoutGenerationFileReplaysEverything: with the newest generation's file gone,
// a restart extends the base as a first start would — every stream user
// dirty, every event pending, nothing streamed served — and its first
// publish serves the same memberships as the run that never stopped.
func TestRestartWithoutGenerationFileReplaysEverything(t *testing.T) {
	g, m := testBase(t)
	evs := streamFixture(g, m)
	r := newRestartRig(t, m)
	_, j, u := r.open()
	for _, w := range [][]Event{evs[:6], evs[6:]} {
		if _, err := u.Ingest(w); err != nil {
			t.Fatal(err)
		}
		if _, err := u.Publish(); err != nil {
			t.Fatal(err)
		}
	}
	want := u.Model()
	r.stop(j, u)
	if err := os.Remove(store.GenPath(r.dir, 2)); err != nil {
		t.Fatal(err)
	}

	e, _, u := r.open()
	if n := requireDirtyCount(t, "after a restart without a generation file", u); n != len(u.users) {
		t.Fatalf("%d of %d stream users dirty after a restart that adopted nothing", n, len(u.users))
	}
	if u.Pending() != len(evs) {
		t.Fatalf("%d events pending after a restart that adopted nothing, want all %d", u.Pending(), len(evs))
	}
	if _, err := e.MembershipIn(serve.DefaultSnapshot, m.NumUsers, 3); err == nil {
		t.Fatal("a streamed user answers before the first publish of a restart that adopted nothing")
	}
	info, err := u.Publish()
	if err != nil {
		t.Fatal(err)
	}
	if info == nil || info.Generation != 3 {
		t.Fatalf("the first publish after the restart: %+v, want generation 3", info)
	}
	if got := u.Model(); !reflect.DeepEqual(got.Pi.Data, want.Pi.Data) {
		t.Fatal("the replay after the restart disagrees with the run that never stopped")
	}
	if _, err := e.MembershipIn(serve.DefaultSnapshot, m.NumUsers, 3); err != nil {
		t.Fatalf("the streamed user is still invisible after the publish: %v", err)
	}
}

// TestRestartAdoptsAGenerationPastTheWatermark: a crash after a manifest
// commit and before the watermark write leaves a generation that covers
// events past the watermark. The restart adopts it — its user and
// document counts lie between the watermark's and the journal's — and
// leaves the events past the watermark pending, to be re-folded into the
// next generation.
func TestRestartAdoptsAGenerationPastTheWatermark(t *testing.T) {
	g, m := testBase(t)
	evs := streamFixture(g, m)
	r := newRestartRig(t, m)
	_, j, u := r.open()
	if _, err := u.Ingest(evs[:5]); err != nil {
		t.Fatal(err)
	}
	if _, err := u.Publish(); err != nil {
		t.Fatal(err)
	}
	mark := j.Watermark()
	if _, err := u.Ingest(evs[5:]); err != nil {
		t.Fatal(err)
	}
	if _, err := u.Publish(); err != nil {
		t.Fatal(err)
	}
	if err := j.SetWatermark(mark); err != nil { // the write the crash lost
		t.Fatal(err)
	}
	r.stop(j, u)

	e, _, u := r.open()
	if res, err := e.MembershipIn(serve.DefaultSnapshot, m.NumUsers+1, 3); err != nil || res.Generation != 2 {
		t.Fatalf("after the restart: %+v, %v; want generation 2 served", res, err)
	}
	if u.Pending() != len(evs)-5 {
		t.Fatalf("%d events pending after the restart, want the %d past the watermark", u.Pending(), len(evs)-5)
	}
	info, err := u.Publish()
	if err != nil {
		t.Fatal(err)
	}
	if info == nil || info.Generation != 3 || info.Users != m.NumUsers+2 {
		t.Fatalf("the publish after the restart: %+v, want generation 3 over %d users", info, m.NumUsers+2)
	}
}

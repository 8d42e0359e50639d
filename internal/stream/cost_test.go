package stream

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/serve"
)

// These are the write path's O(changed) guards on columns that do not
// depend on the host: allocation counts. A publish or an ingest call that
// starts walking the model or the stream population again moves them by
// orders of magnitude, not by percent.

// costUpdater stands up the benchmark's publisher configuration (snapshot
// files, a 3-shard group, mapped promotes) over a synthetic base.
func costUpdater(t *testing.T, base *core.Model) *Updater {
	t.Helper()
	engine := serve.New(base, nil, serve.Options{Mmap: true})
	t.Cleanup(engine.Close)
	j, err := OpenJournal(filepath.Join(t.TempDir(), "events.wal"), JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	u, err := NewUpdater(j, Options{
		Engine: engine, Base: base, FoldSweeps: 4, FoldSeed: 5,
		Dir: t.TempDir(), Shards: 3, Mmap: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(u.Close)
	return u
}

// mallocsDuring counts heap allocations made while fn runs.
func mallocsDuring(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestIncrementalPublishAllocationsIndependentOfBase: re-folding 64 users
// spread evenly over the base, so every shard file is rewritten and the
// others are linked alike, allocates the same — within 10 % — on a
// 5 000-user and on a 20 000-user base.
func TestIncrementalPublishAllocationsIndependentOfBase(t *testing.T) {
	words := []int32{3, 14, 15, 92, 65}
	window := func(users, round int) []Event {
		evs := make([]Event, 64)
		for i := range evs {
			evs[i] = Event{Type: EvAddDoc, User: int32(i * users / len(evs)), Time: int64(round), Words: words}
		}
		return evs
	}
	publishAllocs := func(users int) uint64 {
		u := costUpdater(t, serve.SyntheticModel(users, 16, 8, 200, 7))
		var n uint64
		for round := 0; round < 3; round++ { // the first publish is a full one
			if _, err := u.Ingest(window(users, round)); err != nil {
				t.Fatal(err)
			}
			n = mallocsDuring(func() {
				info, err := u.Publish()
				if err != nil {
					t.Fatal(err)
				}
				if round > 0 && (!info.Incremental || info.Folded != 64) {
					t.Fatalf("publish %d on %d users: %+v, want an incremental publish folding 64 users", round, users, info)
				}
			})
		}
		return n
	}
	small, large := publishAllocs(5000), publishAllocs(20000)
	t.Logf("one incremental publish: %d allocations on 5000 users, %d on 20000", small, large)
	if diff := max(small, large) - min(small, large); diff*10 > small {
		t.Fatalf("an incremental publish of the same 64 users allocates %d times on a 5000-user base and %d on a 20000-user one", small, large)
	}
}

// TestIngestAllocationsIndependentOfStreamUsers: an Ingest call costs the
// same however many stream users the updater has already seen.
func TestIngestAllocationsIndependentOfStreamUsers(t *testing.T) {
	base := serve.SyntheticModel(6000, 8, 4, 50, 3)
	ingestAllocs := func(seen int) float64 {
		u := costUpdater(t, base)
		evs := make([]Event, seen)
		for i := range evs {
			evs[i] = Event{Type: EvAddDoc, User: int32(i), Words: []int32{1, 2}}
		}
		if _, err := u.Ingest(evs); err != nil {
			t.Fatal(err)
		}
		one := []Event{{Type: EvAddEdge, User: 0, Target: 1}}
		return testing.AllocsPerRun(200, func() {
			if _, err := u.Ingest(one); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := ingestAllocs(20), ingestAllocs(5000); few != many {
		t.Fatalf("Ingest allocates %.0f times with 20 stream users seen and %.0f with 5000", few, many)
	}
}

// TestPublishPhasesSeparateShardAndOpen: with a shard group and mapped
// promotes configured, the shard emit and the map of the written file are
// their own phases (they used to be booked on indexMicros); the phases
// still sum to no more than the publish's wall time, and an updater with
// neither configured omits both from its JSON. What runs between the
// promote and Publish's return — the watermark write, and from the fourth
// generation on the unlinking of the files KeepSnapshots no longer covers —
// is reported too, outside the total.
func TestPublishPhasesSeparateShardAndOpen(t *testing.T) {
	u := costUpdater(t, serve.SyntheticModel(300, 8, 4, 50, 3))
	for round := 0; round < 5; round++ {
		if _, err := u.Ingest([]Event{{Type: EvAddDoc, User: 7, Time: int64(round), Words: []int32{1, 2, 3}}}); err != nil {
			t.Fatal(err)
		}
		if _, err := u.Publish(); err != nil {
			t.Fatal(err)
		}
		ph := u.Status().LastPublishPhases
		if ph == nil || ph.ShardMicros <= 0 || ph.OpenMicros <= 0 {
			t.Fatalf("publish %d: shard/open phases not reported: %+v", round, ph)
		}
		sum := ph.SyncMicros + ph.FoldMicros + ph.GibbsMicros + ph.ModelMicros + ph.SaveMicros +
			ph.ShardMicros + ph.OpenMicros + ph.IndexMicros + ph.PromoteMicros
		if sum > ph.TotalMicros {
			t.Fatalf("publish %d: phases sum to %d µs, more than the %d µs total: %+v", round, sum, ph.TotalMicros, ph)
		}
		if ph.WatermarkMicros <= 0 || round >= 3 && ph.PruneMicros <= 0 {
			t.Fatalf("publish %d: watermark/prune phases not reported: %+v", round, ph)
		}
	}

	g, m := testBase(t)
	_, _, plain := newTestUpdater(t, g, m, nil)
	if _, err := plain.Ingest(streamFixture(g, m)); err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Publish(); err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(plain.Status().LastPublishPhases)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte("shardMicros")) || bytes.Contains(raw, []byte("openMicros")) || !bytes.Contains(raw, []byte(`"indexMicros"`)) ||
		!bytes.Contains(raw, []byte(`"watermarkMicros"`)) || !bytes.Contains(raw, []byte(`"pruneMicros"`)) {
		t.Fatalf("in-memory publish phases: %s", raw)
	}
}

// recountDirty counts dirty users the slow way, from the user states.
func recountDirty(u *Updater) int {
	u.mu.Lock()
	defer u.mu.Unlock()
	n := 0
	for _, us := range u.users {
		if us.dirty {
			n++
		}
	}
	return n
}

var dirtyGauge = regexp.MustCompile(`(?m)^cpd_ingest_dirty_users (\d+)$`)

// requireDirtyCount holds Status().DirtyUsers and the cpd_ingest_dirty_users
// gauge to a recount from the user states, and returns the count.
func requireDirtyCount(t *testing.T, when string, u *Updater) int {
	t.Helper()
	want := recountDirty(u)
	if got := u.Status().DirtyUsers; got != want {
		t.Fatalf("%s: Status().DirtyUsers = %d, recount from user states %d", when, got, want)
	}
	var buf strings.Builder
	u.WriteMetrics(&buf)
	match := dirtyGauge.FindStringSubmatch(buf.String())
	if match == nil {
		t.Fatalf("%s: no cpd_ingest_dirty_users gauge in\n%s", when, buf.String())
	}
	if got, _ := strconv.Atoi(match[1]); got != want {
		t.Fatalf("%s: cpd_ingest_dirty_users = %d, recount from user states %d", when, got, want)
	}
	return want
}

// TestDirtyUsersCountOnEveryPath walks the maintained dirty-user count
// through every place a dirty flag flips — apply, fold, a fold that fails
// after clearing the doc-less users, a replay from the journal base, and
// restarts on a checkpoint with and without dirty flags in it — recounting
// from the user states each time.
func TestDirtyUsersCountOnEveryPath(t *testing.T) {
	g, m := testBase(t)
	evs := streamFixture(g, m)
	path := filepath.Join(t.TempDir(), "events.wal")
	engine := serve.New(m, nil, serve.Options{})
	defer engine.Close()
	open := func() (*Journal, *Updater) {
		j, err := OpenJournal(path, JournalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		u, err := NewUpdater(j, Options{Engine: engine, Base: m, FoldSweeps: 4, FoldSeed: 99})
		if err != nil {
			t.Fatal(err)
		}
		return j, u
	}

	j, u := open()
	if n := requireDirtyCount(t, "fresh updater", u); n != 0 {
		t.Fatalf("fresh updater has %d dirty users", n)
	}
	if _, err := u.Ingest(evs[:6]); err != nil {
		t.Fatal(err)
	}
	if n := requireDirtyCount(t, "after ingest", u); n != 3 { // the two new users and base user 0
		t.Fatalf("%d dirty users after the first batch, want 3", n)
	}
	u.Close()
	j.Close()

	// No checkpoint yet: the restart replays from the journal base and
	// marks every replayed user dirty.
	j, u = open()
	if n := requireDirtyCount(t, "after a replay from base", u); n != 3 {
		t.Fatalf("%d dirty users after replaying the journal from its base, want 3", n)
	}
	if _, err := u.Publish(); err != nil {
		t.Fatal(err)
	}
	if n := requireDirtyCount(t, "after publish", u); n != 0 {
		t.Fatalf("%d dirty users after a successful publish", n)
	}

	// A fold that fails: the slot is gone, so every fold-in errors — after
	// the doc-less dirty users (base user 3, touched by an edge only) were
	// already cleared.
	if _, err := u.Ingest(evs[6:]); err != nil {
		t.Fatal(err)
	}
	before := requireDirtyCount(t, "after the second batch", u)
	engine.DropSnapshot(serve.DefaultSnapshot)
	if _, err := u.Publish(); err == nil {
		t.Fatal("publish succeeded without a snapshot to fold against")
	}
	if after := requireDirtyCount(t, "after the failed fold", u); after <= 0 || after >= before {
		t.Fatalf("%d dirty users before the failed fold, %d after; want some cleared and some left", before, after)
	}
	engine.SwapNamed(serve.DefaultSnapshot, m, nil)
	if err := u.Checkpoint(); err != nil { // publishes the rest, compacts
		t.Fatal(err)
	}
	requireDirtyCount(t, "after checkpoint", u)

	// A restart on a checkpoint adopts its state — a checkpoint compacts the
	// journal down to its watermark, so nothing replays — and nobody is
	// dirty: the first publish after it re-folds nobody.
	u.Close()
	j.Close()
	j, u = open()
	if j.Base() != j.Watermark() {
		t.Fatal("the checkpoint left the journal uncompacted")
	}
	if n := requireDirtyCount(t, "after a restart on a checkpoint", u); n != 0 {
		t.Fatalf("%d dirty users after restoring a checkpoint taken after a publish", n)
	}

	// One more window dirties its own users only, and a checkpoint that
	// carries a dirty flag is restored as such. A checkpoint follows a
	// publish, so the flag has to be planted.
	if _, err := u.Ingest([]Event{{Type: EvAddEdge, User: 5, Target: 6}}); err != nil {
		t.Fatal(err)
	}
	if n := requireDirtyCount(t, "after the window that follows the restart", u); n != 2 {
		t.Fatalf("%d dirty users after one edge between two base users, want 2", n)
	}
	if _, err := u.Publish(); err != nil {
		t.Fatal(err)
	}
	u.mu.Lock()
	u.setDirtyLocked(u.users[2], true)
	u.refreshStatusLocked()
	u.mu.Unlock()
	if err := u.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	u.Close()
	j.Close()
	j, u = open()
	defer j.Close()
	defer u.Close()
	if n := requireDirtyCount(t, "after restoring the checkpoint", u); n != 1 {
		t.Fatalf("%d dirty users restored from a checkpoint holding 1", n)
	}
}

// TestRestartAfterCheckpointRefoldsOnlyTheNewWindow: ingest, publish,
// checkpoint, restart, one more window, publish. The restart must cost
// nothing — the publish after it folds the users of that window only, the
// same number as without the restart, and writes the same bytes.
func TestRestartAfterCheckpointRefoldsOnlyTheNewWindow(t *testing.T) {
	g, m := testBase(t)
	evs := streamFixture(g, m)
	run := func(restart bool) (folded int, file []byte) {
		path := filepath.Join(t.TempDir(), "events.wal")
		dir := t.TempDir()
		engine := serve.New(m, nil, serve.Options{})
		defer engine.Close()
		open := func() (*Journal, *Updater) {
			j, err := OpenJournal(path, JournalOptions{})
			if err != nil {
				t.Fatal(err)
			}
			u, err := NewUpdater(j, Options{Engine: engine, Base: m, FoldSweeps: 4, FoldSeed: 99, Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			return j, u
		}
		j, u := open()
		if _, err := u.Ingest(evs[:6]); err != nil {
			t.Fatal(err)
		}
		first, err := u.Publish()
		if err != nil {
			t.Fatal(err)
		}
		if err := u.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if restart {
			u.Close()
			j.Close()
			j, u = open()
			if n := requireDirtyCount(t, "after the restart", u); n != 0 {
				t.Fatalf("%d dirty users after a restart on a checkpoint", n)
			}
		}
		defer j.Close()
		defer u.Close()
		if _, err := u.Ingest(evs[6:]); err != nil {
			t.Fatal(err)
		}
		dirty := requireDirtyCount(t, "after the second window", u)
		info, err := u.Publish()
		if err != nil {
			t.Fatal(err)
		}
		if info.Folded > dirty || info.Folded >= first.Folded+dirty {
			t.Fatalf("restart=%v: the second publish folded %d users; its window dirtied %d and the first publish folded %d",
				restart, info.Folded, dirty, first.Folded)
		}
		file, err = os.ReadFile(info.Path)
		if err != nil {
			t.Fatal(err)
		}
		return info.Folded, file
	}
	folded, file := run(false)
	foldedRestarted, fileRestarted := run(true)
	if foldedRestarted != folded {
		t.Fatalf("the publish after a restart folded %d users, %d without the restart", foldedRestarted, folded)
	}
	if !bytes.Equal(fileRestarted, file) {
		t.Fatalf("the snapshot published after a restart (%d bytes) differs from the one published without it (%d bytes)",
			len(fileRestarted), len(file))
	}
}

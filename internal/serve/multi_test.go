package serve

import (
	"errors"

	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/store"
)

// saveV2Model writes a synthetic model as a v2 snapshot and returns the
// path.
func saveV2Model(t *testing.T, dir, name string, users, C, Z, V int, seed uint64) string {
	t.Helper()
	m := SyntheticModel(users, C, Z, V, seed)
	path := filepath.Join(dir, name)
	if err := store.SaveV2(path, m); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestMultiSnapshotEngine(t *testing.T) {
	mA := SyntheticModel(40, 6, 5, 300, 1)
	mB := SyntheticModel(25, 4, 3, 200, 2)
	e := NewMulti(Options{})
	defer e.Close()
	if _, _, err := e.AcquireNamed(DefaultSnapshot); err == nil {
		t.Fatal("empty engine handed out a snapshot")
	}
	e.SwapNamed("eu", mA, nil)
	e.SwapNamed("us", mB, nil)
	if got := e.Names(); !reflect.DeepEqual(got, []string{"eu", "us"}) {
		t.Fatalf("Names() = %v", got)
	}

	// Queries route by name and answer from the right model.
	resEU, err := e.MembershipIn("eu", 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if resEU.Communities[0].Community != mA.TopCommunity(0) {
		t.Fatal("eu membership does not come from model A")
	}
	resUS, err := e.MembershipIn("us", 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if resUS.Communities[0].Community != mB.TopCommunity(0) {
		t.Fatal("us membership does not come from model B")
	}

	// Unknown names fail with the typed error; the default slot was never
	// created.
	var noSnap *ErrNoSnapshot
	if _, err := e.MembershipIn("asia", 0, 3); !errors.As(err, &noSnap) {
		t.Fatalf("unknown snapshot error = %v", err)
	}
	if _, err := e.MembershipIn(DefaultSnapshot, 0, 3); !errors.As(err, &noSnap) {
		t.Fatalf("default snapshot error = %v", err)
	}

	// Per-snapshot accounting.
	infos := e.SnapshotsInfo()
	if len(infos) != 2 || infos[0].Name != "eu" || infos[1].Name != "us" {
		t.Fatalf("SnapshotsInfo = %+v", infos)
	}
	if infos[0].Users != 40 || infos[1].Users != 25 {
		t.Fatalf("snapshot stats users wrong: %+v", infos)
	}
	if infos[0].HeapBytes <= 0 || infos[0].Mapped {
		t.Fatalf("heap snapshot accounting wrong: %+v", infos[0])
	}

	// Dropping a slot makes its queries fail, leaves the other alive.
	if !e.DropSnapshot("us") {
		t.Fatal("DropSnapshot(us) found nothing")
	}
	if e.DropSnapshot("us") {
		t.Fatal("DropSnapshot(us) dropped twice")
	}
	if _, err := e.MembershipIn("us", 0, 3); !errors.As(err, &noSnap) {
		t.Fatalf("dropped snapshot still answers: %v", err)
	}
	if _, err := e.MembershipIn("eu", 0, 3); err != nil {
		t.Fatalf("surviving snapshot broken: %v", err)
	}
}

func TestHTTPSnapshotRouting(t *testing.T) {
	e := NewMulti(Options{})
	defer e.Close()
	e.SwapNamed(DefaultSnapshot, SyntheticModel(30, 5, 4, 200, 3), nil)
	e.SwapNamed("eu", SyntheticModel(20, 3, 3, 100, 4), nil)
	h := APIHandler(e, nil)

	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec
	}
	if rec := get("/api/user?id=0"); rec.Code != http.StatusOK {
		t.Fatalf("default query: %d %s", rec.Code, rec.Body)
	}
	if rec := get("/api/user?id=0&snapshot=eu"); rec.Code != http.StatusOK {
		t.Fatalf("named query: %d %s", rec.Code, rec.Body)
	}
	// User 25 exists only in the default model.
	if rec := get("/api/user?id=25"); rec.Code != http.StatusOK {
		t.Fatalf("default-only user: %d", rec.Code)
	}
	if rec := get("/api/user?id=25&snapshot=eu"); rec.Code != http.StatusBadRequest {
		t.Fatalf("out-of-range user on eu: %d", rec.Code)
	}
	if rec := get("/api/user?id=0&snapshot=nope"); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown snapshot: %d", rec.Code)
	}
	if rec := get("/api/snapshots"); rec.Code != http.StatusOK {
		t.Fatalf("/api/snapshots: %d", rec.Code)
	}
	if rec := get("/api/stats"); rec.Code != http.StatusOK {
		t.Fatalf("/api/stats: %d", rec.Code)
	}
	if rec := get("/healthz?snapshot=eu"); rec.Code != http.StatusOK {
		t.Fatalf("/healthz?snapshot=eu: %d", rec.Code)
	}
	if rec := get("/healthz?snapshot=nope"); rec.Code != http.StatusNotFound {
		t.Fatalf("/healthz?snapshot=nope: %d", rec.Code)
	}

	// Liveness must not depend on a slot named "default": a server
	// hosting only named snapshots is healthy.
	named := NewMulti(Options{})
	defer named.Close()
	named.SwapNamed("eu", SyntheticModel(10, 3, 3, 50, 5), nil)
	nh := APIHandler(named, nil)
	rec := httptest.NewRecorder()
	nh.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/healthz on a named-only engine: %d %s", rec.Code, rec.Body)
	}
}

// TestMappedSnapshotRefcount pins the mapping lifetime contract: a mapped
// snapshot's file stays mapped while any query holds it, and is closed
// exactly when the last reference goes.
func TestMappedSnapshotRefcount(t *testing.T) {
	dir := t.TempDir()
	path := saveV2Model(t, dir, "m.v2.snap", 30, 5, 4, 200, 7)

	mmA, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	e := NewMulti(Options{})
	defer e.Close()
	e.SwapMapped(DefaultSnapshot, mmA, nil)

	s, release, err := e.AcquireNamed(DefaultSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Mapped() && mmA.Mapped() {
		t.Fatal("snapshot lost the mapped flag")
	}
	// What a mapped snapshot keeps on the heap, as /api/stats reports it:
	// caches, indexes and the two logarithm tables fold-in reads.
	tables := 8 * int64(len(s.Model.Theta.Data)+len(s.Model.Phi.Data))
	if want := s.Model.CacheBytes() + s.index.Bytes() + s.users.bytes() + tables; s.Mapped() && e.SnapshotsInfo()[0].HeapBytes != want {
		t.Fatalf("mapped snapshot reports %d heap bytes, want %d (log Θ and log Φ are %d of them)", e.SnapshotsInfo()[0].HeapBytes, want, tables)
	}

	// Swap in a second mapped model; the first must stay open while the
	// query pin exists.
	mmB, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	e.SwapMapped(DefaultSnapshot, mmB, nil)
	if mmA.Closed() {
		t.Fatal("retired snapshot unmapped while a query held it")
	}
	// The pinned snapshot must still answer from valid memory.
	if _, err := s.Membership(0, 3); err != nil {
		t.Fatal(err)
	}
	release()
	if !mmA.Closed() {
		t.Fatal("retired snapshot not unmapped after the last release")
	}
	if mmB.Closed() {
		t.Fatal("live snapshot closed")
	}

	// Dropping the slot releases the engine's reference too.
	e.DropSnapshot(DefaultSnapshot)
	if !mmB.Closed() {
		t.Fatal("dropped snapshot not unmapped")
	}
}

// TestMappedEngineConcurrentSwap is the race-suite proof for the
// refcounted unmap: query hammers run against two named mapped snapshots
// while writers reload them continuously through LoadGeneration's mmap
// path, and a chaos goroutine drops and recreates one slot. Run with -race this
// demonstrates no query ever touches an unmapped page and no counter
// races.
func TestMappedEngineConcurrentSwap(t *testing.T) {
	dir := t.TempDir()
	paths := map[string]string{
		"eu": saveV2Model(t, dir, "eu.v2.snap", 40, 6, 5, 400, 11),
		"us": saveV2Model(t, dir, "us.v2.snap", 30, 5, 4, 300, 12),
	}
	e := NewMulti(Options{Mmap: true, FoldInWorkers: 2})
	defer e.Close()
	for name, p := range paths {
		if _, err := e.LoadGeneration(name, p, nil, 0); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	report := func(msg string) {
		select {
		case errs <- msg:
		default:
		}
	}

	// Query hammers: rank + membership + fold-in against both names.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			names := []string{"eu", "us"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				name := names[(g+i)%2]
				if _, err := e.RankIn(name, []int32{int32(i % 100)}, 3); err != nil {
					var noSnap *ErrNoSnapshot
					if !errors.As(err, &noSnap) {
						report("rank: " + err.Error())
						return
					}
				}
				if _, err := e.MembershipIn(name, i%20, 3); err != nil {
					var noSnap *ErrNoSnapshot
					if !errors.As(err, &noSnap) {
						report("membership: " + err.Error())
						return
					}
				}
				if i%7 == 0 {
					_, err := e.FoldInNamed(name, &FoldInRequest{
						Docs: [][]int32{{1, 2, 3}}, Seed: uint64(i), Sweeps: 2,
					})
					if err != nil {
						var noSnap *ErrNoSnapshot
						if !errors.As(err, &noSnap) {
							report("foldin: " + err.Error())
							return
						}
					}
				}
			}
		}(g)
	}

	// Writers: continuous mapped reloads of both slots.
	for _, name := range []string{"eu", "us"} {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := e.LoadGeneration(name, paths[name], nil, 0); err != nil {
					report("reload: " + err.Error())
					return
				}
			}
		}(name)
	}

	// Chaos: drop and recreate one slot.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			e.DropSnapshot("us")
			if _, err := e.LoadGeneration("us", paths["us"], nil, 0); err != nil {
				report("recreate: " + err.Error())
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	time.Sleep(400 * time.Millisecond)
	close(stop)
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}

	// Quiesced engine: exactly two live snapshots, each at refcount 0
	// beyond the slot's own.
	for _, info := range e.SnapshotsInfo() {
		if info.Refs != 0 {
			t.Fatalf("snapshot %s still holds %d query refs after quiesce", info.Name, info.Refs)
		}
	}
}

package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/router"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/stream"
)

// FleetPreset names one routed-serving regime: a base population and a
// fleet of Shards × Replicas serve processes behind internal/router. The
// run drives the whole pipeline — train → publish → fetch → route →
// query — and pins the distribution invariant: every answer served
// THROUGH the router is bit-identical to a single full node answering
// from the same generation file, on both sides of a live rollout.
type FleetPreset struct {
	Name        string
	Description string

	// Base is the underlying population preset; BaseFraction of its users
	// train the frozen base model, the rest arrive as stream events split
	// across the run's two generations.
	Base         Preset
	BaseFraction float64

	// Shards is the number of user ranges. At 1 the fleet is fully
	// replicated: each generation's manifest names the full file as its
	// only shard, which every replica fetches as shard 0, as cpd-serve
	// -fetch does. Above 1 the publisher also emits each generation as a
	// group and each replica fetches the global file plus its own shard
	// (cpd-serve -fetch-shard), mapping ~1/Shards of the user payload.
	Shards int
	// Replicas is how many replicas serve each shard: replica i of the
	// Shards × Replicas fleet serves shard i mod Shards.
	Replicas int
}

// FleetPresets returns the routed-serving regimes the suite runs.
func FleetPresets() []FleetPreset {
	bp, err := Lookup("uniform")
	if err != nil {
		panic(err)
	}
	mk := func(name, desc string, shards, replicas int) FleetPreset {
		return FleetPreset{Name: name, Description: desc, Base: bp, BaseFraction: 0.75, Shards: shards, Replicas: replicas}
	}
	return []FleetPreset{
		mk("tri-replica", "three full-snapshot replicas (one shard, three owners) behind the router: "+
			"bit-equality vs a single node across a live generation rollout and with one replica down", 1, 3),
		mk("sharded-fleet", "three shard-owning replicas behind the router: bit-equality vs a single full node "+
			"across a live generation rollout, the mapped-bytes budget and the drain latch", 3, 1),
		mk("replicated-shards", "two shards with two owners each: bit-equality vs a single full node across "+
			"a live generation rollout and after one of shard 0's owners dies", 2, 2),
	}
}

// LookupFleet resolves a fleet preset by name.
func LookupFleet(name string) (FleetPreset, error) {
	var names []string
	for _, p := range FleetPresets() {
		if p.Name == name {
			return p, nil
		}
		names = append(names, p.Name)
	}
	return FleetPreset{}, fmt.Errorf("scenario: unknown fleet preset %q (have %v)", name, names)
}

// FleetMetrics is one fleet run's measurement.
type FleetMetrics struct {
	Preset   string `json:"preset"`
	Shards   int    `json:"shards"`
	Replicas int    `json:"replicas"`
	// Generations is the final fleet generation (the rollout count).
	Generations uint64 `json:"generations"`
	// EqualityChecks counts routed-vs-single-node comparisons that ran
	// (memberships, rankings, diffusions and fold-ins, per generation, and
	// again with one replica down when shards have several).
	EqualityChecks int `json:"equalityChecks"`
	// ReadQueries/ReadErrors account the read hammer that runs through the
	// router DURING the generation rollout; the invariant is zero errors.
	ReadQueries uint64 `json:"readQueries"`
	ReadErrors  uint64 `json:"readErrors"`
	// Misroutes is the fleet-wide 421 count the router observed.
	Misroutes uint64 `json:"misroutes"`
	// FullBytes/GlobalBytes are the final generation's full snapshot and
	// global shard-file sizes; MaxReplicaMappedBytes the largest mapped
	// footprint any replica carried — the ~N-fold memory win the format
	// exists for (≤ full/N + global, plus imbalance slack). Sharded
	// fleets only.
	FullBytes             int64 `json:"fullBytes,omitempty"`
	GlobalBytes           int64 `json:"globalBytes,omitempty"`
	MaxReplicaMappedBytes int64 `json:"maxReplicaMappedBytes,omitempty"`
}

// fleetReplica bundles one fleet member's moving parts.
type fleetReplica struct {
	engine  *serve.Engine
	fetcher *serve.Fetcher
	srv     *httptest.Server
}

// RunFleet executes one fleet preset end to end:
//
//  1. train the base model and publish generation 1 through a real
//     stream.Updater — the full file, plus the shard group when Shards
//     is above 1;
//  2. start Shards × Replicas serve engines, each pulling its generation
//     through serve.Fetcher (CRC-verified, atomically swapped):
//     the full file, or the global file plus the replica's own shard;
//  3. front them with internal/router and verify membership (every
//     user), rank (Members summed across shards), diffusion (same-shard
//     and cross-shard pairs) and fold-in (without friends, and with
//     friends spanning shards) are bit-identical to a single full node on
//     the same generation file;
//  4. roll the fleet to generation 2 under a routed read hammer — zero
//     read errors tolerated — and re-verify bit-equality;
//  5. on a sharded fleet, hold each replica to the mapped-bytes budget;
//     with several replicas per shard, close one of shard 0's and
//     re-verify everything with zero 5xx; on a sharded fleet, check the
//     drain latch takes a replica out of preferred rotation while its
//     shard's users still answer.
func RunFleet(p FleetPreset, opts RunOptions) (*FleetMetrics, error) {
	if p.Shards < 1 || p.Replicas < 1 || p.Shards*p.Replicas < 2 {
		return nil, fmt.Errorf("scenario %s: a fleet run needs at least 2 replicas", p.Name)
	}
	b, err := Build(p.Base)
	if err != nil {
		return nil, err
	}
	g := b.Graph
	baseUsers := int(float64(g.NumUsers) * p.BaseFraction)
	if baseUsers < 2 || baseUsers >= g.NumUsers {
		return nil, fmt.Errorf("scenario %s: base fraction %.2f leaves no streamed users", p.Name, p.BaseFraction)
	}
	baseG, docMap, held := prefixGraph(g, baseUsers, nil)
	baseModel, _, err := core.Train(baseG, p.Base.Train)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: base training failed: %w", p.Name, err)
	}
	evs, _ := buildStreamEvents(g, baseUsers, docMap, held)
	half := len(evs) / 2

	scratch, err := os.MkdirTemp(opts.Dir, "cpd-fleet-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	snapDir := filepath.Join(scratch, "snapshots")
	if err := os.MkdirAll(snapDir, 0o755); err != nil {
		return nil, err
	}

	// The publisher: a real updater journaling into snapDir, exactly what
	// a cpd-serve -ingest (-ingest-shards when Shards > 1) process runs.
	pubEngine := serve.New(baseModel, b.Vocab, serve.Options{})
	defer pubEngine.Close()
	j, err := stream.OpenJournal(filepath.Join(scratch, "events.wal"), stream.JournalOptions{})
	if err != nil {
		return nil, err
	}
	defer j.Close()
	u, err := stream.NewUpdater(j, stream.Options{
		Engine:       pubEngine,
		Base:         baseModel,
		Vocab:        b.Vocab,
		WindowEvents: len(evs) + 16, // publish manually, per generation
		FoldSweeps:   10,
		FoldSeed:     p.Base.Synth.Seed,
		BaseGraph:    baseG,
		Workers:      2,
		Dir:          snapDir,
		Shards:       p.Shards, // 1: the manifest names the full file
	})
	if err != nil {
		return nil, err
	}
	defer u.Close()

	if _, err := u.Ingest(evs[:half]); err != nil {
		return nil, fmt.Errorf("scenario %s: generation-1 ingest failed: %w", p.Name, err)
	}
	if _, err := u.Publish(); err != nil {
		return nil, fmt.Errorf("scenario %s: generation-1 publish failed: %w", p.Name, err)
	}

	// The fleet: replica i serves shard i mod Shards through its own
	// fetcher and the standard JSON API.
	var reps []*fleetReplica
	var routerReps []router.Replica
	defer func() {
		for _, r := range reps {
			r.srv.Close()
			r.engine.Close()
		}
	}()
	for i := 0; i < p.Shards*p.Replicas; i++ {
		e := serve.NewMulti(serve.Options{Mmap: true})
		f, err := serve.NewFetcher(e, serve.FetchOptions{
			Source: snapDir, Vocab: b.Vocab, Interval: 2 * time.Millisecond,
			Shard: i % p.Shards,
		})
		if err != nil {
			e.Close()
			return nil, err
		}
		e.SetReplicaStats(func() any { return f.Status() })
		if _, err := f.Poll(); err != nil {
			e.Close()
			return nil, fmt.Errorf("scenario %s: replica %d initial fetch failed: %w", p.Name, i, err)
		}
		srv := httptest.NewServer(serve.APIHandler(e, nil))
		reps = append(reps, &fleetReplica{engine: e, fetcher: f, srv: srv})
		routerReps = append(routerReps, router.Replica{Name: fmt.Sprintf("replica-%d", i), Base: srv.URL})
	}

	rt, err := router.New(routerReps, router.Options{MaxLag: 1})
	if err != nil {
		return nil, err
	}
	rt.PollReplicas()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	m := &FleetMetrics{Preset: p.Name, Shards: p.Shards, Replicas: p.Replicas}
	var problems []string
	fail := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}

	// A fully replicated fleet advertises no shard range at all.
	wantShards := p.Shards
	if wantShards == 1 {
		wantShards = 0
	}
	topology := func(when string) {
		if st := rt.Stats(); st.Sharded != (wantShards > 0) || st.Shards != wantShards {
			fail("%s: router sees sharded=%v shards=%d, want a %d-shard fleet", when, st.Sharded, st.Shards, p.Shards)
		}
	}
	topology("before rollout")

	// Single-FULL-node reference for a generation: a fresh engine loading
	// the full file the same publish wrote.
	reference := func(gen uint64) (*serve.Engine, error) {
		ref := serve.NewMulti(serve.Options{Mmap: true})
		if _, err := ref.LoadGeneration(serve.DefaultSnapshot, store.GenPath(snapDir, gen), b.Vocab, gen); err != nil {
			ref.Close()
			return nil, err
		}
		return ref, nil
	}

	checkGeneration := func(gen uint64, users int) {
		ref, err := reference(gen)
		if err != nil {
			fail("generation %d: reference engine failed to load: %v", gen, err)
			return
		}
		defer ref.Close()
		query := func(method, path string, body []byte, into any) bool {
			req, err := http.NewRequest(method, front.URL+path, bytes.NewReader(body))
			if err != nil {
				fail("generation %d: %s %s: %v", gen, method, path, err)
				return false
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				fail("generation %d: %s %s: %v", gen, method, path, err)
				return false
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				fail("generation %d: %s %s answered %d", gen, method, path, resp.StatusCode)
				return false
			}
			if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
				fail("generation %d: %s %s decode: %v", gen, method, path, err)
				return false
			}
			return true
		}
		// same counts one check of a routed answer against the reference's;
		// both versions are process-local and zeroed by the caller.
		same := func(what string, got, want any, err error) bool {
			switch {
			case err != nil:
				fail("generation %d: reference %s: %v", gen, what, err)
			case !reflect.DeepEqual(got, want):
				fail("generation %d: %s diverges: routed %+v vs full node %+v", gen, what, got, want)
			default:
				m.EqualityChecks++
				return true
			}
			return false
		}
		// Memberships: every user, owner-routed. This sweeps every shard
		// boundary, so an off-by-one in range ownership fails here.
		for id := 0; id < users; id++ {
			var got serve.MembershipResult
			if !query(http.MethodGet, fmt.Sprintf("/api/user?id=%d&k=5", id), nil, &got) {
				return
			}
			want, err := ref.MembershipIn(serve.DefaultSnapshot, id, 5)
			if err == nil {
				got.Version, want.Version = 0, 0
			}
			if !same(fmt.Sprintf("membership(%d)", id), &got, want, err) {
				return
			}
		}
		// Rankings: scattered, Members summed over one answer per shard —
		// the merge must reproduce the full node bit-for-bit.
		step := max(baseModel.NumWords/16, 1)
		for w := 0; w < baseModel.NumWords; w += step {
			var got serve.RankResult
			if !query(http.MethodGet, fmt.Sprintf("/api/rank?w=%d&k=5", w), nil, &got) {
				return
			}
			want, err := ref.RankIn(serve.DefaultSnapshot, []int32{int32(w)}, 5)
			if err == nil {
				got.Version, want.Version = 0, 0
			}
			if !same(fmt.Sprintf("rank(%d)", w), &got, want, err) {
				return
			}
		}
		// Diffusion: a same-shard pair and the maximally cross-shard pair
		// both ways (first and last user live on different shards of a
		// sharded fleet), the latter exercising the pirow + row-carrying
		// POST path.
		for _, pair := range [][2]int{{0, 1}, {0, users - 1}, {users - 1, 0}} {
			var got serve.DiffusionResult
			if !query(http.MethodGet, fmt.Sprintf("/api/diffusion?u=%d&v=%d&topic=0&bucket=-1", pair[0], pair[1]), nil, &got) {
				return
			}
			want, err := ref.DiffusionIn(serve.DefaultSnapshot, pair[0], pair[1], 0, -1)
			if err == nil {
				got.Version, want.Version = 0, 0
			}
			if !same(fmt.Sprintf("diffusion(%v)", pair), &got, want, err) {
				return
			}
		}
		// Fold-in without friends, and with friends spanning shards: the
		// router must hydrate the rows the target does not own.
		for _, friends := range [][]int32{nil, {0, int32(users - 1)}} {
			fi := &serve.FoldInRequest{Docs: [][]int32{{0, 1, 2}, {3, 4}}, Friends: friends, Seed: 99, Sweeps: 8}
			body, _ := json.Marshal(fi)
			var got serve.FoldInResult
			if !query(http.MethodPost, "/api/foldin", body, &got) {
				return
			}
			want, err := ref.FoldInNamed(serve.DefaultSnapshot, fi)
			if err == nil {
				got.Version, want.Version = 0, 0
			}
			if !same(fmt.Sprintf("fold-in(friends %v)", friends), &got, want, err) {
				return
			}
		}
	}

	// Generation 1, fleet at rest.
	checkGeneration(1, baseModel.NumUsers)

	// The rollout: fetchers polling live, a read hammer flowing through
	// the router, generation 2 published under it.
	ctx, cancel := context.WithCancel(context.Background())
	var fwg sync.WaitGroup
	for _, r := range reps {
		fwg.Add(1)
		go func(f *serve.Fetcher) {
			defer fwg.Done()
			f.Run(ctx)
		}(r.fetcher)
	}
	stopReads := make(chan struct{})
	var rwg sync.WaitGroup
	var reads, readErrs atomic.Uint64
	target := HTTPTarget{Base: front.URL, Client: front.Client()}
	for w := 0; w < 2; w++ {
		rwg.Add(1)
		go func(w int) {
			defer rwg.Done()
			i := 0
			for {
				select {
				case <-stopReads:
					return
				default:
				}
				reads.Add(2)
				if err := target.Do(&Request{Op: OpMembership, U: (i + w) % baseUsers, K: 5}); err != nil {
					readErrs.Add(1)
				}
				if err := target.Do(&Request{Op: OpRank, Words: []int32{int32(i % baseModel.NumWords)}, K: 5}); err != nil {
					readErrs.Add(1)
				}
				i++
			}
		}(w)
	}

	rolloutErr := func() error {
		if _, err := u.Ingest(evs[half:]); err != nil {
			return fmt.Errorf("scenario %s: generation-2 ingest failed: %w", p.Name, err)
		}
		if _, err := u.Publish(); err != nil {
			return fmt.Errorf("scenario %s: generation-2 publish failed: %w", p.Name, err)
		}
		// Wait for every replica to pull the new generation.
		deadline := time.Now().Add(10 * time.Second)
		for _, r := range reps {
			for r.fetcher.Generation() < 2 {
				if time.Now().After(deadline) {
					return fmt.Errorf("scenario %s: fleet did not reach generation 2 in time", p.Name)
				}
				time.Sleep(time.Millisecond)
			}
		}
		return nil
	}()
	close(stopReads)
	rwg.Wait()
	cancel()
	fwg.Wait()
	m.ReadQueries, m.ReadErrors = reads.Load(), readErrs.Load()
	if rolloutErr != nil {
		return m, rolloutErr
	}
	if m.ReadErrors > 0 {
		fail("%d of %d routed reads failed during the generation rollout", m.ReadErrors, m.ReadQueries)
	}

	// Generation 2: fleet healthy, unlagged, topology intact, and still
	// bit-identical.
	rt.PollReplicas()
	st := rt.Stats()
	m.Generations = st.Generation
	if st.Generation != 2 {
		fail("fleet generation %d after rollout, want 2", st.Generation)
	}
	if st.Healthy != len(reps) {
		fail("%d of %d replicas healthy after rollout", st.Healthy, len(reps))
	}
	for _, r := range st.Replicas {
		if r.Lag != 0 || r.Lagging {
			fail("replica %s lags the fleet after rollout: %+v", r.Name, r)
		}
	}
	topology("after rollout")
	users := u.Model().NumUsers
	checkGeneration(2, users)

	if p.Shards > 1 {
		// The memory win the format exists for: each replica maps the
		// global file plus ~1/N of the user payload, not the whole
		// snapshot. The slack term absorbs weight-balancing imbalance and
		// 64-byte section alignment.
		if fi, err := os.Stat(store.GenPath(snapDir, 2)); err == nil {
			m.FullBytes = fi.Size()
		} else {
			fail("stat full generation-2 file: %v", err)
		}
		if fi, err := os.Stat(shard.GlobalPath(snapDir, 2)); err == nil {
			m.GlobalBytes = fi.Size()
		} else {
			fail("stat global generation-2 file: %v", err)
		}
		budget := m.FullBytes/int64(p.Shards) + m.GlobalBytes + m.FullBytes/8
		for i, r := range reps {
			var mapped int64
			for _, ss := range r.engine.SnapshotsInfo() {
				if ss.Name == serve.DefaultSnapshot {
					mapped = ss.MappedBytes
					if !ss.Mapped {
						fail("replica %d serves an unmapped snapshot", i)
					}
					if ss.Shard == nil {
						fail("replica %d snapshot carries no shard info", i)
					}
				}
			}
			if mapped == 0 {
				fail("replica %d reports zero mapped bytes", i)
			}
			if m.FullBytes > 0 && mapped > budget {
				fail("replica %d maps %d bytes, budget %d (full %d, global %d, %d shards)",
					i, mapped, budget, m.FullBytes, m.GlobalBytes, p.Shards)
			}
			m.MaxReplicaMappedBytes = max(m.MaxReplicaMappedBytes, mapped)
		}
	}

	if p.Replicas > 1 {
		// Failover: one of shard 0's owners dies. Its users fall to the
		// shard's other owners, rank still finds every shard, and every
		// answer stays the full node's.
		reps[0].srv.Close()
		checkGeneration(2, users)
	}

	if p.Shards > 1 {
		// Drain: the latch flips the replica's advertisement, the router
		// sees it, and — the drained replica being its shard's last live
		// owner — that shard's users keep answering through the fallback
		// tier.
		last := reps[(p.Replicas-1)*p.Shards]
		if resp, err := http.Post(last.srv.URL+"/api/drain", "application/json", nil); err != nil {
			fail("drain request failed: %v", err)
		} else {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				fail("drain answered status %d", resp.StatusCode)
			}
		}
		rt.PollReplicas()
		draining := 0
		for _, r := range rt.Stats().Replicas {
			if r.Draining {
				draining++
			}
		}
		if draining != 1 {
			fail("%d replicas draining after one drain request", draining)
		}
		if resp, err := http.Get(front.URL + "/api/user?id=0&k=5"); err != nil {
			fail("membership after drain failed: %v", err)
		} else {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				fail("membership for a drained shard's user answered %d, want 200 via the fallback tier", resp.StatusCode)
			}
		}
	}
	m.Misroutes = rt.Stats().Misroutes

	if len(problems) > 0 {
		return m, fmt.Errorf("scenario %s: %s", p.Name, strings.Join(problems, "; "))
	}
	return m, nil
}

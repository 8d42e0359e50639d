package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/store"
)

// sample is one completed request of a load run.
type sample struct {
	dur int64 // latency in nanoseconds
	op  opKind
	ok  bool
}

// checkpoint is a reading of the busy clock beside the number of requests
// every client has completed so far. Two of them bound a segment.
type checkpoint struct {
	done int64
	busy time.Duration
}

// segmentRequests is how many of its own requests the first client sends
// between two checkpoints: whole blocks of the stratified mix, so every
// segment holds the same work.
const segmentRequests = 250

// loadRun is the closed loop: each client sends its next request when
// the previous reply has arrived, for the given duration.
func loadRun(clients []*client, seed uint64, sp space, d time.Duration) (samples []sample, marks []checkpoint, failures []string) {
	deadline := time.Now().Add(d)
	per := make([][]sample, len(clients))
	errs := make([][]string, len(clients))
	var done atomic.Int64
	marks = append(marks, checkpoint{0, busyClock()})
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			stream := newRequestStream(seed, i, readMix, sp)
			out := make([]sample, 0, 1<<16)
			for {
				t0 := time.Now()
				if !t0.Before(deadline) {
					break
				}
				req := stream.next()
				_, err := c.do(req)
				t1 := time.Now()
				if err != nil && len(errs[i]) < 3 {
					errs[i] = append(errs[i], err.Error())
				}
				out = append(out, sample{dur: int64(t1.Sub(t0)), op: req.op, ok: err == nil})
				n := done.Add(1)
				if i == 0 && len(out)%segmentRequests == 0 {
					marks = append(marks, checkpoint{n, busyClock()})
				}
			}
			per[i] = out
		}(i, c)
	}
	wg.Wait()
	for i := range per {
		samples = append(samples, per[i]...)
		failures = append(failures, errs[i]...)
	}
	return samples, marks, failures
}

// loadStats digests a load run: the throughput of each segment on the
// busy clock, and per operation the quiet latency, the median and the
// tail over every sample.
type loadStats struct {
	attempted, failed int
	rates             []float64
	quiet, p50, p99   [numOps]float64 // microseconds
	n                 [numOps]int
	p999              float64
	p999n             int
}

func digestLoad(samples []sample, marks []checkpoint) loadStats {
	var st loadStats
	st.attempted = len(samples)
	for i := 1; i < len(marks); i++ {
		if busy := marks[i].busy - marks[i-1].busy; busy > 0 {
			st.rates = append(st.rates, float64(marks[i].done-marks[i-1].done)/busy.Seconds())
		}
	}
	var all [numOps][]float64
	var pooled []float64
	for _, s := range samples {
		if !s.ok {
			st.failed++
			continue
		}
		all[s.op] = append(all[s.op], float64(s.dur)/1e3)
	}
	for k := range all {
		sorted := sortedCopy(all[k])
		st.n[k] = len(sorted)
		st.quiet[k] = percentile(sorted, bestQuantile)
		st.p50[k] = percentile(sorted, 0.5)
		st.p99[k] = percentile(sorted, 0.99)
		pooled = append(pooled, sorted...)
	}
	st.p999 = percentile(sortedCopy(pooled), 0.999)
	st.p999n = len(pooled)
	return st
}

// startFleet is one complete set-up of a read workload: model, snapshot,
// servers, clients with warm connections. It returns how long it took on
// the busy clock.
func startFleet(rc *runCtx, routed bool, tr *tracer) (*fleet, []*client, time.Duration, error) {
	t0 := busyClock()
	var f *fleet
	var err error
	if routed {
		f, err = startRouted(rc.tmp, rc.sc.model, tr)
	} else {
		f, err = startNode(rc.tmp, rc.sc.model, tr)
	}
	if err != nil {
		return nil, nil, 0, err
	}
	clients := make([]*client, rc.sc.clients)
	var wg sync.WaitGroup
	warmErrs := make([]error, len(clients))
	for i := range clients {
		clients[i] = newClient(f.front.base, tr)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Warm-up draws from streams of its own, so the measured streams
			// start at their first request.
			stream := newRequestStream(rc.seed, 1000+i, readMix, rc.sc.model.space())
			for n := 0; n < rc.sc.warm; n++ {
				if _, err := clients[i].do(stream.next()); err != nil {
					warmErrs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range warmErrs {
		if err != nil {
			closeClients(clients)
			f.close()
			return nil, nil, 0, fmt.Errorf("warm-up: %w", err)
		}
	}
	return f, clients, busyClock() - t0, nil
}

func closeClients(clients []*client) {
	for _, c := range clients {
		c.close()
	}
}

// runRead is read-node (one full node) and read-routed (router over
// three shard-owning replicas): the same request streams and clients
// over HTTP/JSON on loopback.
func runRead(rc *runCtx, name string, routed bool) *result {
	res := newResult()
	tr := newTracer()
	sp := rc.sc.model.space()

	var f *fleet
	var clients []*client
	var setups []float64
	for rep := 0; rep < rc.sc.setupReps; rep++ {
		if f != nil {
			closeClients(clients)
			f.close()
		}
		runtime.GC() // every set-up starts from a collected heap
		var d time.Duration
		var err error
		f, clients, d, err = startFleet(rc, routed, tr)
		if err != nil {
			res.fail("set-up: %v", err)
			return res
		}
		setups = append(setups, d.Seconds())
	}
	defer f.close()
	defer closeClients(clients)
	res.set("setup_s", "s", bestOf(setups, false), len(setups))

	// The load phase. A traced run keeps it short: it is there for the
	// client-side tails and process counters, not for the headline figures.
	share := 1.0
	if rc.trace {
		share = 0.4
	}
	meter := startProcMeter()
	samples, marks, failures := loadRun(clients, rc.seed, sp, rc.duration(share))
	st := digestLoad(samples, marks)
	meter.report(res, st.attempted)
	res.set("peak_rss_mb", "MB", peakRSSMB(), 0)
	res.Attempted, res.Failed = st.attempted, st.failed
	res.Counts["requests"] = st.attempted
	for _, msg := range failures {
		res.fail("request failed: %s", msg)
	}
	res.set("qps", "1/s", bestOf(st.rates, true), len(st.rates))
	for k := opKind(0); k < numOps; k++ {
		res.set(opNames[k]+"_quiet_us", "us", st.quiet[k], st.n[k])
		res.set(opNames[k]+"_p50_us", "us", st.p50[k], st.n[k])
		res.setLayer("loadgen."+opNames[k]+"_p99_us", st.p99[k], st.n[k])
	}
	res.setLayer("loadgen.p999_us", st.p999, st.p999n)
	res.setLayer("loadgen.qps_iqr_pct", iqrPct(st.rates), len(st.rates))

	// The reference the gate and the engine replay run against: the node's
	// own engine, or for the routed fleet a single full node loading the
	// file the shard group was split from.
	ref := f.engines[0]
	if routed {
		ref = serve.NewMulti(serve.Options{Mmap: true})
		defer ref.Close()
		if _, err := ref.LoadGeneration(serve.DefaultSnapshot, f.path, nil, 1); err != nil {
			res.fail("loading the single-node reference: %v", err)
			return res
		}
	}
	if rc.trace {
		traceReads(rc, name, routed, f, clients[0], ref, tr, res)
	}
	gateReads(rc, routed, f, clients[0], ref, tr, res)
	return res
}

// engineCall runs a request directly against an engine's public query
// functions, returning the same value the HTTP API would serialize.
func engineCall(e *serve.Engine, r *request) (any, error) {
	switch r.op {
	case opRank:
		return e.RankIn(serve.DefaultSnapshot, r.words, r.k)
	case opMembership:
		return e.MembershipIn(serve.DefaultSnapshot, r.u, r.k)
	case opDiffusion:
		return e.DiffusionIn(serve.DefaultSnapshot, r.u, r.v, r.z, r.b)
	default:
		return e.FoldInNamed(serve.DefaultSnapshot, r.foldin)
	}
}

// decodeReply parses a reply body into the result type of its operation
// and clears the process-local Version counter, the one field two engines
// serving the same snapshot may differ in.
func decodeReply(op opKind, body []byte) (any, error) {
	var v any
	switch op {
	case opRank:
		v = new(serve.RankResult)
	case opMembership:
		v = new(serve.MembershipResult)
	case opDiffusion:
		v = new(serve.DiffusionResult)
	default:
		v = new(serve.FoldInResult)
	}
	err := json.Unmarshal(body, v)
	clearVersion(v)
	return v, err
}

func clearVersion(v any) {
	switch x := v.(type) {
	case *serve.RankResult:
		x.Version = 0
	case *serve.MembershipResult:
		x.Version = 0
	case *serve.DiffusionResult:
		x.Version = 0
	case *serve.FoldInResult:
		x.Version = 0
	}
}

// gateReads replays requests through the front and compares every
// decoded reply with the reference engine's direct answer. On the routed
// fleet that makes each reply bit-identical to a single full node, and
// the backend spans recorded during the replay give the fan-out.
func gateReads(rc *runCtx, routed bool, f *fleet, c *client, ref *serve.Engine, tr *tracer, res *result) {
	stream := newRequestStream(rc.seed, 2000, readMix, rc.sc.model.space())
	tr.take()
	tr.on.Store(true)
	ops := make([]opKind, rc.sc.gate)
	mismatches := 0
	for i := 0; i < rc.sc.gate; i++ {
		req := stream.next()
		ops[i] = req.op
		tr.trace.Store(int64(i))
		res.Attempted++
		_, err := c.do(req)
		var got, want any
		if err == nil {
			got, err = decodeReply(req.op, c.body.Bytes())
		}
		if err == nil {
			want, err = engineCall(ref, req)
		}
		if err != nil {
			res.Failed++
			res.fail("gate request %d (%s): %v", i, req.op, err)
			continue
		}
		clearVersion(want)
		if !reflect.DeepEqual(got, want) {
			res.Failed++
			if mismatches++; mismatches <= 3 {
				res.fail("gate request %d (%s) differs from the reference engine: got %+v want %+v", i, req.op, got, want)
			}
		}
	}
	tr.on.Store(false)
	spans := tr.take()
	res.Counts["gate_requests"] = rc.sc.gate
	if !routed {
		return
	}
	groups := byTrace(spans)
	for i, op := range ops {
		fan := 0
		for _, s := range groups[i] {
			if s.Layer == "http.backend" {
				fan++
			}
		}
		if want := map[opKind]int{opRank: fleetShards, opMembership: 1}[op]; want != 0 && fan != want {
			res.fail("gate request %d (%s) fanned out to %d backends, want %d", i, op, fan, want)
			break
		}
	}
	if st := f.rt.Stats(); st.Misroutes != 0 {
		res.fail("router counted %d misroutes, want 0", st.Misroutes)
	}
}

// endpoint is the API path an operation is served on.
var endpoint = [numOps]string{"/api/rank", "/api/user", "/api/diffusion", "/api/foldin"}

// traceReads is the traced run of a read workload: one client replays
// the start of client 0's stream sequentially, first untraced, then with
// a span at every boundary the harness owns, and the ledger is computed
// from the spans. Engine time is replayed — a direct call with the same
// request after the reply — not nested inside the handler span.
func traceReads(rc *runCtx, name string, routed bool, f *fleet, c *client, ref *serve.Engine, tr *tracer, res *result) {
	sp := rc.sc.model.space()
	budget := rc.duration(0.25)

	reqs := make([]*request, rc.sc.replay)
	stream := newRequestStream(rc.seed, 0, readMix, sp)
	for i := range reqs {
		reqs[i] = stream.next()
	}
	replay := func(traced bool) (lat [numOps][]float64, pooled []float64, done int) {
		start := time.Now()
		for i, req := range reqs {
			if time.Since(start) > budget {
				break
			}
			tr.trace.Store(int64(i))
			t0 := time.Now()
			id, err := c.do(req)
			us := float64(time.Since(t0)) / 1e3
			res.Attempted++
			if err != nil {
				res.Failed++
				res.fail("replay request %d (%s): %v", i, req.op, err)
				continue
			}
			lat[req.op] = append(lat[req.op], us)
			pooled = append(pooled, us)
			if traced {
				s := tr.begin(id, "serve.engine", req.op.String()+" (replayed)")
				_, err := engineCall(ref, req)
				tr.end(s)
				if err != nil {
					res.fail("engine replay %d (%s): %v", i, req.op, err)
				}
			}
			done = i + 1
		}
		return lat, pooled, done
	}
	_, plain, _ := replay(false)
	tr.take()
	tr.on.Store(true)
	lat, traced, done := replay(true)
	tr.on.Store(false)
	spans := tr.take()
	res.Counts["traced_requests"] = done
	if p := median(plain); p > 0 {
		res.setLayer("loadgen.trace_overhead_pct", (median(traced)-p)/p*100, len(traced))
	}
	for k := range lat {
		res.setLayer("loadgen."+opNames[k]+"_p50_us", median(lat[k]), len(lat[k]))
	}
	if err := writeSpans(filepath.Join(rc.outDir, "trace-"+name+".jsonl"), spans); err != nil {
		res.fail("writing the trace: %v", err)
	}

	// The ledger: per request, find the client span and what it enclosed.
	type opLedger struct{ hop, self, engine, routerSelf, wait []float64 }
	var led [numOps]opLedger
	var nodeHop, frontHop, backendHop []float64
	var fanout, backendBytes, respBytes float64
	groups := byTrace(spans)
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	for i := 0; i < done; i++ {
		var cs, front, eng *span
		children := map[int][]*span{}
		for _, s := range groups[i] {
			children[s.Parent] = append(children[s.Parent], s)
			switch s.Layer {
			case "loadgen":
				cs = s
			case "serve.engine":
				eng = s
			}
		}
		if cs == nil || eng == nil {
			continue // a failed request, already counted
		}
		op := reqs[i].op
		l := &led[op]
		respBytes += float64(cs.Bytes)
		for _, s := range children[cs.Span] {
			if s.Layer != "serve.engine" {
				front = s
			}
		}
		if front == nil {
			res.fail("trace %d has no handler span under the client span", i)
			return
		}
		l.engine = append(l.engine, us(eng.durNs()))
		if !routed {
			nodeHop = append(nodeHop, us(cs.durNs()-front.durNs()))
			l.hop = append(l.hop, us(cs.durNs()-front.durNs()))
			l.self = append(l.self, us(front.durNs()-eng.durNs()))
			continue
		}
		frontHop = append(frontHop, us(cs.durNs()-front.durNs()))
		l.hop = append(l.hop, us(cs.durNs()-front.durNs()))
		var ivs []interval
		var main *span
		for _, b := range children[front.Span] {
			ivs = append(ivs, b.interval())
			fanout++
			backendBytes += float64(b.Bytes)
			for _, h := range children[b.Span] {
				backendHop = append(backendHop, us(b.durNs()-h.durNs()))
				if h.Name == endpoint[op] && (main == nil || h.durNs() > main.durNs()) {
					main = h
				}
			}
		}
		self := selfTime(front.interval(), ivs)
		l.routerSelf = append(l.routerSelf, us(self))
		l.wait = append(l.wait, us(front.durNs()-self))
		if main != nil {
			l.self = append(l.self, us(main.durNs()-eng.durNs()))
		}
	}
	gap := 0.0
	for k := range led {
		l := &led[k]
		n := len(l.engine)
		res.setLayer("serve.engine_"+opNames[k]+"_us", median(l.engine), n)
		res.setLayer("serve.httpapi_"+opNames[k]+"_self_us", median(l.self), len(l.self))
		sum := median(l.hop) + median(l.self) + median(l.engine)
		if routed {
			res.setLayer("router.self_"+opNames[k]+"_us", median(l.routerSelf), n)
			res.setLayer("router.backend_wait_"+opNames[k]+"_us", median(l.wait), n)
			sum = median(l.hop) + median(l.routerSelf) + median(l.wait)
		}
		if client := median(lat[k]); client > 0 {
			gap = max(gap, math.Abs(sum-client)/client*100)
		}
	}
	// The ledger closes when, per operation, the layers' median self times
	// add up to the client's median latency. Per request they add up
	// exactly, so the gap measures how skewed the distributions are; it is
	// a property of the measurement, not of the program's outputs, so past
	// 10 % it is reported, not failed.
	res.setLayer("loadgen.ledger_gap_pct", gap, done)
	if gap > 10 {
		fmt.Fprintf(rc.log, "%s: ledger open: layer self times miss the client latency by %.1f%%\n", name, gap)
	}
	if routed {
		res.setLayer("http.front_hop_us", median(frontHop), len(frontHop))
		res.setLayer("http.backend_hop_us", median(backendHop), len(backendHop))
		res.setLayer("router.fanout_per_req", fanout/float64(max(done, 1)), 0)
		res.setLayer("router.backend_bytes_per_req", backendBytes/float64(max(done, 1)), 0)
		st := f.rt.Stats()
		res.setLayer("router.misroutes", float64(st.Misroutes), 0)
		res.setLayer("router.shared_scatters", float64(st.SharedScatters), 0)
	} else {
		res.setLayer("http.node_hop_us", median(nodeHop), len(nodeHop))
	}
	res.setLayer("serve.resp_bytes_per_req", respBytes/float64(max(done, 1)), 0)

	handlerAllocs(rc, ref, res)
	if sizeMB, ok := directStore(f.dir, f.model, ref, res); ok && routed {
		directShard(f.dir, sizeMB, res)
		res.setLayer("shard.replica_mapped_mb", f.mappedMB, 0)
	}
}

// handlerAllocs counts what serve.APIHandler allocates per request, with
// no socket: requests are built beforehand and served into a recorder on
// this goroutine while nothing else runs.
func handlerAllocs(rc *runCtx, e *serve.Engine, res *result) {
	h := serve.APIHandler(e, nil)
	stream := newRequestStream(rc.seed, 0, readMix, rc.sc.model.space())
	reqs := make([]*http.Request, rc.sc.allocReqs)
	for i := range reqs {
		method, path, body := stream.next().target()
		reqs[i] = httptest.NewRequest(method, path, bytes.NewReader(body))
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, r := range reqs {
		h.ServeHTTP(httptest.NewRecorder(), r)
	}
	runtime.ReadMemStats(&after)
	n := float64(len(reqs))
	res.setLayer("serve.httpapi_allocs_per_req", float64(after.Mallocs-before.Mallocs)/n, 0)
	res.setLayer("serve.httpapi_alloc_bytes_per_req", float64(after.TotalAlloc-before.TotalAlloc)/n, 0)
}

// directPath is where directStore leaves the snapshot it wrote.
func directPath(dir string) string { return filepath.Join(dir, "direct.v2.snap") }

// directStore times the store and index functions set-up is made of, by
// calling them directly on the fixed model. It returns the snapshot's
// size.
func directStore(dir string, m *core.Model, e *serve.Engine, res *result) (sizeMB float64, ok bool) {
	const reps = 5
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	var saveMS, openMS, buildMS []float64
	path := directPath(dir)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := store.SaveV2(path, m); err != nil {
			res.fail("direct SaveV2: %v", err)
			return 0, false
		}
		saveMS = append(saveMS, ms(time.Since(t0)))
		t0 = time.Now()
		mm, err := store.Open(path)
		if err != nil {
			res.fail("direct Open: %v", err)
			return 0, false
		}
		openMS = append(openMS, ms(time.Since(t0)))
		sizeMB = float64(mm.MappedBytes()) / 1e6
		t0 = time.Now()
		_ = e.BuildSnapshot("direct", mm.Model, nil, nil)
		buildMS = append(buildMS, ms(time.Since(t0)))
		mm.Close()
	}
	res.setLayer("store.save_full_ms", median(saveMS), reps)
	res.setLayer("store.open_ms", median(openMS), reps)
	res.setLayer("store.snapshot_mb", sizeMB, 0)
	res.setLayer("serve.build_index_ms", median(buildMS), reps)
	return sizeMB, true
}

// directShard times Split and Join of the snapshot directStore wrote.
func directShard(dir string, sizeMB float64, res *result) {
	const reps = 5
	path := directPath(dir)
	var split, join []float64
	for i := 0; i < reps; i++ {
		gen := uint64(100 + i)
		t0 := time.Now()
		if _, err := shard.Split(path, dir, gen, shard.SplitOptions{Shards: fleetShards}); err != nil {
			res.fail("direct Split: %v", err)
			return
		}
		split = append(split, sizeMB/time.Since(t0).Seconds())
		t0 = time.Now()
		if err := shard.Join(dir, gen, filepath.Join(dir, "joined.v2.snap")); err != nil {
			res.fail("direct Join: %v", err)
			return
		}
		join = append(join, sizeMB/time.Since(t0).Seconds())
	}
	res.setLayer("shard.split_mb_s", median(split), reps)
	res.setLayer("shard.join_mb_s", median(join), reps)
}

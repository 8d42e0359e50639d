package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/stream"
)

// ingestRig is the write path as cmd/cpd-serve runs it with -mmap
// -ingest -ingest-dir -ingest-shards 3: a mapped engine, a journal, an
// updater publishing full files and shard groups, and the engine's HTTP
// API on loopback for the reader.
type ingestRig struct {
	dir     string
	snapDir string
	engine  *serve.Engine
	journal *stream.Journal
	updater *stream.Updater
	srv     *server
	reader  *client
	primed  int // events ingested before the clock started
}

func (r *ingestRig) close() {
	if r.reader != nil {
		r.reader.close()
	}
	if r.srv != nil {
		r.srv.close()
	}
	if r.updater != nil {
		r.updater.Close()
	}
	if r.journal != nil {
		r.journal.Close()
	}
	if r.engine != nil {
		r.engine.Close()
	}
	os.RemoveAll(r.dir)
}

// warmWindows is how many publish windows at the start of an episode are
// left out of the end-to-end figures.
const warmWindows = 2

// primingClient is the event stream that fills generation 1; the
// measured stream is client 0.
const primingClient = 3000

// startIngest is one complete set-up: model, snapshot, mapped engine,
// journal, updater, generation 1 (the full rebuild every first publish
// is), server, and a warmed reader connection. It returns how long it
// took on the busy clock.
func startIngest(rc *runCtx, tr *tracer) (*ingestRig, time.Duration, error) {
	t0 := busyClock()
	dir, path, _, err := saveModel(rc.tmp, rc.sc.model)
	if err != nil {
		return nil, 0, err
	}
	rig := &ingestRig{dir: dir, snapDir: filepath.Join(dir, "snapshots")}
	fail := func(err error) (*ingestRig, time.Duration, error) {
		rig.close()
		return nil, 0, err
	}
	if err := os.MkdirAll(rig.snapDir, 0o755); err != nil {
		return fail(err)
	}
	if rig.engine, err = mappedEngine(path); err != nil {
		return fail(err)
	}
	if rig.journal, err = stream.OpenJournal(filepath.Join(dir, "events.wal"), stream.JournalOptions{}); err != nil {
		return fail(err)
	}
	rig.updater, err = stream.NewUpdater(rig.journal, stream.Options{
		Engine:       rig.engine,
		Dir:          rig.snapDir,
		Shards:       fleetShards,
		WindowEvents: rc.sc.window,
		Mmap:         true,
		FoldSeed:     modelSeed,
	})
	if err != nil {
		return fail(err)
	}
	prime := newEventStream(rc.seed, primingClient, rc.sc.model.space())
	for i := 0; i < rc.sc.window; i++ {
		if _, err := rig.updater.Ingest([]stream.Event{prime.next()}); err != nil {
			return fail(fmt.Errorf("priming ingest: %w", err))
		}
	}
	rig.primed = rc.sc.window
	if _, err := rig.updater.Publish(); err != nil {
		return fail(fmt.Errorf("priming publish: %w", err))
	}
	if rig.srv, err = startServer(tr.traced("serve.httpapi", serve.APIHandler(rig.engine, nil))); err != nil {
		return fail(err)
	}
	rig.reader = newClient(rig.srv.base, tr)
	warm := newRequestStream(rc.seed, 1000, readerMix, rc.sc.model.space())
	for i := 0; i < rc.sc.warm; i++ {
		if _, err := rig.reader.do(warm.next()); err != nil {
			return fail(fmt.Errorf("warm-up: %w", err))
		}
	}
	return rig, busyClock() - t0, nil
}

// readerStats is what the paced reader saw.
type readerStats struct {
	// microseconds, in send order: from the instant the request was due to
	// the reply, how late it was sent, and from the send to the reply.
	lat, late, service []float64
	failed             int
	failures           []string
}

// pacedReader is the open loop: one request every 1/rate seconds
// whatever the server does, each timed from the instant it was due, so a
// stall shows up in every request queued behind it. On one processor the
// reader only runs when the writer is preempted or waits for the disk, so
// most of that time is the Go scheduler's 10 ms time slice and is held to
// no bound; the time from the send to the reply is what the program
// answers for.
func pacedReader(c *client, seed uint64, sp space, rate float64, stop <-chan struct{}) readerStats {
	var st readerStats
	stream := newRequestStream(seed, 1, readerMix, sp)
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			select {
			case <-stop:
				return st
			case <-time.After(d):
			}
		} else {
			select {
			case <-stop:
				return st
			default:
			}
		}
		sent := time.Now()
		_, err := c.do(stream.next())
		if err != nil {
			st.failed++
			if len(st.failures) < 3 {
				st.failures = append(st.failures, err.Error())
			}
			continue
		}
		replied := time.Now()
		st.late = append(st.late, float64(sent.Sub(due))/1e3)
		st.lat = append(st.lat, float64(replied.Sub(due))/1e3)
		st.service = append(st.service, float64(replied.Sub(sent))/1e3)
	}
}

// publishSample is one publish as the writer saw it.
type publishSample struct {
	wallMS float64
	phases stream.PublishPhases
}

// episode is what one pass of the writer over a fresh rig measured.
type episode struct {
	sent       int
	ingestUS   []float64
	windowRate []float64 // per publish window: events ÷ busy time since the previous publish returned
	lagMS      []float64 // per publish window: the median lag of its events on the busy clock
	publishes  []publishSample
	reader     readerStats
	journal    int64 // journal bytes the events added
	status     stream.Status
	events     *eventStream
}

// runEpisode pushes `windows` publish windows of events through
// Updater.Ingest + MaybePublish, one event per call, while the paced
// reader queries the same engine. Every event is stamped when Ingest is
// called; the return of the publish that covers it ends its lag. Stamps
// are readings of the busy clock: the writer never idles, so the clock
// stops only while the processor is stolen or the disk is awaited.
func runEpisode(rc *runCtx, rig *ingestRig, tr *tracer, windows int) (*episode, error) {
	sp := rc.sc.model.space()
	u := rig.updater
	ep := &episode{events: newEventStream(rc.seed, 0, sp)}
	journalBefore := u.Status().JournalBytes

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ep.reader = pacedReader(rig.reader, rc.seed, sp, rc.sc.readerRate, stop)
	}()
	err := func() error {
		stamps := make([]time.Duration, 0, rc.sc.window)
		lags := make([]float64, 0, rc.sc.window)
		windowStart := busyClock()
		for len(ep.publishes) < windows {
			ev := ep.events.next()
			stamps = append(stamps, busyClock())
			t0 := time.Now()
			if _, err := u.Ingest([]stream.Event{ev}); err != nil {
				return fmt.Errorf("ingest of event %d: %w", ep.sent, err)
			}
			t1 := time.Now()
			ep.sent++
			ep.ingestUS = append(ep.ingestUS, float64(t1.Sub(t0))/1e3)
			// Events reach a server one request at a time; between two of
			// them the processor is free for whoever waits, here the reader.
			runtime.Gosched()
			_, published, err := u.MaybePublish()
			if err != nil {
				return fmt.Errorf("publish after event %d: %w", ep.sent, err)
			}
			if !published {
				continue
			}
			done, doneBusy := time.Now(), busyClock()
			lags = lags[:0]
			for _, at := range stamps {
				lags = append(lags, float64(doneBusy-at)/1e6)
			}
			ep.lagMS = append(ep.lagMS, median(lags))
			ep.windowRate = append(ep.windowRate, float64(len(stamps))/(doneBusy-windowStart).Seconds())
			windowStart = doneBusy
			stamps = stamps[:0]
			ps := publishSample{wallMS: float64(done.Sub(t1)) / 1e6}
			if ph := u.Status().LastPublishPhases; ph != nil {
				ps.phases = *ph
			}
			ep.publishes = append(ep.publishes, ps)
			if tr.on.Load() {
				publishSpans(tr, len(ep.publishes)-1, t1, done.Sub(t1), ps.phases)
			}
		}
		return nil
	}()
	close(stop)
	wg.Wait()
	ep.status = u.Status()
	ep.journal = ep.status.JournalBytes - journalBefore
	return ep, err
}

// runIngest is ingest-read. The write path is not stationary — a user's
// fold-in re-reads all of that user's documents, so publishes get dearer
// as a stream goes on — so the run is cut into identical episodes: a
// fresh rig (which is also one set-up sample), then the same 16 publish
// windows of the same event stream. After the first two, the windows of an
// episode are comparable work (lag 90-100 ms), so those of every episode are
// pooled. A traced run is one longer episode.
func runIngest(rc *runCtx) *result {
	res := newResult()
	tr := newTracer()
	windows := rc.sc.episodeWindows
	if rc.trace {
		windows = rc.sc.publishes
	}

	var (
		setups, ingestUS               []float64
		windowRate, lagMS              []float64 // the steady windows of every episode
		readLat, readLate, readService []float64
		publishes                      []publishSample
		sent, journal                  int
		longest                        time.Duration
	)
	meter := startProcMeter()
	began := time.Now()
	budget := rc.duration(1)
	for n := 0; ; n++ {
		if n >= rc.sc.setupReps && time.Since(began)+longest > budget || n >= 1 && rc.trace {
			break
		}
		runtime.GC() // every episode starts from a collected heap
		t0 := time.Now()
		rig, d, err := startIngest(rc, tr)
		if err != nil {
			res.fail("set-up: %v", err)
			return res
		}
		setups = append(setups, d.Seconds())
		tr.on.Store(rc.trace)
		ep, err := runEpisode(rc, rig, tr, windows)
		tr.on.Store(false)
		if err != nil {
			res.fail("writer: %v", err)
		}
		sent += ep.sent
		journal += int(ep.journal)
		ingestUS = append(ingestUS, ep.ingestUS...)
		// The first windows after a fresh rig's first publish are cheaper
		// than the rest (80 ms of lag against 90-100), so they are warm-up.
		if steady := min(warmWindows, len(ep.lagMS)-1); steady >= 0 {
			windowRate = append(windowRate, ep.windowRate[steady:]...)
			lagMS = append(lagMS, ep.lagMS[steady:]...)
		}
		publishes = append(publishes, ep.publishes...)
		readLat = append(readLat, ep.reader.lat...)
		readLate = append(readLate, ep.reader.late...)
		readService = append(readService, ep.reader.service...)
		res.Failed += ep.reader.failed
		res.Attempted += ep.sent + len(ep.reader.lat) + ep.reader.failed
		for _, msg := range ep.reader.failures {
			res.fail("read failed: %s", msg)
		}
		gateIngest(rc, rig, ep, res)
		if rc.trace {
			directPublisher(rc, rig, res)
		}
		res.set("peak_rss_mb", "MB", peakRSSMB(), 0)
		rig.close()
		longest = max(longest, time.Since(t0))
	}
	meter.report(res, sent)
	res.set("setup_s", "s", bestOf(setups, false), len(setups))
	res.Counts["episodes"] = len(setups)
	res.Counts["events"] = sent
	res.Counts["publishes"] = len(publishes)
	res.Counts["reads"] = len(readLat)

	// A publish window's rate carries both its 256 ingest calls and its
	// publish. A window is 100 ms of file and memory work: too long to fall
	// between two disturbances, and its cost varies from one to the next far
	// more than a request's or a training call's, so the best of a run's
	// ~100 steady windows moved by 11 % between identical quiet runs where
	// their better quartile moved by 2.5 %.
	res.set("events_per_s", "1/s", betterQuartile(windowRate, true), len(windowRate))
	res.set("publish_lag_p50_ms", "ms", betterQuartile(lagMS, false), len(lagMS)*rc.sc.window)
	res.set("read_quiet_us", "us", bestOf(readService, false), len(readService))
	res.set("read_p50_us", "us", median(readLat), len(readLat))
	res.setLayer("loadgen.reader_p99_us", percentile(sortedCopy(readLat), 0.99), len(readLat))
	res.setLayer("loadgen.reader_late_us", median(readLate), len(readLate))

	res.setLayer("stream.ingest_call_us", median(ingestUS), len(ingestUS))
	var wall, sync_, fold, model, save, index, promote, unattributed []float64
	incremental, reused := 0, 0.0
	for _, p := range publishes {
		ph := p.phases
		ms := func(us int64) float64 { return float64(us) / 1e3 }
		wall = append(wall, p.wallMS)
		sync_ = append(sync_, ms(ph.SyncMicros))
		fold = append(fold, ms(ph.FoldMicros))
		model = append(model, ms(ph.ModelMicros))
		save = append(save, ms(ph.SaveMicros))
		index = append(index, ms(ph.IndexMicros))
		promote = append(promote, ms(ph.PromoteMicros))
		phaseSum := ph.SyncMicros + ph.FoldMicros + ph.GibbsMicros + ph.ModelMicros + ph.SaveMicros + ph.IndexMicros + ph.PromoteMicros
		unattributed = append(unattributed, p.wallMS-ms(phaseSum))
		if !ph.Full {
			incremental++
		}
		reused += float64(ph.SectionsReused)
	}
	n := len(publishes)
	res.setLayer("stream.publish_p50_ms", median(wall), n)
	// The tail a run of this many publishes supports: ten samples beyond it.
	if q, _ := highestTail(n); q >= 0.9 {
		res.setLayer("stream.publish_p90_ms", percentile(sortedCopy(wall), 0.9), n)
	}
	res.setLayer("stream.sync_ms", median(sync_), n)
	res.setLayer("stream.fold_ms", median(fold), n)
	res.setLayer("stream.model_ms", median(model), n)
	res.setLayer("stream.promote_ms", median(promote), n)
	res.setLayer("stream.unattributed_ms", median(unattributed), n)
	res.setLayer("store.save_reuse_ms", median(save), n)
	res.setLayer("serve.patch_index_ms", median(index), n)
	if n > 0 {
		res.setLayer("stream.incremental_share", float64(incremental)/float64(n)*100, 0)
		res.setLayer("store.sections_reused", reused/float64(n), 0)
	}
	if sent > 0 {
		res.setLayer("stream.journal_bytes_per_event", float64(journal)/float64(sent), 0)
	}
	if rc.trace {
		if err := writeSpans(filepath.Join(rc.outDir, "trace-ingest-read.jsonl"), tr.take()); err != nil {
			res.fail("writing the trace: %v", err)
		}
	}
	return res
}

// publishSpans records one publish and its phases as spans. The phase
// times are the updater's own report (Status().LastPublishPhases), laid
// end to end from the publish's start; what they leave of the wall time
// is the unattributed remainder.
func publishSpans(tr *tracer, index int, start time.Time, wall time.Duration, ph stream.PublishPhases) {
	tr.trace.Store(int64(index))
	begin := int64(start.Sub(tr.epoch))
	parent := tr.reserve()
	tr.put(span{Trace: index, Span: parent, Layer: "stream", Name: "publish", StartNs: begin, EndNs: begin + int64(wall)})
	at := begin
	for _, p := range []struct {
		layer, name string
		micros      int64
	}{
		{"stream", "sync", ph.SyncMicros}, {"stream", "fold", ph.FoldMicros}, {"stream", "gibbs", ph.GibbsMicros},
		{"stream", "model", ph.ModelMicros}, {"store", "save", ph.SaveMicros}, {"serve", "index", ph.IndexMicros},
		{"stream", "promote", ph.PromoteMicros},
	} {
		if p.micros == 0 {
			continue
		}
		tr.put(span{Trace: index, Span: tr.reserve(), Parent: parent, Layer: p.layer, Name: p.name, StartNs: at, EndNs: at + p.micros*1e3})
		at += p.micros * 1e3
	}
}

// gateIngest checks, after every episode, that nothing was lost or served
// differently: every
// event applied, the expected number of generations, the last shard
// group joining back to the last full file byte for byte, and touched
// users answering the same from the live engine as from an engine that
// loads that file.
func gateIngest(rc *runCtx, rig *ingestRig, ep *episode, res *result) {
	st := ep.status
	if want := uint64(rig.primed + ep.sent); st.AppliedEvents != want {
		res.fail("updater applied %d events, %d were sent", st.AppliedEvents, want)
	}
	if want := uint64(1 + len(ep.publishes)); st.Publishes != want || st.Generation != want {
		res.fail("updater reports %d publishes at generation %d, want %d", st.Publishes, st.Generation, want)
	}
	if st.PendingEvents != 0 {
		res.fail("%d events still pending after the final publish", st.PendingEvents)
	}
	gen := st.Generation
	full := store.GenPath(rig.snapDir, gen)
	joined := filepath.Join(rig.dir, "joined.v2.snap")
	if err := shard.Join(rig.snapDir, gen, joined); err != nil {
		res.fail("joining the last shard group: %v", err)
		return
	}
	a, errA := os.ReadFile(full)
	b, errB := os.ReadFile(joined)
	if errA != nil || errB != nil {
		res.fail("reading generation %d back: %v %v", gen, errA, errB)
		return
	}
	if !bytes.Equal(a, b) {
		res.fail("shard.Join of generation %d is not byte-identical to the full file", gen)
	}
	ref := serve.NewMulti(serve.Options{Mmap: true})
	defer ref.Close()
	if _, err := ref.LoadGeneration(serve.DefaultSnapshot, full, nil, gen); err != nil {
		res.fail("loading generation %d into a fresh engine: %v", gen, err)
		return
	}
	users := ep.events.touched
	if len(users) > rc.sc.gateUsers {
		users = users[len(users)-rc.sc.gateUsers:]
	}
	for _, id := range users {
		res.Attempted++
		got, err1 := rig.engine.MembershipIn(serve.DefaultSnapshot, int(id), membershipK)
		want, err2 := ref.MembershipIn(serve.DefaultSnapshot, int(id), membershipK)
		if err1 != nil || err2 != nil {
			res.Failed++
			res.fail("membership of touched user %d: live %v, from file %v", id, err1, err2)
			return
		}
		got.Version, want.Version = 0, 0
		if !reflect.DeepEqual(got, want) {
			res.Failed++
			res.fail("touched user %d answers %+v live but %+v from the generation file", id, got, want)
			return
		}
	}
	res.Counts["gate_users"] = len(users)
}

// directPublisher times shard.Publisher.Publish alone: a full first
// generation of the fixed model, then generations in which one window's
// worth of users changed, all of them inside the first shard's range so
// the other shards' files can be hard-linked.
func directPublisher(rc *runCtx, rig *ingestRig, res *result) {
	const reps = 5
	dir := filepath.Join(rig.dir, "direct-shards")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		res.fail("direct publisher: %v", err)
		return
	}
	pub, err := shard.NewPublisher(dir, fleetShards)
	if err != nil {
		res.fail("direct publisher: %v", err)
		return
	}
	m := serve.SyntheticModel(rc.sc.model.users, rc.sc.model.communities, rc.sc.model.topics, rc.sc.model.words, modelSeed)
	if _, err := pub.Publish(1, m, shard.Delta{Full: true}); err != nil {
		res.fail("direct publisher, full generation: %v", err)
		return
	}
	changed := make([]int32, rc.sc.window)
	for i := range changed {
		changed[i] = int32(i)
	}
	var ms []float64
	for i := 0; i < reps; i++ {
		// Move the changed rows, as a publish after fold-in would.
		for _, u := range changed {
			row := m.Pi.Row(int(u))
			row[0], row[1] = row[1], row[0]
		}
		t0 := time.Now()
		if _, err := pub.Publish(uint64(2+i), m, shard.Delta{ChangedUsers: changed}); err != nil {
			res.fail("direct publisher, delta generation: %v", err)
			return
		}
		ms = append(ms, float64(time.Since(t0))/1e6)
	}
	res.setLayer("shard.publish_delta_ms", median(ms), reps)
	if total := pub.LinkedFiles + pub.WrittenFiles; total > 0 {
		res.setLayer("shard.linked_share", float64(pub.LinkedFiles)/float64(total)*100, 0)
	}
	// Set-up pieces this workload also pays for.
	if sizeMB, ok := directStore(rig.dir, m, rig.engine, res); ok {
		directShard(rig.dir, sizeMB, res)
	}
}

package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/knapsack"
	"repro/internal/lda"
	"repro/internal/rng"
	"repro/internal/socialgraph"
)

// Engine is the persistent parallel E-step of Sect. 4.3, rebuilt as a
// long-lived worker pool. It is created once per training run and reused for
// every sweep, replacing the seed implementation's per-sweep goroutine
// spawning (and its per-sweep allocation of worker scratch) with Workers
// resident goroutines fed over channels.
//
// Worker count is a purely *logical* parameter: the unit of work is the
// data segment (users grouped by dominant LDA topic, as in the paper), each
// segment owns a private RNG stream, and every cross-segment read during a
// sweep goes through a sweep-start snapshot while writes are buffered in
// per-worker overlays merged at the sweep barrier. Segment composition,
// per-segment sampling order and per-segment randomness are therefore all
// independent of how segments are packed onto workers, which makes training
// bit-identical for ANY Workers value — 1, NumCPU, or more goroutines than
// physical cores. That is what lets the Fig. 10(b) speedup experiment sweep
// {2, 4, 6, 8} workers even on a single-core machine.
//
// Segments are packed onto workers by the paper's repeated 0-1 knapsack
// (Eq. 17) against an operation-count estimate; after each sweep the engine
// compares measured per-worker wall times and re-packs with measured
// per-segment costs only when the imbalance drifts past a threshold,
// instead of re-planning every sweep.
type Engine struct {
	st      *state
	cfg     Config
	workers int

	segs    []*segment
	userSeg []int32 // dominant-topic segment per user

	// assign[w] lists the segment ids worker w runs this sweep; workerEst
	// is the per-worker load prediction at the current packing, and
	// lastWorkerEst the prediction that was live during the last recorded
	// sweep (so Diagnostics pairs estimates with the matching measured
	// times even when that sweep triggered a re-pack).
	assign        [][]int
	workerEst     []float64
	lastWorkerEst []float64

	jobs    []chan []int
	results chan workerResult

	snap     sweepSnapshot
	overlays []*overlay
	detSC    *scratch // direct-mode scratch for sequential detection sweeps

	// dirty, when non-nil, restricts sweeps to the marked users (see
	// SetDirty): the streaming delta trainer's "sweep only affected rows"
	// mode. nil means every user sweeps.
	dirty []bool

	// Measured timings. segSecs has one writer per segment per sweep (the
	// owning worker); workerSecs is filled at the barrier.
	segSecs        []float64
	workerSecs     []float64
	lastWorkerSecs []float64
	sweepSecs      []float64
	mh             MHStats   // summed over every pool sweep
	lazy           LazyDraws // summed over every sweep
	sinceRepack    int
	repacks        int
	closed         bool
}

// segment is one unit of E-step work: the users of one LDA data segment
// plus the friendship, negative-friendship and diffusion links they own
// (source-user ownership, so every Pólya-Gamma variable has one writer).
type segment struct {
	users   []int32
	friends []int32
	negs    []int32
	diffs   []int32
	r       *rng.RNG
	est     float64 // operation-count workload estimate
	meas    float64 // EWMA of measured seconds (0 until first sweep)
}

type workerResult struct {
	w    int
	secs float64
	mh   MHStats   // the worker's proposal counts for the sweep
	lazy LazyDraws // the worker's lazy-draw counts for the sweep
}

const (
	// repackImbalance is the measured max/mean worker-load ratio above
	// which the engine re-runs the knapsack packing.
	repackImbalance = 1.25
	// repackCooldown is the minimum number of sweeps between re-packs.
	repackCooldown = 2
	// measEWMA weighs the latest per-segment measurement against history.
	measEWMA = 0.5
)

// NewEngine validates the graph and configuration, builds the sampler
// state, segments the data, and starts the worker pool. Callers must Close
// the engine when done. Train wraps this; the scalability experiments use
// it directly so Fig. 10/11 time exactly the code path production training
// runs.
func NewEngine(g *socialgraph.Graph, cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid graph: %w", err)
	}
	if len(g.Docs) == 0 {
		return nil, fmt.Errorf("core: graph has no documents")
	}
	g.BuildIndexes()
	return newEngine(newState(g, cfg)), nil
}

func newEngine(st *state) *Engine {
	e := &Engine{st: st, cfg: st.cfg, workers: st.cfg.Workers}
	e.buildSegments()
	e.snap.init(st)
	loads := make([]float64, len(e.segs))
	for i, s := range e.segs {
		loads[i] = s.est
	}
	e.pack(loads)
	e.segSecs = make([]float64, len(e.segs))
	e.workerSecs = make([]float64, e.workers)
	e.detSC = newScratch(st.cfg, nil)
	e.jobs = make([]chan []int, e.workers)
	e.results = make(chan workerResult, e.workers)
	e.overlays = make([]*overlay, e.workers)
	for w := 0; w < e.workers; w++ {
		e.jobs[w] = make(chan []int)
		e.overlays[w] = newOverlay(st, &e.snap)
		go e.workerLoop(w, e.overlays[w])
	}
	return e
}

// buildSegments runs the segmentation LDA (Sect. 4.3: same-topic documents
// land in the same segment, reducing conflicting counter updates), builds
// the per-segment user and link lists, the operation-count workload
// estimates, and one RNG stream per segment. Everything here depends only
// on the graph and the seed — never on the worker count — which is the root
// of the engine's determinism guarantee.
func (e *Engine) buildSegments() {
	st, cfg := e.st, e.cfg
	numSeg := cfg.NumTopics

	docWords := make([][]int32, len(st.g.Docs))
	for i := range st.g.Docs {
		docWords[i] = st.g.Docs[i].Words
	}
	ldaModel := lda.Train(docWords, st.g.NumWords, lda.Config{
		NumTopics: numSeg,
		Iters:     cfg.SegmentLDAIters,
		Seed:      cfg.Seed ^ 0xD1F,
	})
	e.userSeg = make([]int32, st.g.NumUsers)
	votes := make([]int, numSeg)
	for u := 0; u < st.g.NumUsers; u++ {
		for i := range votes {
			votes[i] = 0
		}
		for _, d := range st.g.UserDocs(u) {
			votes[ldaModel.DominantTopic(int(d))]++
		}
		best := 0
		for t, n := range votes {
			if n > votes[best] {
				best = t
			}
		}
		e.userSeg[u] = int32(best)
	}

	// Workload estimate per user: an operation-count proxy for the per-doc
	// sampling cost (|Z| topic candidates + |C| community candidates + word
	// terms) and the per-link Pólya-Gamma cost, playing the role of the
	// paper's measured per-document/per-link averages.
	const pgCost = 24
	diffCount := make([]int, st.g.NumUsers)
	for _, l := range st.g.Diffs {
		diffCount[st.g.Docs[l.I].User]++
	}
	e.segs = make([]*segment, numSeg)
	for s := range e.segs {
		e.segs[s] = &segment{}
	}
	for u := 0; u < st.g.NumUsers; u++ {
		var words int
		for _, d := range st.g.UserDocs(u) {
			words += len(st.g.Docs[d].Words)
		}
		nd := float64(len(st.g.UserDocs(u)))
		load := nd*float64(cfg.NumTopics+cfg.NumCommunities) +
			float64(words)*float64(cfg.NumTopics)/4 +
			float64(len(st.userFriendLinks[u]))*(pgCost+nd) +
			float64(diffCount[u])*float64(cfg.NumCommunities+pgCost)
		seg := e.segs[e.userSeg[u]]
		seg.users = append(seg.users, int32(u))
		seg.est += load
	}
	for l, f := range st.g.Friends {
		seg := e.segs[e.userSeg[f.U]]
		seg.friends = append(seg.friends, int32(l))
	}
	for l, f := range st.negFriends {
		seg := e.segs[e.userSeg[f.U]]
		seg.negs = append(seg.negs, int32(l))
	}
	for l, d := range st.g.Diffs {
		seg := e.segs[e.userSeg[st.g.Docs[d.I].User]]
		seg.diffs = append(seg.diffs, int32(l))
	}
	// One RNG stream per segment, split from the root in fixed order so the
	// streams are identical for every Workers value.
	for s := range e.segs {
		e.segs[s].r = st.root.Split(uint64(s) + 101)
	}
}

// pack assigns segments to workers by repeated 0-1 knapsack solves against
// the ideal per-worker load (Eq. 17). Packing affects only which goroutine
// runs a segment — never the sweep's result.
func (e *Engine) pack(loads []float64) {
	e.assign = knapsack.Pack(loads, e.workers)
	e.workerEst = make([]float64, e.workers)
	for w, segIDs := range e.assign {
		for _, s := range segIDs {
			e.workerEst[w] += loads[s]
		}
	}
}

// Sweep runs one full parallel E-step: refresh the sweep-start caches and
// snapshots, dispatch the segment assignment to the pool, wait for the
// barrier, and fold the measured timings into the balancing state.
func (e *Engine) Sweep() { e.sweep(true) }

func (e *Engine) sweep(record bool) {
	if e.closed {
		panic("core: Sweep on closed Engine")
	}
	st := e.st
	if !st.contentOn {
		e.sweepDetect(record)
		return
	}
	st.refreshCaches()
	e.snap.capture(st)
	if st.als != nil {
		st.als.refresh(st, e.snap.zw)
	}

	t0 := time.Now()
	for w := range e.jobs {
		e.jobs[w] <- e.assign[w]
	}
	for range e.jobs {
		r := <-e.results
		e.workerSecs[r.w] = r.secs
		e.mh.add(r.mh)
		e.lazy.add(r.lazy)
	}
	dt := time.Since(t0).Seconds()

	if record {
		e.sweepSecs = append(e.sweepSecs, dt)
		e.lastWorkerSecs = append(e.lastWorkerSecs[:0], e.workerSecs...)
		e.lastWorkerEst = append(e.lastWorkerEst[:0], e.workerEst...)
	}
	for s, sec := range e.segSecs {
		seg := e.segs[s]
		if seg.meas == 0 {
			seg.meas = sec
		} else {
			seg.meas = measEWMA*sec + (1-measEWMA)*seg.meas
		}
	}
	e.maybeRepack()
}

// sweepDetect runs a detection-only sweep (warm start / the no-joint
// ablation's phase 1) sequentially in direct access mode: segments in
// fixed id order, each with its own RNG stream, with live neighbour reads.
// Detection-only block Gibbs is label propagation over the friendship
// graph — synchronous snapshot reads stall it (measurably: snapshot-read
// detection leaves the no-joint ablation near-random) — and a fixed
// sequential order keeps the fresh reads deterministic for every Workers
// value. This deliberately trades detection-phase parallelism for
// determinism and mixing: these sweeps sample one block move per user and
// no documents or diffusion variables, so they are an order of magnitude
// cheaper than joint sweeps, and the joint E-step — the phase Figs. 10–11
// measure — keeps the full pool.
func (e *Engine) sweepDetect(record bool) {
	st := e.st
	st.refreshPiSnapshots()
	t0 := time.Now()
	for _, seg := range e.segs {
		e.detSC.r = seg.r
		e.runSegment(seg, e.detSC)
	}
	e.lazy.add(e.detSC.lazy)
	e.detSC.lazy = LazyDraws{}
	dt := time.Since(t0).Seconds()
	if record {
		e.sweepSecs = append(e.sweepSecs, dt)
		e.lastWorkerSecs = append(e.lastWorkerSecs[:0], e.workerSecs...)
		for i := range e.lastWorkerSecs {
			e.lastWorkerSecs[i] = 0
		}
		if len(e.lastWorkerSecs) > 0 {
			e.lastWorkerSecs[0] = dt
		}
		e.lastWorkerEst = append(e.lastWorkerEst[:0], e.workerEst...)
	}
}

// maybeRepack re-runs the knapsack packing with measured per-segment costs,
// but only when the measured per-worker imbalance has drifted past
// repackImbalance — the steady state does no re-planning work at all.
func (e *Engine) maybeRepack() {
	e.sinceRepack++
	if e.workers < 2 || len(e.segs) <= e.workers || e.sinceRepack < repackCooldown {
		return
	}
	var sum, max float64
	for _, s := range e.workerSecs {
		sum += s
		if s > max {
			max = s
		}
	}
	mean := sum / float64(e.workers)
	if mean <= 0 || max/mean <= repackImbalance {
		return
	}
	loads := make([]float64, len(e.segs))
	for i, s := range e.segs {
		loads[i] = s.meas
	}
	e.pack(loads)
	e.repacks++
	e.sinceRepack = 0
}

// workerLoop is one resident pool worker: it owns a scratch and a write
// overlay for its whole lifetime, runs whatever segments each sweep assigns
// it, and reports its wall time at the barrier.
func (e *Engine) workerLoop(w int, ov *overlay) {
	sc := newScratch(e.cfg, nil)
	sc.ov = ov
	for segIDs := range e.jobs[w] {
		t0 := time.Now()
		for _, s := range segIDs {
			ts := time.Now()
			sc.r = e.segs[s].r
			e.runSegment(e.segs[s], sc)
			ov.flush()
			e.segSecs[s] = time.Since(ts).Seconds()
		}
		e.results <- workerResult{w: w, secs: time.Since(t0).Seconds(), mh: sc.mh, lazy: sc.lazy}
		sc.mh, sc.lazy = MHStats{}, LazyDraws{}
	}
}

// runSegment executes Alg. 1's E-step over one segment: sampleUser for
// each of its users (the dirty ones, under SetDirty), then the segment's
// own Pólya-Gamma link variables.
func (e *Engine) runSegment(seg *segment, sc *scratch) {
	for _, u := range seg.users {
		if e.dirty == nil || e.dirty[u] {
			e.st.sampleUser(u, sc)
		}
	}
	e.sampleSegmentLinks(seg, sc)
}

// sampleSegmentLinks resamples the Pólya-Gamma variables of the links a
// segment owns. They are refreshed when either endpoint's membership may
// have moved; a link between two clean users keeps its value (its
// posterior is unchanged to within the sweep's staleness).
func (e *Engine) sampleSegmentLinks(seg *segment, sc *scratch) {
	st, dirty := e.st, e.dirty
	if !st.cfg.NoFriendship {
		for _, li := range seg.friends {
			if dirty != nil {
				f := st.g.Friends[li]
				if !dirty[f.U] && !dirty[f.V] {
					continue
				}
			}
			st.sampleLambda(int(li), sc)
		}
		for _, li := range seg.negs {
			if dirty != nil {
				f := st.negFriends[li]
				if !dirty[f.U] && !dirty[f.V] {
					continue
				}
			}
			st.sampleLambdaNeg(int(li), sc)
		}
	}
	if st.contentOn {
		for _, de := range seg.diffs {
			if dirty != nil {
				l := st.g.Diffs[de]
				if !dirty[st.g.Docs[l.I].User] && !dirty[st.g.Docs[l.J].User] {
					continue
				}
			}
			st.sampleDelta(int(de), sc)
		}
	}
}

// Diagnostics reports the engine's accumulated timing and balancing
// information in the shape the Fig. 10/11 experiments consume.
func (e *Engine) Diagnostics() *Diagnostics {
	est := e.lastWorkerEst
	if len(est) == 0 { // no recorded sweep yet
		est = e.workerEst
	}
	d := &Diagnostics{
		SweepSeconds:    append([]float64(nil), e.sweepSecs...),
		WorkerEstimated: append([]float64(nil), est...),
		WorkerActual:    append([]float64(nil), e.lastWorkerSecs...),
		Segments:        len(e.segs),
		Repacks:         e.repacks,
		MH:              e.mh,
		Lazy:            e.lazy,
	}
	for _, s := range e.sweepSecs {
		d.EStepSeconds += s
	}
	return d
}

// Workers returns the pool size (a logical goroutine count, not a physical
// core count).
func (e *Engine) Workers() int { return e.workers }

// Close shuts the worker pool down. The engine must not be swept again.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	for _, ch := range e.jobs {
		close(ch)
	}
}

// --- sweep snapshots and write overlays ---------------------------------

// sweepSnapshot is the sweep-start copy of every piece of state a sampler
// may read across segment boundaries. Reads through it are what make a
// sweep's outcome independent of segment-to-worker packing and scheduling:
// a segment sees its own writes (through its overlay) and the previous
// sweep's view of everything else — the same staleness trade-off the
// paper's multi-thread design accepts, made deterministic.
type sweepSnapshot struct {
	cz, ct, zw, zt, tz, tt []int64
	ca, caTot              []int64
	lam, lamNeg, del       []float64
	z                      []int32
}

func (s *sweepSnapshot) init(st *state) {
	s.cz = make([]int64, len(st.nCZ.data))
	s.ct = make([]int64, len(st.nCT.data))
	s.zw = make([]int64, len(st.nZW.data))
	s.zt = make([]int64, len(st.nZT.data))
	s.tz = make([]int64, len(st.nTZ.data))
	s.tt = make([]int64, len(st.nTT.data))
	if st.attrOn {
		s.ca = make([]int64, len(st.nCA.data))
		s.caTot = make([]int64, len(st.nCATot.data))
	}
	s.lam = make([]float64, len(st.lambda.bits))
	s.lamNeg = make([]float64, len(st.lambdaNeg.bits))
	s.del = make([]float64, len(st.delta.bits))
	s.z = make([]int32, len(st.docZ))
}

// capture copies the live state into the snapshot buffers. Called between
// sweeps, when no worker is running.
func (s *sweepSnapshot) capture(st *state) {
	copy(s.cz, st.nCZ.data)
	copy(s.ct, st.nCT.data)
	copy(s.zw, st.nZW.data)
	copy(s.zt, st.nZT.data)
	copy(s.tz, st.nTZ.data)
	copy(s.tt, st.nTT.data)
	if st.attrOn {
		copy(s.ca, st.nCA.data)
		copy(s.caTot, st.nCATot.data)
	}
	for i := range s.lam {
		s.lam[i] = st.lambda.get(i)
	}
	for i := range s.lamNeg {
		s.lamNeg[i] = st.lambdaNeg.get(i)
	}
	for i := range s.del {
		s.del[i] = st.delta.get(i)
	}
	copy(s.z, st.docZ)
}

// ovBuf buffers one counter array's segment-local updates: reads see the
// sweep-start snapshot plus this segment's own deltas, and flush folds the
// deltas into the live array at segment end (atomic adds commute, so the
// merged result is identical for every packing and schedule).
type ovBuf struct {
	snap    []int64 // shared sweep-start copy (read-only during a sweep)
	live    []int64 // shared live storage (flush target)
	delta   []int64 // this worker's buffered updates
	touched []int32
}

func makeOvBuf(snap, live []int64) ovBuf {
	return ovBuf{snap: snap, live: live, delta: make([]int64, len(live))}
}

func (b *ovBuf) get(i int) int64 { return b.snap[i] + b.delta[i] }

func (b *ovBuf) add(i int, d int64) {
	if b.delta[i] == 0 {
		b.touched = append(b.touched, int32(i))
	}
	b.delta[i] += d
}

func (b *ovBuf) flush() {
	for _, i := range b.touched {
		if d := b.delta[i]; d != 0 {
			atomic.AddInt64(&b.live[i], d)
			b.delta[i] = 0
		}
	}
	b.touched = b.touched[:0]
}

// overlay is one worker's full write buffer plus the read-side snapshot
// context the samplers consult through the scratch (scratch.ov). A nil
// scratch.ov selects the direct, in-place access mode used by the serial
// reference sweep, the sequential detection sweeps, and the M-step.
type overlay struct {
	snap *sweepSnapshot

	cz, ct, zw, zt, tz, tt ovBuf
	ca, caTot              ovBuf
}

func newOverlay(st *state, snap *sweepSnapshot) *overlay {
	ov := &overlay{snap: snap}
	ov.cz = makeOvBuf(snap.cz, st.nCZ.data)
	ov.ct = makeOvBuf(snap.ct, st.nCT.data)
	ov.zw = makeOvBuf(snap.zw, st.nZW.data)
	ov.zt = makeOvBuf(snap.zt, st.nZT.data)
	ov.tz = makeOvBuf(snap.tz, st.nTZ.data)
	ov.tt = makeOvBuf(snap.tt, st.nTT.data)
	if st.attrOn {
		ov.ca = makeOvBuf(snap.ca, st.nCA.data)
		ov.caTot = makeOvBuf(snap.caTot, st.nCATot.data)
	}
	return ov
}

// flush merges every buffered delta into the live counters (segment end).
func (ov *overlay) flush() {
	ov.cz.flush()
	ov.ct.flush()
	ov.zw.flush()
	ov.zt.flush()
	ov.tz.flush()
	ov.tt.flush()
	if ov.ca.live != nil {
		ov.ca.flush()
		ov.caTot.flush()
	}
}

// --- sampler-facing counter accessors ------------------------------------
//
// Every counter read or write inside the E-step samplers goes through one
// of these helpers: in direct mode (sc.ov == nil) they hit the live atomic
// tables exactly as the serial reference sweep always has; in engine mode
// they read snapshot-plus-own-delta and write the overlay.

func (st *state) cntCZ(sc *scratch, c, z int) int64 {
	if sc.ov == nil {
		return st.nCZ.at(c, z)
	}
	return sc.ov.cz.get(c*st.nCZ.cols + z)
}

func (st *state) addCZ(sc *scratch, c, z int, d int64) {
	if sc.ov == nil {
		st.nCZ.add(c, z, d)
		return
	}
	sc.ov.cz.add(c*st.nCZ.cols+z, d)
}

func (st *state) cntCT(sc *scratch, c int) int64 {
	if sc.ov == nil {
		return st.nCT.at(c)
	}
	return sc.ov.ct.get(c)
}

func (st *state) addCT(sc *scratch, c int, d int64) {
	if sc.ov == nil {
		st.nCT.add(c, d)
		return
	}
	sc.ov.ct.add(c, d)
}

func (st *state) cntZW(sc *scratch, z, w int) int64 {
	if sc.ov == nil {
		return st.nZW.at(w, z)
	}
	return sc.ov.zw.get(w*st.nZW.cols + z)
}

// cntZWAll returns word w's count under every topic — one contiguous run of
// the word-major table — in a buffer that is good until the next call.
func (st *state) cntZWAll(sc *scratch, w int) []int64 {
	Z := st.nZW.cols
	out := sc.zwRun[:Z]
	if sc.ov == nil {
		live := st.nZW.data[w*Z : (w+1)*Z]
		for z := range out {
			out[z] = atomic.LoadInt64(&live[z])
		}
		return out
	}
	snap, delta := sc.ov.zw.snap[w*Z:(w+1)*Z], sc.ov.zw.delta[w*Z:(w+1)*Z]
	for z := range out {
		out[z] = snap[z] + delta[z]
	}
	return out
}

func (st *state) addZW(sc *scratch, z, w int, d int64) {
	if sc.ov == nil {
		st.nZW.add(w, z, d)
		return
	}
	sc.ov.zw.add(w*st.nZW.cols+z, d)
}

func (st *state) cntZT(sc *scratch, z int) int64 {
	if sc.ov == nil {
		return st.nZT.at(z)
	}
	return sc.ov.zt.get(z)
}

func (st *state) addZT(sc *scratch, z int, d int64) {
	if sc.ov == nil {
		st.nZT.add(z, d)
		return
	}
	sc.ov.zt.add(z, d)
}

func (st *state) cntTZ(sc *scratch, b, z int) int64 {
	if sc.ov == nil {
		return st.nTZ.at(b, z)
	}
	return sc.ov.tz.get(b*st.nTZ.cols + z)
}

func (st *state) addTZ(sc *scratch, b, z int, d int64) {
	if sc.ov == nil {
		st.nTZ.add(b, z, d)
		return
	}
	sc.ov.tz.add(b*st.nTZ.cols+z, d)
}

func (st *state) cntTT(sc *scratch, b int) int64 {
	if sc.ov == nil {
		return st.nTT.at(b)
	}
	return sc.ov.tt.get(b)
}

func (st *state) addTT(sc *scratch, b int, d int64) {
	if sc.ov == nil {
		st.nTT.add(b, d)
		return
	}
	sc.ov.tt.add(b, d)
}

func (st *state) cntCA(sc *scratch, c, a int) int64 {
	if sc.ov == nil {
		return st.nCA.at(c, a)
	}
	return sc.ov.ca.get(c*st.nCA.cols + a)
}

func (st *state) addCA(sc *scratch, c, a int, d int64) {
	if sc.ov == nil {
		st.nCA.add(c, a, d)
		return
	}
	sc.ov.ca.add(c*st.nCA.cols+a, d)
}

func (st *state) cntCATot(sc *scratch, c int) int64 {
	if sc.ov == nil {
		return st.nCATot.at(c)
	}
	return sc.ov.caTot.get(c)
}

func (st *state) addCATot(sc *scratch, c int, d int64) {
	if sc.ov == nil {
		st.nCATot.add(c, d)
		return
	}
	sc.ov.caTot.add(c, d)
}

// lamAt / lamNegAt / delAt read a Pólya-Gamma variable during the document
// phase: the sweep-start snapshot in engine mode (link variables owned by
// other segments may be mid-resample), the live value in direct mode.
func (st *state) lamAt(sc *scratch, li int) float64 {
	if sc.ov == nil {
		return st.lambda.get(li)
	}
	return sc.ov.snap.lam[li]
}

func (st *state) lamNegAt(sc *scratch, li int) float64 {
	if sc.ov == nil {
		return st.lambdaNeg.get(li)
	}
	return sc.ov.snap.lamNeg[li]
}

func (st *state) delAt(sc *scratch, e int) float64 {
	if sc.ov == nil {
		return st.delta.get(e)
	}
	return sc.ov.snap.del[e]
}

// zAt reads a document's topic assignment during community sampling: live
// for the document being sampled (cur — its topic was just resampled), the
// sweep-start snapshot for any other document in engine mode.
func (st *state) zAt(sc *scratch, d, cur int32) int32 {
	if sc.ov == nil || d == cur {
		return st.zload(d)
	}
	return sc.ov.snap.z[d]
}

package core

import (
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/rng"
	"repro/internal/socialgraph"
	"repro/internal/sparse"
)

// table is a 2-D integer counter accessed through atomics so the parallel
// E-step can update shared counts Hogwild-style without data races (the
// staleness this admits is the same staleness the paper's multi-thread
// design accepts; see Sect. 4.3).
type table struct {
	rows, cols int
	data       []int64
}

func newTable(rows, cols int) *table {
	return &table{rows: rows, cols: cols, data: make([]int64, rows*cols)}
}

func (t *table) at(i, j int) int64 {
	return atomic.LoadInt64(&t.data[i*t.cols+j])
}

func (t *table) add(i, j int, d int64) {
	atomic.AddInt64(&t.data[i*t.cols+j], d)
}

// vec is a 1-D atomic counter.
type vec struct{ data []int64 }

func newVec(n int) *vec { return &vec{data: make([]int64, n)} }

func (v *vec) at(i int) int64     { return atomic.LoadInt64(&v.data[i]) }
func (v *vec) add(i int, d int64) { atomic.AddInt64(&v.data[i], d) }

// floats is a slice of float64 values with atomic access (bit-cast through
// uint64): each Pólya-Gamma variable has a single writer (its owning
// worker) but is read by the workers of both link endpoints.
type floats struct{ bits []uint64 }

func newFloats(n, fillBits uint64) *floats {
	f := &floats{bits: make([]uint64, n)}
	for i := range f.bits {
		f.bits[i] = fillBits
	}
	return f
}

func (f *floats) get(i int) float64 {
	return math.Float64frombits(atomic.LoadUint64(&f.bits[i]))
}

func (f *floats) set(i int, v float64) {
	atomic.StoreUint64(&f.bits[i], math.Float64bits(v))
}

// countLogs is a read-only table of log(n + off) over the integer counts n
// a counter can hold. The collapsed conditionals of Eqs. 13–14 are sums of
// such logs, and a sweep asks for the same few thousand values |Z| times
// per document; tab[n] holds exactly the float math.Log returns for
// float64(n)+off, so a lookup and a recomputation are interchangeable bit
// for bit, and at falls back to the latter past the end of the table.
type countLogs struct {
	off float64
	tab []float64
}

// maxCountLogs caps a table's length: counts beyond it are the handful of
// totals of a large corpus, not worth 8 bytes per possible value.
const maxCountLogs = 1 << 16

// newCountLogs tables log(n + off) for n = 0 … maxCount (a bound on the
// counter, e.g. the corpus's document count), up to the cap.
func newCountLogs(off float64, maxCount int) countLogs {
	t := countLogs{off: off, tab: make([]float64, min(maxCount+1, maxCountLogs))}
	for n := range t.tab {
		t.tab[n] = math.Log(float64(n) + off)
	}
	return t
}

func (t *countLogs) at(n int64) float64 {
	if uint64(n) < uint64(len(t.tab)) {
		return t.tab[n]
	}
	return t.compute(n)
}

// compute is at's path past the table, kept out of line so that at inlines.
//
//go:noinline
func (t *countLogs) compute(n int64) float64 { return math.Log(float64(n) + t.off) }

// state is the full sampler state for one training run.
type state struct {
	cfg Config
	g   *socialgraph.Graph

	numDocs int

	// Assignments, accessed atomically (other workers read them when
	// materialising a neighbour's pi-hat or a linked document's topic).
	docC []int32 // community assignment c_ui per document
	docZ []int32 // topic assignment z_ui per document

	// Counters of Sect. 4.1. The user-community counts n_u^c are *derived*
	// from docC on demand (a user's support is exactly the multiset of her
	// documents' assignments), which keeps pi-hat construction lock-free.
	nCZ  *table // community-topic counts n_c^z
	nCT  *vec   // community totals n_c
	nZW  *table // topic-word counts n_z^w, stored word-major: row w, column z
	nZT  *vec   // topic totals n_z
	nTZ  *table // timebucket-topic counts (popularity factor n_tz)
	nTT  *vec   // timebucket totals
	nDoc []int  // |D_u| per user (fixed)

	// Attribute-profile extension (Config.ModelAttributes): one latent
	// community per user attribute token, contributing to π̂ like a
	// document, plus the community-attribute counters behind ξ.
	attrOn bool
	attrC  [][]int32 // per user, parallel to g.Attrs[u]
	nCA    *table    // community-attribute counts
	nCATot *vec      // per-community attribute totals
	nAttr  []int     // attribute tokens per user (fixed)

	// Pólya-Gamma augmentation variables, one per link; each is owned by a
	// single worker but read across workers, hence atomic floats.
	lambda *floats // per friendship link
	delta  *floats // per diffusion link

	// Model parameters updated in the M-step.
	eta *sparse.Tensor3 // |C| x |C| x |Z|
	nu  []float64       // socialgraph.FeatureDim

	// Per-document metadata.
	docBucket []int // time bucket of each document

	// Per-diffusion-link metadata (fixed during training).
	linkFeat   [][]float64 // f_uv per link
	linkOffset []float64   // nu^T f_uv, refreshed after each nu update

	// userFriendLinks[u] lists the friendship link ids with u as either
	// endpoint (the Λ_u products of Eqs. 13–14 run over links, so a pair
	// connected in both directions contributes two ψ factors, matching
	// p(F) = ∏_{(u,v) ∈ F}).
	userFriendLinks [][]int32
	// negFriends are sampled non-links conditioned on as zeros (see
	// Config.NegFriendPerPos), with their own PG variables and a per-user
	// incidence index.
	negFriends         []socialgraph.FriendLink
	lambdaNeg          *floats
	userNegFriendLinks [][]int32
	// diffPairSet holds observed (I, J) document pairs for negative
	// sampling rejection in the nu M-step.
	diffPairSet map[int64]struct{}

	// Per-sweep caches (Sect. 4.3's stale-cache trade-off): eta slices per
	// topic, bilinear aggregates per topic, the theta-hat snapshot columns
	// used as the bilinear weight vectors, and per-user pi-hat snapshots.
	// The snapshots serve all *neighbour* reads during a sweep — rebuilding
	// pi-hat_v per incident link would make the sweep quadratic in the
	// per-user document density; reading a sweep-start snapshot keeps it
	// linear, at the cost of the same within-sweep staleness the parallel
	// E-step already accepts. The sampled user's own pi-hat is always
	// exact.
	// etaFlat/etaSlice and thetaColM use the same flat row-major layout as
	// the model caches (model.go initCaches): one contiguous [z][c][c']
	// buffer with per-topic Dense views, and theta transposed as a |Z| x
	// |C| matrix, so the sampler and the serving paths share a layout.
	etaFlat   []float64
	etaDirty  bool                  // eta changed since etaFlat was last rebuilt
	etaSlice  []*sparse.Dense       // [z] -> |C| x |C| view into etaFlat
	aggs      []*sparse.BilinearAgg // [z]
	thetaColM *sparse.Dense         // row z = theta-hat column z
	piSnapIdx [][]int32             // per-user snapshot support
	piSnapVal [][]float64           // per-user snapshot residuals
	piSnapSum []float64             // per-user sum of piSnapVal, in slice order
	cFrozen   bool                  // phase-2 of NoJointModeling: freeze C
	contentOn bool                  // phase-1 of NoJointModeling disables content+diffusion

	// als holds the alias + MH proposal tables when Config.Sampler selects
	// the "alias" E-step (see sampler_alias.go); nil selects the exact
	// samplers, leaving their code path — and RNG consumption — untouched.
	als *aliasSampler

	// Logs of count + hyper-parameter, shared read-only by every worker:
	// lgAlpha over n_c^z, lgZAlpha over n_c, lgBeta over n_z^w, and under
	// the attribute extension lgMu over n_c^a and lgAMu over the attribute
	// totals. logRho is log ρ, the community prior off a user's support.
	lgAlpha, lgZAlpha, lgBeta countLogs
	lgMu, lgAMu               countLogs
	logRho                    float64

	root *rng.RNG
}

// newState initializes assignments uniformly at random and builds every
// counter.
func newState(g *socialgraph.Graph, cfg Config) *state {
	// Uniform eta start so the diffusion bilinear form is informative from
	// sweep one; nu starts at zero.
	eta := sparse.NewTensor3(cfg.NumCommunities, cfg.NumCommunities, cfg.NumTopics)
	eta.Fill(1 / float64(cfg.NumCommunities*cfg.NumCommunities*cfg.NumTopics))
	return buildState(g, cfg, eta, nil, nil, nil)
}

// buildState is the one place a sampler state is put together, for a fresh
// run (newState) and for a run resumed from a model (newStateFromModel):
// the first len(keepC) documents take the given assignments, every further
// one is drawn uniformly from the root RNG in document order, and the
// counters (with their layouts), link metadata, negative sample, log tables,
// caches and alias sampler all follow from those. The state owns eta; nu is
// copied.
func buildState(g *socialgraph.Graph, cfg Config, eta *sparse.Tensor3, nu []float64, keepC, keepZ []int32) *state {
	st := &state{
		cfg:       cfg,
		g:         g,
		numDocs:   len(g.Docs),
		docC:      make([]int32, len(g.Docs)),
		docZ:      make([]int32, len(g.Docs)),
		nCZ:       newTable(cfg.NumCommunities, cfg.NumTopics),
		nCT:       newVec(cfg.NumCommunities),
		nZW:       newTable(g.NumWords, cfg.NumTopics),
		nZT:       newVec(cfg.NumTopics),
		nDoc:      make([]int, g.NumUsers),
		eta:       eta,
		nu:        make([]float64, socialgraph.FeatureDim),
		contentOn: true,
		root:      rng.New(cfg.Seed),
	}
	copy(st.nu, nu)
	buckets, nb := g.TimeBuckets(cfg.TimeBuckets)
	st.docBucket = buckets
	st.nTZ = newTable(nb, cfg.NumTopics)
	st.nTT = newVec(nb)

	tokens := 0
	for i, d := range g.Docs {
		st.nDoc[d.User]++
		var c, z int32
		if i < len(keepC) {
			c, z = keepC[i], keepZ[i]
		} else {
			c = int32(st.root.Intn(cfg.NumCommunities))
			z = int32(st.root.Intn(cfg.NumTopics))
		}
		st.docC[i] = c
		st.docZ[i] = z
		st.nCZ.add(int(c), int(z), 1)
		st.nCT.add(int(c), 1)
		for _, w := range d.Words {
			st.nZW.add(int(w), int(z), 1)
		}
		st.nZT.add(int(z), int64(len(d.Words)))
		tokens += len(d.Words)
		st.nTZ.add(st.docBucket[i], int(z), 1)
		st.nTT.add(st.docBucket[i], 1)
	}
	// Attribute extension: random initial assignments, counted like docs.
	st.nAttr = make([]int, g.NumUsers)
	if cfg.ModelAttributes && g.Attrs != nil {
		st.attrOn = true
		st.attrC = make([][]int32, g.NumUsers)
		st.nCA = newTable(cfg.NumCommunities, g.NumAttrs)
		st.nCATot = newVec(cfg.NumCommunities)
		attrTokens := 0
		for u := 0; u < g.NumUsers; u++ {
			as := g.Attrs[u]
			st.nAttr[u] = len(as)
			st.attrC[u] = make([]int32, len(as))
			for k, a := range as {
				c := int32(st.root.Intn(cfg.NumCommunities))
				st.attrC[u][k] = c
				st.nCA.add(int(c), int(a), 1)
				st.nCATot.add(int(c), 1)
			}
			attrTokens += len(as)
		}
		st.lgMu = newCountLogs(cfg.Mu, attrTokens)
		st.lgAMu = newCountLogs(float64(g.NumAttrs)*cfg.Mu, attrTokens)
	}
	// A community-topic count or community total cannot exceed the number of
	// documents, a topic-word count the number of tokens.
	st.lgAlpha = newCountLogs(cfg.Alpha, len(g.Docs))
	st.lgZAlpha = newCountLogs(float64(cfg.NumTopics)*cfg.Alpha, len(g.Docs))
	st.lgBeta = newCountLogs(cfg.Beta, tokens)
	st.logRho = math.Log(cfg.Rho)
	// Pólya-Gamma variables start at the PG(1, 0) mean (they are not
	// serialized: a resumed run re-equilibrates them in one sweep).
	pgInit := math.Float64bits(0.25)
	st.lambda = newFloats(uint64(len(g.Friends)), pgInit)
	st.delta = newFloats(uint64(len(g.Diffs)), pgInit)
	// Per-link features (fixed) and nu offsets.
	st.linkFeat = make([][]float64, len(g.Diffs))
	st.linkOffset = make([]float64, len(g.Diffs))
	st.diffPairSet = make(map[int64]struct{}, len(g.Diffs))
	for e, l := range g.Diffs {
		u := int(g.Docs[l.I].User)
		v := int(g.Docs[l.J].User)
		st.linkFeat[e] = g.PairFeatures(nil, u, v)
		st.diffPairSet[int64(l.I)*int64(len(g.Docs))+int64(l.J)] = struct{}{}
	}
	st.userFriendLinks = make([][]int32, g.NumUsers)
	for l, f := range g.Friends {
		st.userFriendLinks[f.U] = append(st.userFriendLinks[f.U], int32(l))
		if f.V != f.U {
			st.userFriendLinks[f.V] = append(st.userFriendLinks[f.V], int32(l))
		}
	}
	st.sampleNegFriends()
	st.refreshNuOffsets()
	st.refreshCaches()
	if cfg.aliasSampling() {
		st.als = newAliasSampler(st)
	}
	return st
}

// sampleNegFriends draws the fixed negative friendship pair sample and its
// incidence index (see Config.NegFriendPerPos).
func (st *state) sampleNegFriends() {
	g := st.g
	want := len(g.Friends) * st.cfg.NegFriendPerPos
	if want == 0 || g.NumUsers < 3 {
		st.lambdaNeg = newFloats(0, 0)
		st.userNegFriendLinks = make([][]int32, g.NumUsers)
		return
	}
	existing := make(map[int64]bool, len(g.Friends))
	for _, f := range g.Friends {
		existing[int64(f.U)*int64(g.NumUsers)+int64(f.V)] = true
	}
	st.negFriends = make([]socialgraph.FriendLink, 0, want)
	for tries := 0; len(st.negFriends) < want && tries < 20*want+100; tries++ {
		u := int32(st.root.Intn(g.NumUsers))
		v := int32(st.root.Intn(g.NumUsers))
		if u == v || existing[int64(u)*int64(g.NumUsers)+int64(v)] {
			continue
		}
		st.negFriends = append(st.negFriends, socialgraph.FriendLink{U: u, V: v})
	}
	st.lambdaNeg = newFloats(uint64(len(st.negFriends)), math.Float64bits(0.25))
	st.userNegFriendLinks = make([][]int32, g.NumUsers)
	for l, f := range st.negFriends {
		st.userNegFriendLinks[f.U] = append(st.userNegFriendLinks[f.U], int32(l))
		st.userNegFriendLinks[f.V] = append(st.userNegFriendLinks[f.V], int32(l))
	}
}

// cload / czload are the atomic assignment readers.
func (st *state) cload(doc int32) int32 { return atomic.LoadInt32(&st.docC[doc]) }
func (st *state) zload(doc int32) int32 { return atomic.LoadInt32(&st.docZ[doc]) }

func (st *state) cstore(doc int32, c int32) { atomic.StoreInt32(&st.docC[doc], c) }
func (st *state) zstore(doc int32, z int32) { atomic.StoreInt32(&st.docZ[doc], z) }

// refreshCaches rebuilds the per-topic eta slices, theta-hat snapshot
// columns and bilinear aggregates. Called once per sweep and after each
// M-step; costs O(|Z| |C|^2).
func (st *state) refreshCaches() {
	C, Z := st.cfg.NumCommunities, st.cfg.NumTopics
	if st.etaSlice == nil {
		st.etaFlat = make([]float64, Z*C*C)
		st.etaSlice = make([]*sparse.Dense, Z)
		for z := 0; z < Z; z++ {
			st.etaSlice[z] = sparse.NewDenseView(C, C, st.etaFlat[z*C*C:(z+1)*C*C])
		}
		st.aggs = make([]*sparse.BilinearAgg, Z)
		st.thetaColM = sparse.NewDense(Z, C)
		st.etaDirty = true
	}
	alpha := st.cfg.Alpha
	zAlpha := float64(Z) * alpha
	// The eta slices change only when the M-step re-estimates eta; between
	// consecutive E-step sweeps (RunEM bursts, pure-sweep benchmarks) the
	// O(|Z| |C|^2) strided re-copy is skipped. The theta columns and the
	// bilinear aggregates always rebuild — the counters move every sweep.
	for z := 0; z < Z; z++ {
		col := st.thetaColM.Row(z)
		for c := 0; c < C; c++ {
			col[c] = (float64(st.nCZ.at(c, z)) + alpha) / (float64(st.nCT.at(c)) + zAlpha)
		}
		slice := st.etaSlice[z]
		if st.etaDirty {
			st.eta.SliceKInto(z, slice)
			slice.Scale(st.cfg.EtaScale)
		}
		st.aggs[z] = sparse.NewBilinearAgg(slice, col)
	}
	st.etaDirty = false
	st.refreshPiSnapshots()
}

// refreshPiSnapshots rebuilds the per-user pi-hat snapshots (O(total
// tokens) per sweep), each with the sum of its residuals: a sweep dots a
// neighbour's snapshot once per incident link per document, and the sum is
// the part of that product that does not depend on the other side.
func (st *state) refreshPiSnapshots() {
	C := st.cfg.NumCommunities
	if st.piSnapIdx == nil {
		// A user's support holds at most one community per token, so the
		// snapshots are carved out of two arrays once and never grow.
		st.piSnapIdx = make([][]int32, st.g.NumUsers)
		st.piSnapVal = make([][]float64, st.g.NumUsers)
		st.piSnapSum = make([]float64, st.g.NumUsers)
		total := 0
		for u := range st.piSnapIdx {
			total += min(C, st.nDoc[u]+st.nAttr[u])
		}
		idx, val := make([]int32, total), make([]float64, total)
		for u := range st.piSnapIdx {
			n := min(C, st.nDoc[u]+st.nAttr[u])
			st.piSnapIdx[u], idx = idx[:0:n], idx[n:]
			st.piSnapVal[u], val = val[:0:n], val[n:]
		}
	}
	cnt := make([]float64, C)
	touched := make([]int32, 0, C)
	for u := 0; u < st.g.NumUsers; u++ {
		touched = touched[:0]
		bump := func(c int32) {
			if cnt[c] == 0 {
				touched = append(touched, c)
			}
			cnt[c]++
		}
		for _, d := range st.g.UserDocs(u) {
			bump(st.cload(d))
		}
		if st.attrOn {
			for k := range st.attrC[u] {
				bump(atomic.LoadInt32(&st.attrC[u][k]))
			}
		}
		slices.Sort(touched)
		den := st.piHatDen(int32(u))
		idx := st.piSnapIdx[u][:0]
		val := st.piSnapVal[u][:0]
		var sum float64
		for _, c := range touched {
			v := cnt[c] / den
			idx = append(idx, c)
			val = append(val, v)
			sum += v
			cnt[c] = 0
		}
		st.piSnapIdx[u] = idx
		st.piSnapVal[u] = val
		st.piSnapSum[u] = sum
	}
}

// piSnap materialises the sweep-start snapshot of pi-hat_u into out (a
// view; do not mutate).
func (st *state) piSnap(u int32, out *sparse.SmoothedVec) {
	out.Dim = st.cfg.NumCommunities
	out.Base = st.cfg.Rho / st.piHatDen(u)
	out.Idx = st.piSnapIdx[u]
	out.Val = st.piSnapVal[u]
}

// refreshNuOffsets recomputes the cached nu^T f_uv per diffusion link.
func (st *state) refreshNuOffsets() {
	for e := range st.linkOffset {
		var s float64
		for k, f := range st.linkFeat[e] {
			s += st.nu[k] * f
		}
		st.linkOffset[e] = s
	}
}

// scratch is per-worker reusable storage; nothing here is shared.
type scratch struct {
	r *rng.RNG
	// ov selects the engine's snapshot/overlay counter access for the
	// parallel E-step; nil selects direct in-place access (serial reference
	// sweep, M-step, unit tests). See engine.go.
	ov *overlay
	// pi-hat materialisation buffers.
	cnt     []float64 // |C| dense accumulation buffer
	touched []int32   // indexes of cnt currently non-zero
	piU     sparse.SmoothedVec
	piV     sparse.SmoothedVec
	idxBufU []int32
	valBufU []float64
	idxBufV []int32
	valBufV []float64
	// sampling weights (log domain), size max(|C|, |Z|); a topic draw's
	// partials (see topicBounds).
	logw []float64
	// a topic draw's upper bounds, size |Z|, and the diffusion links its
	// exact logits add.
	upper      []float64
	topicLinks []topicLink
	// per-candidate diffusion contributions.
	yBuf []float64 // |C|
	// per-doc word count pairs.
	wordIDs []int32
	wordCnt []int
	// one word's counts under every topic (cntZWAll).
	zwRun []int64
	// per-topic word-likelihood denominators.
	den denLogs
	// predigested link kernels for the alias community sampler (see
	// sampler_alias.go).
	links []linkEval
	// Metropolis–Hastings proposal counts of the alias sampler since the
	// owner last collected them (the engine does at every sweep barrier).
	mh MHStats
	// lazy-draw counts since the owner last collected them, likewise.
	lazy LazyDraws
}

// drawLog draws an index from log-weights with the scratch's generator and
// books what the lazy draw considered and evaluated under into.
func (sc *scratch) drawLog(logw []float64, into *rng.LazyStats) int {
	i := sc.r.CategoricalLog(logw)
	into.Drain(&sc.r.Lazy)
	return i
}

func newScratch(cfg Config, r *rng.RNG) *scratch {
	C, Z := cfg.NumCommunities, cfg.NumTopics
	// A pi-hat support never exceeds |C| entries, so none of these grows.
	return &scratch{
		r:       r,
		cnt:     make([]float64, C),
		touched: make([]int32, 0, C),
		logw:    make([]float64, max(C, Z)),
		upper:   make([]float64, Z),
		yBuf:    make([]float64, C),
		idxBufU: make([]int32, 0, C),
		valBufU: make([]float64, 0, C),
		idxBufV: make([]int32, 0, C),
		valBufV: make([]float64, 0, C),
		zwRun:   make([]int64, Z),
		den:     newDenLogs(Z),
	}
}

// denLogs caches, per topic, the word-likelihood denominators of Eq. 13:
// logs[z][j] = log(den[z] + j) for den[z] = n_z + Wβ and j = 0, 1, … up to
// the longest document this scratch has scored at that value. Drawing a
// topic moves n_z for two topics only — the one the document leaves and the
// one it joins — so every other topic's logs outlive the draw, the document
// and the sweep. A row is keyed by the den it was computed from, which is
// everything its values depend on.
type denLogs struct {
	den  []float64
	logs [][]float64
}

func newDenLogs(topics int) denLogs {
	// Room for documents of 16 words before any row reallocates.
	const room = 16
	dl := denLogs{den: make([]float64, topics), logs: make([][]float64, topics)}
	back := make([]float64, topics*room)
	for z := range dl.logs {
		dl.logs[z] = back[z*room : z*room : (z+1)*room]
	}
	return dl
}

// row returns log(den + j) for j = 0 … n-1, reusing what topic z's row
// already holds for this den and computing the rest.
func (dl *denLogs) row(z int, den float64, n int) []float64 {
	l := dl.logs[z]
	if dl.den[z] != den {
		dl.den[z] = den
		l = l[:0]
	}
	for j := len(l); j < n; j++ {
		l = append(l, math.Log(den+float64(j)))
	}
	dl.logs[z] = l
	return l[:n]
}

// piHat materialises pi-hat_u into out, excluding document excl (pass -1
// for no exclusion): base rho/(n_u + |C| rho) plus the sparse residual
// count_c/(n_u + |C| rho) derived from u's documents' — and, with the
// attribute extension, attribute tokens' — current (atomic) community
// assignments. idxBuf/valBuf back the SmoothedVec storage.
func (st *state) piHat(u int32, excl int32, out *sparse.SmoothedVec, idxBuf *[]int32, valBuf *[]float64, sc *scratch) {
	st.piHatExcl(u, excl, -1, out, idxBuf, valBuf, sc)
}

// piHatExcl is piHat with an additional attribute-token exclusion
// (exclAttr indexes u's attribute list; -1 for none). Only the attribute
// sampler passes exclAttr >= 0.
func (st *state) piHatExcl(u int32, exclDoc int32, exclAttr int, out *sparse.SmoothedVec, idxBuf *[]int32, valBuf *[]float64, sc *scratch) {
	C := st.cfg.NumCommunities
	den := st.piHatDen(u)
	out.Dim = C
	out.Base = st.cfg.Rho / den
	// Accumulate counts into the dense scratch, tracking touched entries.
	sc.touched = sc.touched[:0]
	bump := func(c int32) {
		if sc.cnt[c] == 0 {
			sc.touched = append(sc.touched, c)
		}
		sc.cnt[c]++
	}
	for _, d := range st.g.UserDocs(int(u)) {
		if d == exclDoc {
			continue
		}
		bump(st.cload(d))
	}
	if st.attrOn {
		for k := range st.attrC[u] {
			if k == exclAttr {
				continue
			}
			bump(atomic.LoadInt32(&st.attrC[u][k]))
		}
	}
	slices.Sort(sc.touched)
	*idxBuf = (*idxBuf)[:0]
	*valBuf = (*valBuf)[:0]
	for _, c := range sc.touched {
		*idxBuf = append(*idxBuf, c)
		*valBuf = append(*valBuf, sc.cnt[c]/den)
		sc.cnt[c] = 0
	}
	out.Idx = *idxBuf
	out.Val = *valBuf
}

// piHatDen returns the pi-hat denominator for user u: every community-
// assigned token (documents, plus attribute tokens under the extension)
// counts toward the Dirichlet posterior.
func (st *state) piHatDen(u int32) float64 {
	return float64(st.nDoc[u]+st.nAttr[u]) + float64(st.cfg.NumCommunities)*st.cfg.Rho
}

// piHatAt returns a single coordinate pi-hat_{u,c} (O(|D_u| + |A_u|)).
func (st *state) piHatAt(u int32, c int32) float64 {
	den := st.piHatDen(u)
	var cnt float64
	for _, d := range st.g.UserDocs(int(u)) {
		if st.cload(d) == c {
			cnt++
		}
	}
	if st.attrOn {
		for k := range st.attrC[u] {
			if atomic.LoadInt32(&st.attrC[u][k]) == c {
				cnt++
			}
		}
	}
	return (cnt + st.cfg.Rho) / den
}

// popTerm returns the topic-popularity contribution PopScale * n_tz / n_t
// for bucket b and topic z, or 0 when disabled or the bucket is empty.
func (st *state) popTerm(sc *scratch, b int, z int) float64 {
	if st.cfg.NoTopicPopularity {
		return 0
	}
	tot := st.cntTT(sc, b)
	if tot <= 0 {
		return 0
	}
	return st.cfg.PopScale * float64(st.cntTZ(sc, b, z)) / float64(tot)
}

// indivTerm returns the cached individual-preference contribution for link
// e, or 0 when disabled.
func (st *state) indivTerm(e int) float64 {
	if st.cfg.NoIndividual {
		return 0
	}
	return st.linkOffset[e]
}

package core

import (
	"math"
	"sync/atomic"

	"repro/internal/alias"
)

// This file implements Config.Sampler = "alias": alias-table proposal
// distributions with Metropolis–Hastings correction against the exact
// collapsed conditionals (the LightLDA/WarpLDA sub-linear sampling recipe,
// adapted to CPD's doc-level assignments and link kernels).
//
// The exact samplers in gibbs.go evaluate the full conditional at every
// candidate — O(|Z|·(|doc| + links·support)) per topic draw and
// O(|C|·links) per community draw. The alias sampler replaces the full
// scan with a handful of MH steps: each step draws a candidate from a
// cheap proposal (an O(1) alias-table draw from sweep-start counts, or a
// sparse-bucket draw from the user's own token assignments) and accepts
// or rejects it against the exact conditional evaluated at just the two
// candidates — diffusion and friendship kernels included, so the
// stationary distribution is the exact conditional, not an approximation
// of it. Proposal tables are rebuilt once per sweep from the sweep-start
// snapshot; their within-sweep staleness is exactly what the MH
// acceptance ratio corrects (q is known in closed form from the table
// weights).
//
// Cost per draw: a topic evaluation is one table lookup per distinct word
// (log(n_zw+β); a repeated word's further terms are computed), |doc|
// subtractions read from the scratch's denominator cache (computed only
// for the two topics whose n_z the previous draw moved), and one bilinear
// form per diffusing link. A community evaluation is two table lookups
// plus, per incident friendship link, one load from the neighbour's dense
// row in the user's friendship table (built once per user turn, see
// friendTable), and per diffusion link a binary search in (or, with
// heterogeneity, a scan of) the neighbour's support: predigestLinks has
// digested every candidate-independent part once per draw, the dot
// product among them, a friendship link's gathered from its row. A word's
// proposal table is built on first use from one contiguous run of the
// word-major n_zw snapshot.
//
// Determinism: the tables are built from sweep-start state (identical for
// every segment-to-worker packing), draws consume only the per-segment
// RNG stream, and every exact-conditional evaluation goes through the
// same snapshot/overlay accessors the exact sampler uses — so alias
// training, like exact training, is bit-identical for any Workers value.
// Its chains differ from the exact sampler's (different RNG consumption),
// which is why the alias path is gated by scenario NMI floors instead of
// golden equality.

// topicMHSteps / communityMHSteps are the MH proposal counts per draw.
// Even steps use the "prior" proposal (community-topic table for topics,
// membership sparse-bucket for communities), odd steps the "evidence"
// proposal (word-topic tables for topics, topic-community table for
// communities) — the LightLDA cycling that keeps both factors mixing.
const (
	topicMHSteps     = 4
	communityMHSteps = 4
)

// aliasSampler holds the per-sweep proposal structures. One per state;
// refreshed at every sweep start, read concurrently (and append-only via
// atomics) by the workers during the sweep.
type aliasSampler struct {
	// cz[c] is an alias table over topics with weights n_cz + alpha: the
	// doc-topic "prior" proposal given the document's current community.
	cz []*alias.Table
	// zc[z] is an alias table over communities with weights n_cz + alpha:
	// the community "content" proposal given the document's current topic.
	zc []*alias.Table
	// word[w] is an alias table over topics with weights n_zw + beta,
	// built lazily on first use (most sweeps touch a fraction of the
	// vocabulary's tail). Entries are published via atomic pointers; every
	// builder constructs an identical table from the same sweep-start
	// counts, so racing builders are benign and the result is
	// schedule-independent.
	word []atomic.Pointer[alias.Table]
	// zwSnap is the sweep-start topic-word counter array backing the lazy
	// word tables (the engine's sweepSnapshot.zw). nil in direct/serial
	// mode, where the live counters are read instead.
	zwSnap []int64
}

func newAliasSampler(st *state) *aliasSampler {
	return &aliasSampler{
		cz:   make([]*alias.Table, st.cfg.NumCommunities),
		zc:   make([]*alias.Table, st.cfg.NumTopics),
		word: make([]atomic.Pointer[alias.Table], st.g.NumWords),
	}
}

// refresh rebuilds the proposal tables from the current counters. Called
// between sweeps (no worker running), when the live counters equal the
// sweep-start snapshot; zwSnap carries the snapshot the lazy word tables
// read during the sweep (nil selects live reads for the serial path).
func (as *aliasSampler) refresh(st *state, zwSnap []int64) {
	C, Z := st.cfg.NumCommunities, st.cfg.NumTopics
	alpha := st.cfg.Alpha
	wts := make([]float64, Z)
	for c := 0; c < C; c++ {
		for z := 0; z < Z; z++ {
			wts[z] = float64(st.nCZ.at(c, z)) + alpha
		}
		if t := as.cz[c]; t != nil {
			t.Rebuild(wts) // between sweeps no worker holds the table
		} else {
			as.cz[c] = alias.New(wts)
		}
	}
	cwts := make([]float64, C)
	for z := 0; z < Z; z++ {
		for c := 0; c < C; c++ {
			cwts[c] = float64(st.nCZ.at(c, z)) + alpha
		}
		if t := as.zc[z]; t != nil {
			t.Rebuild(cwts)
		} else {
			as.zc[z] = alias.New(cwts)
		}
	}
	for w := range as.word {
		as.word[w].Store(nil)
	}
	as.zwSnap = zwSnap
}

// wordTable returns the sweep-start word-topic proposal table for word w,
// building it on first use.
func (as *aliasSampler) wordTable(st *state, w int) *alias.Table {
	if t := as.word[w].Load(); t != nil {
		return t
	}
	Z := st.cfg.NumTopics
	beta := st.cfg.Beta
	wts := make([]float64, Z)
	// n_zw is word-major: word w's counts are the run [w*Z, (w+1)*Z).
	if as.zwSnap != nil {
		for z, n := range as.zwSnap[w*Z : (w+1)*Z] {
			wts[z] = float64(n) + beta
		}
	} else {
		for z := range wts {
			wts[z] = float64(st.nZW.at(w, z)) + beta
		}
	}
	t := alias.New(wts)
	as.word[w].CompareAndSwap(nil, t)
	return as.word[w].Load()
}

// wordMixRatio returns log q(zA) − log q(zB) under the word proposal for
// the document whose grouped words are in sc: a uniform token is drawn,
// then a topic from that word's table, so q(z) is the count-weighted
// mixture of the tables' densities. Both densities come from one pass
// over the distinct words, and the uniform 1/|doc| token factor cancels
// in the ratio.
func (as *aliasSampler) wordMixRatio(st *state, sc *scratch, zA, zB int) float64 {
	var qa, qb float64
	for k, w := range sc.wordIDs {
		t := as.wordTable(st, int(w))
		cnt := float64(sc.wordCnt[k])
		qa += cnt * t.Prob(zA)
		qb += cnt * t.Prob(zB)
	}
	return math.Log(qa) - math.Log(qb)
}

// mhAccept runs one Metropolis–Hastings accept test in log space:
// accept log-ratio a = logp(prop) − logp(cur) + logq(cur) − logq(prop).
func mhAccept(sc *scratch, a float64) bool {
	return a >= 0 || math.Log(sc.r.Float64Open()) < a
}

// sampleDocTopicAlias is sampleDocTopic with the dense O(|Z|) candidate
// scan replaced by topicMHSteps MH proposals. The exact conditional —
// community-topic prior, word likelihood, and the diffusion kernels of
// the links d diffuses — is evaluated at only the current and proposed
// topics, through the same snapshot/overlay counter accessors as the
// exact sampler.
func (st *state) sampleDocTopicAlias(d int32, sc *scratch) {
	doc := &st.g.Docs[d]
	zOld := int(st.zload(d))
	c := int(st.cload(d))

	st.countDocTopic(sc, d, c, zOld, -1)

	sc.groupWords(doc.Words)

	// Build the sampled user's exact pi-hat once if any diffusion kernel
	// will need it (same exclusion-aware vector the exact sampler builds).
	diffuses := false
	if !st.cfg.NoHeterogeneity {
		for _, e := range st.g.DocDiffLinks(int(d)) {
			if st.g.Diffs[e].I == d {
				diffuses = true
				break
			}
		}
		if diffuses {
			st.piHat(doc.User, d, &sc.piU, &sc.idxBufU, &sc.valBufU, sc)
		}
	}

	as := st.als
	cur := zOld
	curLP := math.Inf(1) // computed lazily on the first real proposal
	for step := 0; step < topicMHSteps; step++ {
		var prop int
		var lqRatio float64 // log q(cur) − log q(prop)
		var stat *MHStat
		if step&1 == 0 || len(doc.Words) == 0 {
			t := as.cz[c]
			prop = t.Draw(sc.r)
			if prop == cur {
				continue
			}
			lqRatio = math.Log(t.Prob(cur)) - math.Log(t.Prob(prop))
			stat = &sc.mh.TopicPrior
		} else {
			w := doc.Words[sc.r.Intn(len(doc.Words))]
			prop = as.wordTable(st, int(w)).Draw(sc.r)
			if prop == cur {
				continue
			}
			lqRatio = as.wordMixRatio(st, sc, cur, prop)
			stat = &sc.mh.TopicWord
		}
		if math.IsInf(curLP, 1) {
			curLP = st.topicLogPost(d, c, cur, diffuses, sc)
		}
		propLP := st.topicLogPost(d, c, prop, diffuses, sc)
		accepted := mhAccept(sc, propLP-curLP+lqRatio)
		if accepted {
			cur, curLP = prop, propLP
		}
		stat.count(accepted)
	}

	zNew := cur
	st.zstore(d, int32(zNew))
	st.countDocTopic(sc, d, c, zNew, 1)
}

// topicLogPost evaluates Eq. 13's log conditional for document d (in
// community c) at the single candidate topic z: O(|doc| +
// difflinks·support) instead of O(|Z|·...). The document's words must be
// grouped in sc and, when it diffuses, its user's exclusion-aware pi-hat
// built in sc.piU.
func (st *state) topicLogPost(d int32, c, z int, diffuses bool, sc *scratch) float64 {
	doc := &st.g.Docs[d]
	lw := st.lgAlpha.at(st.cntCZ(sc, c, z))
	for k, w := range sc.wordIDs {
		n := st.cntZW(sc, z, int(w))
		lw += st.lgBeta.at(n)
		if cnt := sc.wordCnt[k]; cnt > 1 {
			lw = st.addRepeatLogs(lw, n, cnt)
		}
	}
	wBeta := float64(st.g.NumWords) * st.cfg.Beta
	for _, l := range sc.den.row(z, float64(st.cntZT(sc, z))+wBeta, len(doc.Words)) {
		lw -= l
	}
	if diffuses {
		for _, e := range st.g.DocDiffLinks(int(d)) {
			l := st.g.Diffs[e]
			if l.I != d {
				continue
			}
			st.neighborPi(st.g.Docs[l.J].User, doc.User, d, &sc.piV, &sc.idxBufV, &sc.valBufV, sc)
			x := st.aggs[z].Eval(st.etaSlice[z], st.thetaColM.Row(z), &sc.piU, &sc.piV) +
				st.popTerm(sc, st.docBucket[l.I], z) + st.indivTerm(int(e))
			lw += logPsi(x, st.delAt(sc, int(e)))
		}
	}
	return lw
}

// residualAt returns the sparse residual of a SmoothedVec-shaped support
// (sorted idx, parallel val) at coordinate c, 0 when absent.
func residualAt(idx []int32, val []float64, c int) float64 {
	lo, hi := 0, len(idx)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(idx[mid]) < c {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(idx) && int(idx[lo]) == c {
		return val[lo]
	}
	return 0
}

// sampleDocCommunityAlias is sampleDocCommunity with the dense O(|C|)
// candidate scan replaced by communityMHSteps MH proposals. The "prior"
// proposal is the sparse-bucket draw from the user's own remaining token
// assignments (q(c) ∝ n_u^{c,¬} + rho, sampled in O(1) without
// materialising anything dense); the "content" proposal is the
// sweep-start topic-community alias table. The exact conditional —
// membership prior, community-topic term, friendship and diffusion
// kernels — is evaluated at only the two candidates, each link costing
// O(support) instead of O(|C|).
func (st *state) sampleDocCommunityAlias(d int32, sc *scratch) {
	doc := &st.g.Docs[d]
	u := doc.User
	cOld := int(st.cload(d))
	z := int(st.zload(d))

	st.addCZ(sc, cOld, z, -1)
	st.addCT(sc, cOld, -1)

	C := st.cfg.NumCommunities
	rho := st.cfg.Rho

	st.piHat(u, d, &sc.piU, &sc.idxBufU, &sc.valBufU, sc)
	denU := st.piHatDen(u)
	invDenU := 1 / denU
	st.predigestLinks(d, invDenU, sc)

	// Sparse-bucket prior proposal: the prior mass splits into C·rho of
	// smoothing (uniform over communities) and one unit per remaining
	// token of the user (uniform over tokens, taking the token's current
	// assignment) — an O(1) draw from q(c) ∝ rho + n_u^{c,¬d} with no
	// dense scan and no table build.
	docs := st.g.UserDocs(int(u))
	nTok := st.nDoc[u] + st.nAttr[u] - 1 // tokens excluding d
	priorTotal := float64(C)*rho + float64(nTok)
	drawPrior := func() int {
		if nTok == 0 || sc.r.Float64()*priorTotal < float64(C)*rho {
			return sc.r.Intn(C)
		}
		for {
			j := sc.r.Intn(len(docs) + st.nAttr[u])
			if j < len(docs) {
				if docs[j] == d {
					continue // excluded token: redraw
				}
				return int(st.cload(docs[j]))
			}
			return int(atomic.LoadInt32(&st.attrC[u][j-len(docs)]))
		}
	}

	as := st.als
	cur := cOld
	curLP := math.Inf(1)
	for step := 0; step < communityMHSteps; step++ {
		var prop int
		var lqRatio float64
		var stat *MHStat
		if step&1 == 0 {
			prop = drawPrior()
			if prop == cur {
				continue
			}
			lqRatio = math.Log(st.priorAt(cur, denU, sc)) - math.Log(st.priorAt(prop, denU, sc))
			stat = &sc.mh.CommunityPrior
		} else {
			t := as.zc[z]
			prop = t.Draw(sc.r)
			if prop == cur {
				continue
			}
			lqRatio = math.Log(t.Prob(cur)) - math.Log(t.Prob(prop))
			stat = &sc.mh.CommunityContent
		}
		if math.IsInf(curLP, 1) {
			curLP = st.communityLogPost(cur, z, denU, invDenU, sc)
		}
		propLP := st.communityLogPost(prop, z, denU, invDenU, sc)
		accepted := mhAccept(sc, propLP-curLP+lqRatio)
		if accepted {
			cur, curLP = prop, propLP
		}
		stat.count(accepted)
	}

	cNew := cur
	st.cstore(d, int32(cNew))
	st.addCZ(sc, cNew, z, 1)
	st.addCT(sc, cNew, 1)
}

// priorAt returns rho + n_u^{c,¬d} from the exclusion-aware pi-hat in
// sc.piU.
func (st *state) priorAt(cc int, denU float64, sc *scratch) float64 {
	return st.cfg.Rho + residualAt(sc.piU.Idx, sc.piU.Val, cc)*denU
}

// communityLogPost evaluates Eq. 14's log conditional for a document of
// topic z at the single candidate community cc, against the pi-hat in
// sc.piU and the link kernels predigestLinks left in sc.links.
func (st *state) communityLogPost(cc, z int, denU, invDenU float64, sc *scratch) float64 {
	lp := math.Log(st.priorAt(cc, denU, sc))
	if st.contentOn {
		lp += st.lgAlpha.at(st.cntCZ(sc, cc, z)) - st.lgZAlpha.at(st.cntCT(sc, cc))
	}
	for i := range sc.links {
		lp += st.evalLinkAt(&sc.links[i], cc, invDenU, sc)
	}
	return lp
}

// predigestLinks fills sc.links with every link kernel of document d,
// digested once: the pi materialisation, dot product, bilinear aggregate
// and augmentation lookups are all candidate-independent, so hoisting them
// out of the MH loop leaves each evaluation a residual lookup (or one
// support scan for heterogeneous diffusion) per link. See evalLinkAt. The
// user's exclusion-aware pi-hat must be in sc.piU, and the user's
// friendship table built.
func (st *state) predigestLinks(d int32, invDenU float64, sc *scratch) {
	u := st.g.Docs[d].User
	sumU := sc.piU.ResidualSum()
	fs := st.cfg.FriendScale
	sc.links = sc.links[:0]
	if !st.cfg.NoFriendship {
		ft := sc.ft.forUser(u)
		for i := range ft.rows {
			r := &ft.rows[i]
			kind := linkFriendPos
			if !r.positive {
				kind = linkFriendNeg
			}
			x0 := fs * (ft.dot(i, &sc.piU, sumU) + r.base*invDenU)
			sc.links = append(sc.links, linkEval{x0: x0, aug: r.lam, other: int32(i), kind: kind})
		}
	}
	if !st.contentOn {
		return
	}
	for _, e := range st.g.DocDiffLinks(int(d)) {
		l := st.g.Diffs[e]
		delta := st.delAt(sc, int(e))
		otherU := st.g.Docs[l.J].User
		if l.I != d {
			otherU = st.g.Docs[l.I].User
		}
		pv, oth := &sc.piU, int32(-1)
		if otherU != u {
			st.piSnap(otherU, &sc.piV)
			pv, oth = &sc.piV, otherU
		}
		if st.cfg.NoHeterogeneity {
			sumV := sumU
			if oth >= 0 {
				sumV = st.piSnapSum[oth]
			}
			x0 := fs * (sc.piU.DotSums(pv, sumU, sumV) + pv.Base*invDenU)
			sc.links = append(sc.links, linkEval{x0: x0, aug: delta, other: oth, kind: linkDiffFlat})
			continue
		}
		lz := st.zAt(sc, l.I, d) // link topic = diffusing document's topic
		w := st.thetaColM.Row(int(lz))
		m := st.etaSlice[lz]
		agg := st.aggs[lz]
		base := st.popTerm(sc, st.docBucket[l.I], int(lz)) + st.indivTerm(int(e))
		kind := linkDiffRow
		if l.I == d {
			// d is the diffusing side: the candidate perturbs the row.
			base += agg.Eval(m, w, &sc.piU, pv)
		} else {
			kind = linkDiffCol
			base += agg.Eval(m, w, pv, &sc.piU)
		}
		sc.links = append(sc.links, linkEval{x0: base, aug: delta, base: pv.Base, other: oth, z: lz, kind: kind})
	}
}

// linkEval is one predigested link kernel for the alias community
// sampler. predigestLinks computes the candidate-independent
// part of each kernel argument once per document draw (pi views, the dot
// product or bilinear aggregate, the augmentation variable), so each MH
// candidate evaluation is O(1) for a friendship link, O(log support) for
// a NoHeterogeneity diffusion link and O(support) for the heterogeneous
// diffusion perturbation.
type linkEval struct {
	x0   float64 // candidate-independent part of the kernel argument
	aug  float64 // PG augmentation variable (lambda or delta)
	base float64 // counterparty's smoothing base (heterogeneous diffusion kinds only)
	// other locates the counterparty's residual. Friendship kinds: the
	// link's row in the sampled user's friendship table. Diffusion kinds:
	// the counterparty user, whose sweep-start snapshot is read, or -1
	// when the counterparty is the sampled user and the view is piU itself.
	other int32
	z     int32 // link topic (heterogeneous diffusion kinds only)
	kind  uint8
}

const (
	linkFriendPos uint8 = iota // positive friendship: logPsi
	linkFriendNeg              // sampled non-friend: logPsiNeg
	linkDiffFlat               // NoHeterogeneity diffusion: friendship-shaped
	linkDiffRow                // heterogeneous, d diffusing: candidate on the row
	linkDiffCol                // heterogeneous, d source: candidate on the column
)

// evalLinkAt evaluates one predigested link kernel at candidate
// community cc. The counterparty's pi view is resolved from stable
// storage (the friendship table's row, the sampled user's own
// exclusion-aware pi-hat in sc.piU, or the sweep-start snapshot slices) —
// nothing is copied per evaluation.
func (st *state) evalLinkAt(le *linkEval, cc int, invDenU float64, sc *scratch) float64 {
	// Friendship-shaped kinds: x(c) = x0 + fs·resid_v[c]/den_u, with
	// x0 = fs·(π̂_u^T π̂_v + base_v/den_u).
	switch le.kind {
	case linkFriendPos:
		return logPsi(le.x0+st.cfg.FriendScale*invDenU*sc.ft.at(int(le.other), cc), le.aug)
	case linkFriendNeg:
		return logPsiNeg(le.x0+st.cfg.FriendScale*invDenU*sc.ft.at(int(le.other), cc), le.aug)
	}
	idx, val := sc.piU.Idx, sc.piU.Val
	if le.other >= 0 {
		idx, val = st.piSnapIdx[le.other], st.piSnapVal[le.other]
	}
	switch le.kind {
	case linkDiffFlat:
		return logPsi(le.x0+st.cfg.FriendScale*invDenU*residualAt(idx, val, cc), le.aug)
	case linkDiffRow:
		// The candidate perturbs the row argument of the bilinear form:
		// y[c] accumulated over the neighbour's support only.
		z := int(le.z)
		w := st.thetaColM.Row(z)
		m := st.etaSlice[z]
		y := le.base * st.aggs[z].G[cc]
		for k, cp := range idx {
			y += m.At(cc, int(cp)) * val[k] * w[cp]
		}
		return logPsi(le.x0+w[cc]*y*invDenU, le.aug)
	default: // linkDiffCol: the candidate perturbs the column argument.
		z := int(le.z)
		w := st.thetaColM.Row(z)
		m := st.etaSlice[z]
		y := le.base * st.aggs[z].H[cc]
		for k, cr := range idx {
			y += m.Row(int(cr))[cc] * val[k] * w[cr]
		}
		return logPsi(le.x0+w[cc]*y*invDenU, le.aug)
	}
}

package core

import (
	"math"
	"sync/atomic"

	"repro/internal/polyagamma"
	"repro/internal/socialgraph"
	"repro/internal/sparse"
)

// logPsi returns log ψ(x, ω) = x/2 − ω x²/2, the log of the Pólya-Gamma
// mixture kernel of Eq. 7 that replaces each sigmoid likelihood factor in
// the collapsed posterior (Eqs. 10–11).
func logPsi(x, omega float64) float64 {
	return 0.5*x - 0.5*omega*x*x
}

// logPsiNeg is the kernel of a zero-labelled link: the PG identity for
// 1−σ(x) swaps the sign of the linear term (κ = y − 1/2 = −1/2).
func logPsiNeg(x, omega float64) float64 {
	return -0.5*x - 0.5*omega*x*x
}

// groupWords fills sc.wordIDs / sc.wordCnt with the document's distinct
// words and their within-document counts (documents are short, so a linear
// scan with a small inner loop beats sorting).
func (sc *scratch) groupWords(words []int32) {
	sc.wordIDs = sc.wordIDs[:0]
	sc.wordCnt = sc.wordCnt[:0]
outer:
	for _, w := range words {
		for k, seen := range sc.wordIDs {
			if seen == w {
				sc.wordCnt[k]++
				continue outer
			}
		}
		sc.wordIDs = append(sc.wordIDs, w)
		sc.wordCnt = append(sc.wordCnt, 1)
	}
}

// addRepeatLogs adds to lw the word-likelihood numerators a word's repeats
// contribute when it occurs cnt > 1 times in the document and n times under
// the candidate topic: log((n+β)+m) for m = 1 … cnt-1, after the tabled
// log(n+β) of its first occurrence. The repeats are computed, not tabled:
// (n+β)+m and (n+m)+β round differently.
func (st *state) addRepeatLogs(lw float64, n int64, cnt int) float64 {
	base := float64(n) + st.cfg.Beta
	for m := 1; m < cnt; m++ {
		lw += math.Log(base + float64(m))
	}
	return lw
}

// countDocTopic adds (by = 1) or removes (by = -1) document d, of
// community c, under topic z in every topic-dependent counter.
func (st *state) countDocTopic(sc *scratch, d int32, c, z int, by int64) {
	doc := &st.g.Docs[d]
	b := st.docBucket[d]
	st.addCZ(sc, c, z, by)
	st.addCT(sc, c, by)
	for _, w := range doc.Words {
		st.addZW(sc, z, int(w), by)
	}
	st.addZT(sc, z, by*int64(len(doc.Words)))
	st.addTZ(sc, b, z, by)
	st.addTT(sc, b, by)
}

// sampleDocTopic resamples z_ui per Eq. 13: the community-topic prior term,
// the word likelihood term and — through the Pólya-Gamma kernels — the
// diffusion links for which this document is the diffusing side. Friendship
// factors do not depend on Z and cancel. The draw is bounded: topicBounds
// gives every topic a cheap upper bound, and the diffusion kernels are
// summed (topicExact) only for the topics the bound cannot rule out.
func (st *state) sampleDocTopic(d int32, sc *scratch) {
	zOld := int(st.zload(d))
	c := int(st.cload(d))

	// Remove the document from all z-dependent counters (the ¬{ui}
	// convention).
	st.countDocTopic(sc, d, c, zOld, -1)

	upper := st.topicBounds(d, c, sc)
	zNew := sc.r.CategoricalLogBounded(upper, func(z int) float64 { return st.topicExact(d, z, sc) })
	sc.lazy.Topic.Drain(&sc.r.Lazy)
	st.zstore(d, int32(zNew))
	st.countDocTopic(sc, d, c, zNew, 1)
}

// topicLink is what topicExact needs of one diffusion link on which the
// sampled document is the diffusing side: the counterparty's π̂ and the
// link's constants.
type topicLink struct {
	piV          sparse.SmoothedVec
	indiv, delta float64
}

// topicBounds prepares the bounded topic draw of document d (in community
// c, already removed from the counters) and returns its upper bounds.
//
// Eq. 13's log conditional at topic z is a partial — the prior term, each
// distinct word's terms, then the denominators one by one — plus one
// diffusion kernel log ψ(x_z, δ) per link d diffuses on. The partials are
// cheap and land in sc.logw: the scan runs word by word over all topics,
// not topic by topic over all words, because n_zw is stored word-major, so
// a word's counts are one contiguous run. The kernels are not cheap (one
// bilinear form per link and topic), but log ψ(·, δ) peaks at 1/(8δ)
// whatever its argument, so upper[z] = partial[z] + Σ_links 1/(8δ) plus a
// rounding slack. A δ that is not a positive finite number bounds its link
// at +Inf: every topic is then evaluated. The links are collected into
// sc.topicLinks for topicExact.
func (st *state) topicBounds(d int32, c int, sc *scratch) []float64 {
	doc := &st.g.Docs[d]
	Z := st.cfg.NumTopics
	wBeta := float64(st.g.NumWords) * st.cfg.Beta
	sc.groupWords(doc.Words)
	logw := sc.logw[:Z]
	for z := range logw {
		logw[z] = st.lgAlpha.at(st.cntCZ(sc, c, z))
	}
	for k, w := range sc.wordIDs {
		counts := st.cntZWAll(sc, int(w))
		for z, n := range counts {
			logw[z] += st.lgBeta.at(n)
		}
		if cnt := sc.wordCnt[k]; cnt > 1 {
			for z, n := range counts {
				logw[z] = st.addRepeatLogs(logw[z], n, cnt)
			}
		}
	}
	for z := range logw {
		lw := logw[z]
		for _, l := range sc.den.row(z, float64(st.cntZT(sc, z))+wBeta, len(doc.Words)) {
			lw -= l
		}
		logw[z] = lw
	}

	// Diffusion kernels: only links where d is the diffusing document
	// depend on the candidate topic (the link topic is the diffusing
	// document's topic). None under the heterogeneity ablation (diffusion
	// is then topic-free).
	sc.topicLinks = sc.topicLinks[:0]
	var peaks float64 // Σ_links 1/(8δ)
	if !st.cfg.NoHeterogeneity {
		for _, e := range st.g.DocDiffLinks(int(d)) {
			l := st.g.Diffs[e]
			if l.I != d {
				continue
			}
			if len(sc.topicLinks) == 0 {
				st.piHat(doc.User, d, &sc.piU, &sc.idxBufU, &sc.valBufU, sc)
			}
			lk := topicLink{indiv: st.indivTerm(int(e)), delta: st.delAt(sc, int(e))}
			// A link within d's own user reads the exclusion-aware π̂ of
			// that user — sc.piU, bit for bit what neighborPi would
			// rebuild; any other counterparty its sweep-start snapshot.
			if vUser := st.g.Docs[l.J].User; vUser == doc.User {
				lk.piV = sc.piU
			} else {
				st.piSnap(vUser, &lk.piV)
			}
			sc.topicLinks = append(sc.topicLinks, lk)
			if lk.delta > 0 && !math.IsInf(lk.delta, 1) {
				peaks += 1 / (8 * lk.delta)
			} else {
				peaks = math.Inf(1)
			}
		}
	}

	// upper must not fall below the float64 topicExact returns. A computed
	// log ψ exceeds its link's 1/(8δ) by a few ulps of that peak at most,
	// and a kernel below its peak lowers the sum by more than the rounding
	// its size adds, so the exact sum can exceed partial + peaks only by
	// the rounding of one addition per link on numbers no larger than
	// |partial| + peaks. Eight ulps per addition on that cover it and the
	// rounding of upper's own sums, as serve.foldIn's relSlack does.
	relSlack := float64(len(sc.topicLinks)+2) * 0x1p-50
	upper := sc.upper[:Z]
	for z, p := range logw {
		upper[z] = p + (peaks + 1e-9 + relSlack*(math.Abs(p)+peaks))
		if math.IsInf(p, -1) {
			upper[z] = p // so is the exact logit, whatever the kernels add
		}
	}
	return upper
}

// topicExact is Eq. 13's log conditional of the document topicBounds last
// prepared, at topic z: its partial plus the diffusion kernels of
// sc.topicLinks, added one by one in link order.
func (st *state) topicExact(d int32, z int, sc *scratch) float64 {
	lw := sc.logw[z]
	if len(sc.topicLinks) == 0 {
		return lw
	}
	agg, m, w := st.aggs[z], st.etaSlice[z], st.thetaColM.Row(z)
	pop := st.popTerm(sc, st.docBucket[d], z)
	for i := range sc.topicLinks {
		lk := &sc.topicLinks[i]
		x := agg.Eval(m, w, &sc.piU, &lk.piV) + pop + lk.indiv
		lw += logPsi(x, lk.delta)
	}
	return lw
}

// pickExcl returns d when cond (same user on both link endpoints) so the
// exclusion applies to every pi-hat built for the sampled document's user.
func pickExcl(cond bool, d int32) int32 {
	if cond {
		return d
	}
	return -1
}

// neighborPi materialises pi-hat for a link counterparty: the exact
// (exclusion-aware) vector when the counterparty is the sampled user
// herself, the sweep-start snapshot otherwise (see refreshPiSnapshots).
func (st *state) neighborPi(user, cur int32, exclDoc int32, out *sparse.SmoothedVec, idxBuf *[]int32, valBuf *[]float64, sc *scratch) {
	if user == cur {
		st.piHat(user, exclDoc, out, idxBuf, valBuf, sc)
		return
	}
	st.piSnap(user, out)
}

// sampleDocCommunity resamples c_ui per Eq. 14: the user-community prior,
// the community-topic term, the friendship kernels over Λ_u and the
// diffusion kernels over Λ_i.
func (st *state) sampleDocCommunity(d int32, sc *scratch) {
	cOld := int(st.cload(d))
	z := int(st.zload(d))

	st.addCZ(sc, cOld, z, -1)
	st.addCT(sc, cOld, -1)

	cNew := sc.drawLog(st.communityLogWeights(d, z, sc), &sc.lazy.Community)
	st.cstore(d, int32(cNew))
	st.addCZ(sc, cNew, z, 1)
	st.addCT(sc, cNew, 1)
}

// communityLogWeights fills sc.logw with Eq. 14's log conditional of
// document d (of topic z, already removed from the counters) at every
// community.
func (st *state) communityLogWeights(d int32, z int, sc *scratch) []float64 {
	u := st.g.Docs[d].User
	C := st.cfg.NumCommunities
	rho := st.cfg.Rho
	logw := sc.logw[:C]

	// Prior term log(n_u^c,¬ + rho): base log(rho) everywhere, corrected on
	// the support of the user's remaining assignments.
	st.piHat(u, d, &sc.piU, &sc.idxBufU, &sc.valBufU, sc)
	denU := st.piHatDen(u)
	invDenU := 1 / denU
	for cc := 0; cc < C; cc++ {
		logw[cc] = st.logRho
	}
	for k, cc := range sc.piU.Idx {
		logw[cc] = math.Log(rho + sc.piU.Val[k]*denU)
	}

	// Community-topic term (skipped in the no-joint detection phase, where
	// content does not inform detection).
	if st.contentOn {
		for cc := 0; cc < C; cc++ {
			logw[cc] += st.lgAlpha.at(st.cntCZ(sc, cc, z)) - st.lgZAlpha.at(st.cntCT(sc, cc))
		}
	}

	// Friendship kernels: for each incident friendship link, the candidate
	// community shifts pi-hat_u by e_c/den_u, so
	// x(c) = x0 + pi-hat_v[c]/den_u differs from the support-free value
	// x0 = base + base_v/den_u only on support(v); the x0 kernel is an
	// all-candidates constant, applied once, with per-support corrections.
	if !st.cfg.NoFriendship {
		st.addFriendKernels(u, invDenU, sc, logw)
	}

	// Diffusion kernels over Λ_i.
	if st.contentOn {
		for _, e := range st.g.DocDiffLinks(int(d)) {
			st.addDiffusionCommunityTerms(d, int(e), invDenU, sc, logw)
		}
	}
	return logw
}

// addFriendKernels adds the Pólya-Gamma kernels of user u's observed and
// sampled-negative friendship links to the per-candidate community
// log-weights, against the pi-hat_u in sc.piU.
func (st *state) addFriendKernels(u int32, invDenU float64, sc *scratch, logw []float64) {
	sumU := sc.piU.ResidualSum()
	for _, li := range st.userFriendLinks[u] {
		st.addFriendKernel(u, st.g.Friends[li], st.lamAt(sc, int(li)), true, invDenU, sumU, sc, logw)
	}
	for _, li := range st.userNegFriendLinks[u] {
		st.addFriendKernel(u, st.negFriends[li], st.lamNegAt(sc, int(li)), false, invDenU, sumU, sc, logw)
	}
}

// addFriendKernel adds one friendship link's Pólya-Gamma kernel to the
// per-candidate community log-weights for a token of user u: the
// candidate community shifts pi-hat_u by e_c/den_u, so
// x(c) = fs*(base + (baseV + residV[c])/denU) differs from the
// support-free value x0 only on support(v); the x0 kernel is applied to
// all candidates once, then corrected on the support. positive selects the
// observed-link kernel (logPsi) vs the sampled-negative kernel (logPsiNeg);
// sumU is sc.piU's residual sum, the same for every link of the draw.
func (st *state) addFriendKernel(u int32, f socialgraph.FriendLink, lam float64, positive bool, invDenU, sumU float64, sc *scratch, logw []float64) {
	other := f.U
	if other == u {
		other = f.V
	}
	st.piSnap(other, &sc.piV)
	base := sc.piU.DotSums(&sc.piV, sumU, st.piSnapSum[other])
	fs := st.cfg.FriendScale
	x0 := fs * (base + sc.piV.Base*invDenU)
	kernel := logPsi
	if !positive {
		kernel = logPsiNeg
	}
	const0 := kernel(x0, lam)
	for cc := range logw {
		logw[cc] += const0
	}
	for k, cc := range sc.piV.Idx {
		x := x0 + fs*sc.piV.Val[k]*invDenU
		logw[cc] += kernel(x, lam) - const0
	}
}

// addDiffusionCommunityTerms adds the Pólya-Gamma diffusion kernel of link
// e to the per-candidate community log-weights for document d (which is one
// of the link's endpoints).
func (st *state) addDiffusionCommunityTerms(d int32, e int, invDenU float64, sc *scratch, logw []float64) {
	l := st.g.Diffs[e]
	delta := st.delAt(sc, e)
	uI := st.g.Docs[l.I].User
	uJ := st.g.Docs[l.J].User
	C := st.cfg.NumCommunities

	if st.cfg.NoHeterogeneity {
		// Diffusion modeled exactly like friendship: community-similarity
		// sigmoid between the two documents' users.
		var selfIsI bool
		if l.I == d {
			selfIsI = true
		}
		other := uJ
		if !selfIsI {
			other = uI
		}
		st.neighborPi(other, st.g.Docs[d].User, d, &sc.piV, &sc.idxBufV, &sc.valBufV, sc)
		base := sc.piU.Dot(&sc.piV)
		fs := st.cfg.FriendScale
		x0 := fs * (base + sc.piV.Base*invDenU)
		const0 := logPsi(x0, delta)
		for cc := range logw {
			logw[cc] += const0
		}
		for k, cc := range sc.piV.Idx {
			x := x0 + fs*sc.piV.Val[k]*invDenU
			logw[cc] += logPsi(x, delta) - const0
		}
		return
	}

	z := int(st.zAt(sc, l.I, d)) // link topic = diffusing document's topic
	w := st.thetaColM.Row(z)
	m := st.etaSlice[z]
	agg := st.aggs[z]
	pop := st.popTerm(sc, st.docBucket[l.I], z)
	indiv := st.indivTerm(e)

	if l.I == d {
		// d is the diffusing side: candidate community perturbs the row
		// argument. y[c] = sum_c' M[c,c'] pi-hat_v[c'] w[c'].
		st.neighborPi(uJ, st.g.Docs[d].User, d, &sc.piV, &sc.idxBufV, &sc.valBufV, sc)
		sBase := agg.Eval(m, w, &sc.piU, &sc.piV) + pop + indiv
		y := sc.yBuf[:C]
		for cc := 0; cc < C; cc++ {
			y[cc] = sc.piV.Base * agg.G[cc]
		}
		for k, cp := range sc.piV.Idx {
			coef := sc.piV.Val[k] * w[cp]
			if coef == 0 {
				continue
			}
			for cc := 0; cc < C; cc++ {
				y[cc] += m.At(cc, int(cp)) * coef
			}
		}
		for cc := 0; cc < C; cc++ {
			x := sBase + w[cc]*y[cc]*invDenU
			logw[cc] += logPsi(x, delta)
		}
		return
	}

	// d is the source side: candidate community perturbs the column
	// argument. yT[c'] = sum_c pi-hat_I[c] w[c] M[c,c'].
	st.neighborPi(uI, st.g.Docs[d].User, d, &sc.piV, &sc.idxBufV, &sc.valBufV, sc)
	sBase := agg.Eval(m, w, &sc.piV, &sc.piU) + pop + indiv
	y := sc.yBuf[:C]
	for cc := 0; cc < C; cc++ {
		y[cc] = sc.piV.Base * agg.H[cc]
	}
	for k, cr := range sc.piV.Idx {
		coef := sc.piV.Val[k] * w[cr]
		if coef == 0 {
			continue
		}
		row := m.Row(int(cr))
		for cc := 0; cc < C; cc++ {
			y[cc] += row[cc] * coef
		}
	}
	for cc := 0; cc < C; cc++ {
		x := sBase + w[cc]*y[cc]*invDenU
		logw[cc] += logPsi(x, delta)
	}
}

// sampleUserAttr resamples the community assignment of user u's k-th
// attribute token (the attribute-profile extension): the membership prior,
// the collapsed community-attribute likelihood (n_c^a,¬ + mu) /
// (n_c + |A| mu), and the friendship kernels — an attribute token shifts
// pi-hat_u exactly like a document, so the same candidate-shift identities
// apply. Diffusion kernels are tied to documents and are not incident to
// attribute tokens.
func (st *state) sampleUserAttr(u int32, k int, sc *scratch) {
	a := int(st.g.Attrs[u][k])
	cOld := int(atomic.LoadInt32(&st.attrC[u][k]))
	st.addCA(sc, cOld, a, -1)
	st.addCATot(sc, cOld, -1)

	cNew := int32(sc.drawLog(st.attrLogWeights(u, k, sc), &sc.lazy.Community))
	atomic.StoreInt32(&st.attrC[u][k], cNew)
	st.addCA(sc, int(cNew), a, 1)
	st.addCATot(sc, int(cNew), 1)
}

// attrLogWeights fills sc.logw with the log conditional of user u's k-th
// attribute token (already removed from the counters) at every community.
func (st *state) attrLogWeights(u int32, k int, sc *scratch) []float64 {
	a := int(st.g.Attrs[u][k])
	C := st.cfg.NumCommunities
	rho := st.cfg.Rho
	logw := sc.logw[:C]

	st.piHatExcl(u, -1, k, &sc.piU, &sc.idxBufU, &sc.valBufU, sc)
	denU := st.piHatDen(u)
	invDenU := 1 / denU
	for cc := 0; cc < C; cc++ {
		logw[cc] = st.logRho
	}
	for kk, cc := range sc.piU.Idx {
		logw[cc] = math.Log(rho + sc.piU.Val[kk]*denU)
	}
	for cc := 0; cc < C; cc++ {
		logw[cc] += st.lgMu.at(st.cntCA(sc, cc, a)) - st.lgAMu.at(st.cntCATot(sc, cc))
	}
	if !st.cfg.NoFriendship {
		st.addFriendKernels(u, invDenU, sc, logw)
	}
	return logw
}

// sampleUserCommunityBlock block-samples one community for ALL of user u's
// documents at once, using only the friendship kernels and the membership
// prior. This is the detection-only phase of the "no joint modeling"
// ablation: with content off, a user's documents are exchangeable, and
// per-document moves mix too slowly to align users across the graph —
// block moves are the standard remedy (and Eq. 3's detection is user-level
// anyway).
func (st *state) sampleUserCommunityBlock(u int32, sc *scratch) {
	docs := st.g.UserDocs(int(u))
	if len(docs) == 0 {
		return
	}
	// Remove all of u's docs from the community-topic counters (and, with
	// the attribute extension, the attribute tokens from theirs — the
	// block move carries every token of the user).
	for _, d := range docs {
		c := int(st.cload(d))
		z := int(st.zload(d))
		st.addCZ(sc, c, z, -1)
		st.addCT(sc, c, -1)
	}
	if st.attrOn {
		for k, a := range st.g.Attrs[u] {
			c := int(atomic.LoadInt32(&st.attrC[u][k]))
			st.addCA(sc, c, int(a), -1)
			st.addCATot(sc, c, -1)
		}
	}
	C := st.cfg.NumCommunities
	nd := float64(len(docs) + st.nAttr[u])
	denU := st.piHatDen(u)
	fs := st.cfg.FriendScale
	logw := sc.logw[:C]
	for cc := range logw {
		logw[cc] = 0
	}
	// With every doc on candidate c: pi-hat_u = rho/den + nd/den * e_c, so
	// x(c) = fs * (rho/den + nd/den * pi-hat_v[c]).
	baseU := st.cfg.Rho / denU
	massU := nd / denU
	addLinks := func(links []int32, friends []socialgraph.FriendLink, lamAt func(int) float64, positive bool) {
		kernel := logPsi
		if !positive {
			kernel = logPsiNeg
		}
		for _, li := range links {
			f := friends[li]
			other := f.U
			if other == u {
				other = f.V
			}
			// Exact (fresh) neighbour reads: the detection-only phase has
			// no content signal, and snapshot reads stall its label-
			// propagation-style mixing — which is why the engine runs
			// detection sweeps sequentially in direct mode (see
			// Engine.sweepDetect) instead of on the snapshot-read pool;
			// the rebuild is cheap because these sweeps move one label
			// per user.
			st.piHat(other, -1, &sc.piV, &sc.idxBufV, &sc.valBufV, sc)
			lam := lamAt(int(li))
			x0 := fs * (baseU + massU*sc.piV.Base)
			const0 := kernel(x0, lam)
			for cc := range logw {
				logw[cc] += const0
			}
			for k, cc := range sc.piV.Idx {
				x := x0 + fs*massU*sc.piV.Val[k]
				logw[cc] += kernel(x, lam) - const0
			}
		}
	}
	addLinks(st.userFriendLinks[u], st.g.Friends, func(li int) float64 { return st.lamAt(sc, li) }, true)
	addLinks(st.userNegFriendLinks[u], st.negFriends, func(li int) float64 { return st.lamNegAt(sc, li) }, false)

	cNew := int32(sc.drawLog(logw, &sc.lazy.Community))
	for _, d := range docs {
		z := int(st.zload(d))
		st.cstore(d, cNew)
		st.addCZ(sc, int(cNew), z, 1)
		st.addCT(sc, int(cNew), 1)
	}
	if st.attrOn {
		for k, a := range st.g.Attrs[u] {
			atomic.StoreInt32(&st.attrC[u][k], cNew)
			st.addCA(sc, int(cNew), int(a), 1)
			st.addCATot(sc, int(cNew), 1)
		}
	}
}

// sampleLambda resamples the friendship augmentation variable
// λ_uv ~ PG(1, pi-hat_u^T pi-hat_v) (Eq. 15).
func (st *state) sampleLambda(li int, sc *scratch) {
	f := st.g.Friends[li]
	st.piSnap(f.U, &sc.piU)
	st.piSnap(f.V, &sc.piV)
	x := st.cfg.FriendScale * sc.piU.Dot(&sc.piV)
	st.lambda.set(li, polyagamma.Sample(sc.r, x))
}

// sampleLambdaNeg resamples a sampled-negative pair's augmentation
// variable; the PG conditional is PG(1, x) regardless of the link label.
func (st *state) sampleLambdaNeg(li int, sc *scratch) {
	f := st.negFriends[li]
	st.piSnap(f.U, &sc.piU)
	st.piSnap(f.V, &sc.piV)
	x := st.cfg.FriendScale * sc.piU.Dot(&sc.piV)
	st.lambdaNeg.set(li, polyagamma.Sample(sc.r, x))
}

// sampleDelta resamples the diffusion augmentation variable
// δ_ij ~ PG(1, c̄^T η̄ + n_tz + ν^T f_uv) (Eq. 16).
func (st *state) sampleDelta(e int, sc *scratch) {
	x := st.diffusionArg(e, sc)
	st.delta.set(e, polyagamma.Sample(sc.r, x))
}

// diffusionArg evaluates the sigmoid argument of Eq. 5 for diffusion link e
// under the current state.
func (st *state) diffusionArg(e int, sc *scratch) float64 {
	l := st.g.Diffs[e]
	uI := st.g.Docs[l.I].User
	uJ := st.g.Docs[l.J].User
	st.piSnap(uI, &sc.piU)
	st.piSnap(uJ, &sc.piV)
	if st.cfg.NoHeterogeneity {
		return st.cfg.FriendScale * sc.piU.Dot(&sc.piV)
	}
	// l.I is always owned by the sampling segment (diffusion links belong to
	// the diffusing document's user), so the live read is deterministic.
	z := int(st.zload(l.I))
	s := st.aggs[z].Eval(st.etaSlice[z], st.thetaColM.Row(z), &sc.piU, &sc.piV)
	return s + st.popTerm(sc, st.docBucket[l.I], z) + st.indivTerm(e)
}

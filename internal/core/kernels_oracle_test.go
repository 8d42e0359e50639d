package core

import (
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/rng"
	"repro/internal/socialgraph"
	"repro/internal/sparse"
	"repro/internal/synth"
)

// kernelOracle runs the E-step with the weight computations the samplers
// had before the count-log tables, the denominator cache, the word-major
// scan and the sum-carrying dot products, and before the bounded topic
// draw: every log recomputed, every residual re-summed, one topic at a
// time, every topic's diffusion kernels summed. Each of its draws first
// asks the production kernel for the same weights on the same state and
// requires the two to agree bit for bit — for a topic draw, the exact logit
// of every topic, each under its bound — then draws from its own with the
// full scan, so a chain it drives must also end where the production chain
// ends.
type kernelOracle struct {
	t      *testing.T
	st     *state
	logw   []float64
	links  []oracleLink
	checks int // weight vectors and log-posteriors compared
}

func newKernelOracle(t *testing.T, st *state) *kernelOracle {
	return &kernelOracle{t: t, st: st, logw: make([]float64, max(st.cfg.NumCommunities, st.cfg.NumTopics))}
}

func (o *kernelOracle) sameBits(what string, id int32, got, want []float64) {
	o.t.Helper()
	o.checks++
	if len(got) != len(want) {
		o.t.Fatalf("%s of %d: %d weights, reference has %d", what, id, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			o.t.Fatalf("%s of %d, candidate %d: %v (%#x), reference %v (%#x)", what, id, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// sameBounded holds a bounded draw's inputs to the reference weights at
// every candidate, not only at those a draw would evaluate: exact(i) has
// want[i]'s bits, and upper[i] is at least exact(i).
func (o *kernelOracle) sameBounded(what string, id int32, upper []float64, exact func(i int) float64, want []float64) {
	o.t.Helper()
	if len(upper) != len(want) {
		o.t.Fatalf("%s of %d: %d bounds, reference has %d weights", what, id, len(upper), len(want))
	}
	got := make([]float64, len(want))
	for i := range want {
		got[i] = exact(i)
		if !(upper[i] >= got[i]) {
			o.t.Fatalf("%s of %d, candidate %d: bound %v below the exact logit %v", what, id, i, upper[i], got[i])
		}
	}
	o.sameBits(what, id, got, want)
}

// --- the exact sampler's weights, as they were ---------------------------

func (o *kernelOracle) topicLogWeights(d int32, c int, sc *scratch) []float64 {
	st := o.st
	doc := &st.g.Docs[d]
	Z := st.cfg.NumTopics
	beta := st.cfg.Beta
	wBeta := float64(st.g.NumWords) * beta
	alpha := st.cfg.Alpha
	sc.groupWords(doc.Words)
	logw := o.logw[:Z]
	for z := 0; z < Z; z++ {
		lw := math.Log(float64(st.cntCZ(sc, c, z)) + alpha)
		for k, w := range sc.wordIDs {
			base := float64(st.cntZW(sc, z, int(w))) + beta
			for m := 0; m < sc.wordCnt[k]; m++ {
				lw += math.Log(base + float64(m))
			}
		}
		den := float64(st.cntZT(sc, z)) + wBeta
		for j := 0; j < len(doc.Words); j++ {
			lw -= math.Log(den + float64(j))
		}
		logw[z] = lw
	}
	if !st.cfg.NoHeterogeneity {
		builtPiU := false
		for _, e := range st.g.DocDiffLinks(int(d)) {
			l := st.g.Diffs[e]
			if l.I != d {
				continue
			}
			if !builtPiU {
				st.piHat(doc.User, d, &sc.piU, &sc.idxBufU, &sc.valBufU, sc)
				builtPiU = true
			}
			vUser := st.g.Docs[l.J].User
			st.neighborPi(vUser, doc.User, d, &sc.piV, &sc.idxBufV, &sc.valBufV, sc)
			indiv := st.indivTerm(int(e))
			delta := st.delAt(sc, int(e))
			lb := st.docBucket[l.I]
			for z := 0; z < Z; z++ {
				x := st.aggs[z].Eval(st.etaSlice[z], st.thetaColM.Row(z), &sc.piU, &sc.piV) +
					st.popTerm(sc, lb, z) + indiv
				logw[z] += logPsi(x, delta)
			}
		}
	}
	return logw
}

func (o *kernelOracle) sampleDocTopic(d int32, sc *scratch) {
	st := o.st
	zOld := int(st.zload(d))
	c := int(st.cload(d))
	st.countDocTopic(sc, d, c, zOld, -1)

	want := o.topicLogWeights(d, c, sc)
	o.sameBounded("topic weights", d, st.topicBounds(d, c, sc), func(z int) float64 { return st.topicExact(d, z, sc) }, want)

	zNew := sc.r.CategoricalLog(want)
	st.zstore(d, int32(zNew))
	st.countDocTopic(sc, d, c, zNew, 1)
}

// addFriendKernel re-sums both residuals inside Dot for every link of
// every draw.
func (o *kernelOracle) addFriendKernel(u int32, f socialgraph.FriendLink, lam float64, positive bool, invDenU float64, sc *scratch, logw []float64) {
	st := o.st
	other := f.U
	if other == u {
		other = f.V
	}
	st.piSnap(other, &sc.piV)
	base := sc.piU.Dot(&sc.piV)
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

func (o *kernelOracle) addFriendKernels(u int32, invDenU float64, sc *scratch, logw []float64) {
	st := o.st
	for _, li := range st.userFriendLinks[u] {
		o.addFriendKernel(u, st.g.Friends[li], st.lamAt(sc, int(li)), true, invDenU, sc, logw)
	}
	for _, li := range st.userNegFriendLinks[u] {
		o.addFriendKernel(u, st.negFriends[li], st.lamNegAt(sc, int(li)), false, invDenU, sc, logw)
	}
}

func (o *kernelOracle) communityLogWeights(d int32, z int, sc *scratch) []float64 {
	st := o.st
	u := st.g.Docs[d].User
	C := st.cfg.NumCommunities
	rho := st.cfg.Rho
	alpha := st.cfg.Alpha
	zAlpha := float64(st.cfg.NumTopics) * alpha
	logw := o.logw[:C]

	st.piHat(u, d, &sc.piU, &sc.idxBufU, &sc.valBufU, sc)
	denU := st.piHatDen(u)
	invDenU := 1 / denU
	logRho := math.Log(rho)
	for cc := 0; cc < C; cc++ {
		logw[cc] = logRho
	}
	for k, cc := range sc.piU.Idx {
		logw[cc] = math.Log(rho + sc.piU.Val[k]*denU)
	}
	if st.contentOn {
		for cc := 0; cc < C; cc++ {
			logw[cc] += math.Log(float64(st.cntCZ(sc, cc, z))+alpha) -
				math.Log(float64(st.cntCT(sc, cc))+zAlpha)
		}
	}
	if !st.cfg.NoFriendship {
		o.addFriendKernels(u, invDenU, sc, logw)
	}
	if st.contentOn {
		for _, e := range st.g.DocDiffLinks(int(d)) {
			st.addDiffusionCommunityTerms(d, int(e), invDenU, sc, logw)
		}
	}
	return logw
}

func (o *kernelOracle) sampleDocCommunity(d int32, sc *scratch) {
	st := o.st
	cOld := int(st.cload(d))
	z := int(st.zload(d))
	st.addCZ(sc, cOld, z, -1)
	st.addCT(sc, cOld, -1)

	want := o.communityLogWeights(d, z, sc)
	o.sameBits("community weights", d, st.communityLogWeights(d, z, sc), want)

	cNew := sc.r.CategoricalLog(want)
	st.cstore(d, int32(cNew))
	st.addCZ(sc, cNew, z, 1)
	st.addCT(sc, cNew, 1)
}

func (o *kernelOracle) attrLogWeights(u int32, k int, sc *scratch) []float64 {
	st := o.st
	a := int(st.g.Attrs[u][k])
	C := st.cfg.NumCommunities
	rho := st.cfg.Rho
	mu := st.cfg.Mu
	aMu := float64(st.g.NumAttrs) * mu
	logw := o.logw[:C]

	st.piHatExcl(u, -1, k, &sc.piU, &sc.idxBufU, &sc.valBufU, sc)
	denU := st.piHatDen(u)
	invDenU := 1 / denU
	logRho := math.Log(rho)
	for cc := 0; cc < C; cc++ {
		logw[cc] = logRho
	}
	for kk, cc := range sc.piU.Idx {
		logw[cc] = math.Log(rho + sc.piU.Val[kk]*denU)
	}
	for cc := 0; cc < C; cc++ {
		logw[cc] += math.Log(float64(st.cntCA(sc, cc, a))+mu) -
			math.Log(float64(st.cntCATot(sc, cc))+aMu)
	}
	if !st.cfg.NoFriendship {
		o.addFriendKernels(u, invDenU, sc, logw)
	}
	return logw
}

func (o *kernelOracle) sampleUserAttr(u int32, k int, sc *scratch) {
	st := o.st
	a := int(st.g.Attrs[u][k])
	cOld := int(atomic.LoadInt32(&st.attrC[u][k]))
	st.addCA(sc, cOld, a, -1)
	st.addCATot(sc, cOld, -1)

	want := o.attrLogWeights(u, k, sc)
	o.sameBits("attribute weights", u, st.attrLogWeights(u, k, sc), want)

	cNew := int32(sc.r.CategoricalLog(want))
	atomic.StoreInt32(&st.attrC[u][k], cNew)
	st.addCA(sc, int(cNew), a, 1)
	st.addCATot(sc, int(cNew), 1)
}

// --- the alias sampler's log-posteriors, as they were --------------------

func (o *kernelOracle) topicLogPost(d int32, c, z int, diffuses bool, sc *scratch) float64 {
	st := o.st
	doc := &st.g.Docs[d]
	beta := st.cfg.Beta
	wBeta := float64(st.g.NumWords) * beta
	alpha := st.cfg.Alpha
	lw := math.Log(float64(st.cntCZ(sc, c, z)) + alpha)
	for k, w := range sc.wordIDs {
		base := float64(st.cntZW(sc, z, int(w))) + beta
		for m := 0; m < sc.wordCnt[k]; m++ {
			lw += math.Log(base + float64(m))
		}
	}
	den := float64(st.cntZT(sc, z)) + wBeta
	for j := 0; j < len(doc.Words); j++ {
		lw -= math.Log(den + float64(j))
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

func (o *kernelOracle) sampleDocTopicAlias(d int32, sc *scratch) {
	st := o.st
	doc := &st.g.Docs[d]
	zOld := int(st.zload(d))
	c := int(st.cload(d))
	st.countDocTopic(sc, d, c, zOld, -1)

	sc.groupWords(doc.Words)
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
	logPost := func(z int) float64 {
		want := o.topicLogPost(d, c, z, diffuses, sc)
		got := st.topicLogPost(d, c, z, diffuses, sc)
		o.sameBits("topic log-posterior", d, []float64{got}, []float64{want})
		return want
	}

	as := st.als
	cur := zOld
	curLP := math.Inf(1)
	for step := 0; step < topicMHSteps; step++ {
		var prop int
		var lqRatio float64
		if step&1 == 0 || len(doc.Words) == 0 {
			t := as.cz[c]
			prop = t.Draw(sc.r)
			if prop == cur {
				continue
			}
			lqRatio = math.Log(t.Prob(cur)) - math.Log(t.Prob(prop))
		} else {
			w := doc.Words[sc.r.Intn(len(doc.Words))]
			prop = as.wordTable(st, int(w)).Draw(sc.r)
			if prop == cur {
				continue
			}
			lqRatio = as.wordMixRatio(st, sc, cur, prop)
		}
		if math.IsInf(curLP, 1) {
			curLP = logPost(cur)
		}
		propLP := logPost(prop)
		if mhAccept(sc, propLP-curLP+lqRatio) {
			cur, curLP = prop, propLP
		}
	}

	zNew := cur
	st.zstore(d, int32(zNew))
	st.countDocTopic(sc, d, c, zNew, 1)
}

// oracleLink is linkEval before it carried the counterparty's base.
type oracleLink struct {
	x0    float64
	aug   float64
	other int32
	z     int32
	kind  uint8
}

// evalLinkAt divides ρ by the counterparty's denominator on every
// evaluation, whichever kind reads it.
func (o *kernelOracle) evalLinkAt(le *oracleLink, cc int, invDenU float64, sc *scratch) float64 {
	st := o.st
	var base float64
	var idx []int32
	var val []float64
	if le.other < 0 {
		base, idx, val = sc.piU.Base, sc.piU.Idx, sc.piU.Val
	} else {
		base = st.cfg.Rho / st.piHatDen(le.other)
		idx, val = st.piSnapIdx[le.other], st.piSnapVal[le.other]
	}
	switch le.kind {
	case linkFriendPos, linkFriendNeg, linkDiffFlat:
		x := le.x0 + st.cfg.FriendScale*invDenU*residualAt(idx, val, cc)
		if le.kind == linkFriendNeg {
			return logPsiNeg(x, le.aug)
		}
		return logPsi(x, le.aug)
	case linkDiffRow:
		z := int(le.z)
		w := st.thetaColM.Row(z)
		m := st.etaSlice[z]
		y := base * st.aggs[z].G[cc]
		for k, cp := range idx {
			y += m.At(cc, int(cp)) * val[k] * w[cp]
		}
		return logPsi(le.x0+w[cc]*y*invDenU, le.aug)
	default:
		z := int(le.z)
		w := st.thetaColM.Row(z)
		m := st.etaSlice[z]
		y := base * st.aggs[z].H[cc]
		for k, cr := range idx {
			y += m.Row(int(cr))[cc] * val[k] * w[cr]
		}
		return logPsi(le.x0+w[cc]*y*invDenU, le.aug)
	}
}

func (o *kernelOracle) predigestLinks(d int32, invDenU float64, sc *scratch) {
	st := o.st
	u := st.g.Docs[d].User
	fs := st.cfg.FriendScale
	o.links = o.links[:0]
	addFlat := func(other int32, aug float64, kind uint8) {
		var pv *sparse.SmoothedVec
		oth := other
		if other == u {
			pv, oth = &sc.piU, -1
		} else {
			st.piSnap(other, &sc.piV)
			pv = &sc.piV
		}
		x0 := fs * (sc.piU.Dot(pv) + pv.Base*invDenU)
		o.links = append(o.links, oracleLink{x0: x0, aug: aug, other: oth, kind: kind})
	}
	if !st.cfg.NoFriendship {
		for _, li := range st.userFriendLinks[u] {
			f := st.g.Friends[li]
			other := f.U
			if other == u {
				other = f.V
			}
			addFlat(other, st.lamAt(sc, int(li)), linkFriendPos)
		}
		for _, li := range st.userNegFriendLinks[u] {
			f := st.negFriends[li]
			other := f.U
			if other == u {
				other = f.V
			}
			addFlat(other, st.lamNegAt(sc, int(li)), linkFriendNeg)
		}
	}
	if st.contentOn {
		for _, e := range st.g.DocDiffLinks(int(d)) {
			l := st.g.Diffs[e]
			delta := st.delAt(sc, int(e))
			otherU := st.g.Docs[l.J].User
			if l.I != d {
				otherU = st.g.Docs[l.I].User
			}
			if st.cfg.NoHeterogeneity {
				addFlat(otherU, delta, linkDiffFlat)
				continue
			}
			lz := st.zAt(sc, l.I, d)
			w := st.thetaColM.Row(int(lz))
			m := st.etaSlice[lz]
			agg := st.aggs[lz]
			base := st.popTerm(sc, st.docBucket[l.I], int(lz)) + st.indivTerm(int(e))
			var pv *sparse.SmoothedVec
			oth := otherU
			if otherU == u {
				pv, oth = &sc.piU, -1
			} else {
				st.piSnap(otherU, &sc.piV)
				pv = &sc.piV
			}
			kind := linkDiffRow
			if l.I == d {
				base += agg.Eval(m, w, &sc.piU, pv)
			} else {
				kind = linkDiffCol
				base += agg.Eval(m, w, pv, &sc.piU)
			}
			o.links = append(o.links, oracleLink{x0: base, aug: delta, other: oth, z: lz, kind: kind})
		}
	}
}

func (o *kernelOracle) sampleDocCommunityAlias(d int32, sc *scratch) {
	st := o.st
	doc := &st.g.Docs[d]
	u := doc.User
	cOld := int(st.cload(d))
	z := int(st.zload(d))
	st.addCZ(sc, cOld, z, -1)
	st.addCT(sc, cOld, -1)

	C := st.cfg.NumCommunities
	rho := st.cfg.Rho
	alpha := st.cfg.Alpha
	zAlpha := float64(st.cfg.NumTopics) * alpha

	st.piHat(u, d, &sc.piU, &sc.idxBufU, &sc.valBufU, sc)
	denU := st.piHatDen(u)
	invDenU := 1 / denU
	priorAt := func(cc int) float64 {
		return rho + residualAt(sc.piU.Idx, sc.piU.Val, cc)*denU
	}
	o.predigestLinks(d, invDenU, sc)
	st.predigestLinks(d, invDenU, sc)

	logPost := func(cc int) float64 {
		want := math.Log(priorAt(cc))
		if st.contentOn {
			want += math.Log(float64(st.cntCZ(sc, cc, z))+alpha) -
				math.Log(float64(st.cntCT(sc, cc))+zAlpha)
		}
		for i := range o.links {
			want += o.evalLinkAt(&o.links[i], cc, invDenU, sc)
		}
		got := st.communityLogPost(cc, z, denU, invDenU, sc)
		o.sameBits("community log-posterior", d, []float64{got}, []float64{want})
		return want
	}

	docs := st.g.UserDocs(int(u))
	nTok := st.nDoc[u] + st.nAttr[u] - 1
	priorTotal := float64(C)*rho + float64(nTok)
	drawPrior := func() int {
		if nTok == 0 || sc.r.Float64()*priorTotal < float64(C)*rho {
			return sc.r.Intn(C)
		}
		for {
			j := sc.r.Intn(len(docs) + st.nAttr[u])
			if j < len(docs) {
				if docs[j] == d {
					continue
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
		if step&1 == 0 {
			prop = drawPrior()
			if prop == cur {
				continue
			}
			lqRatio = math.Log(priorAt(cur)) - math.Log(priorAt(prop))
		} else {
			t := as.zc[z]
			prop = t.Draw(sc.r)
			if prop == cur {
				continue
			}
			lqRatio = math.Log(t.Prob(cur)) - math.Log(t.Prob(prop))
		}
		if math.IsInf(curLP, 1) {
			curLP = logPost(cur)
		}
		propLP := logPost(prop)
		if mhAccept(sc, propLP-curLP+lqRatio) {
			cur, curLP = prop, propLP
		}
	}

	cNew := cur
	st.cstore(d, int32(cNew))
	st.addCZ(sc, cNew, z, 1)
	st.addCT(sc, cNew, 1)
}

// --- sweeps driven by the oracle -----------------------------------------

// sampleUser is the token half of Engine.runSegment and state.sweepSerial
// for one user, with the oracle's samplers.
func (o *kernelOracle) sampleUser(u int32, sc *scratch) {
	st := o.st
	if !st.contentOn {
		st.sampleUserCommunityBlock(u, sc) // no kernel of this change in it
		return
	}
	for _, d := range st.g.UserDocs(int(u)) {
		if st.als != nil {
			o.sampleDocTopicAlias(d, sc)
			if !st.cFrozen {
				o.sampleDocCommunityAlias(d, sc)
			}
			continue
		}
		o.sampleDocTopic(d, sc)
		if !st.cFrozen {
			o.sampleDocCommunity(d, sc)
		}
	}
	if st.attrOn {
		for k := range st.g.Attrs[u] {
			o.sampleUserAttr(u, k, sc)
		}
	}
}

// sweep is Engine.sweep on the caller's goroutine: the same refresh and
// capture, every segment in id order on worker 0's overlay (packing never
// changes a sweep's result), the oracle's samplers for the tokens.
func (o *kernelOracle) sweep(e *Engine, sc *scratch) {
	st := e.st
	if !st.contentOn {
		e.sweepDetect(false)
		return
	}
	st.refreshCaches()
	e.snap.capture(st)
	if st.als != nil {
		st.als.refresh(st, e.snap.zw)
	}
	sc.ov = e.overlays[0]
	for _, seg := range e.segs {
		sc.r = seg.r
		for _, u := range seg.users {
			if e.dirty != nil && !e.dirty[u] {
				continue
			}
			o.sampleUser(u, sc)
		}
		e.sampleSegmentLinks(seg, sc)
		sc.ov.flush()
	}
}

// sweepSerial is state.sweepSerial with the oracle's samplers.
func (o *kernelOracle) sweepSerial(sc *scratch) {
	st := o.st
	if st.als != nil && st.contentOn {
		st.als.refresh(st, nil)
	}
	for u := 0; u < st.g.NumUsers; u++ {
		o.sampleUser(int32(u), sc)
	}
	if !st.cfg.NoFriendship {
		for li := range st.g.Friends {
			st.sampleLambda(li, sc)
		}
		for li := range st.negFriends {
			st.sampleLambdaNeg(li, sc)
		}
	}
	if st.contentOn {
		for e := range st.g.Diffs {
			st.sampleDelta(e, sc)
		}
	}
}

// --- the cases -----------------------------------------------------------

type kernelCase struct {
	name  string
	graph func() *socialgraph.Graph
	cfg   func(*Config)
	// prep runs on every freshly built state, before its first sweep.
	prep func(*state)
	// engine, when set, builds the engine (the resumed case); the default is
	// NewEngine on graph() with cfg applied.
	engine func(t *testing.T, cfg Config) *Engine
	// idle marks a case whose sweeps run none of the changed kernels.
	idle bool
}

// repeatWords makes every third document say its first word three times,
// so the word-likelihood numerators have m ≥ 1 terms.
func repeatWords(g *socialgraph.Graph) *socialgraph.Graph {
	for i := 0; i < len(g.Docs); i += 3 {
		if w := g.Docs[i].Words; len(w) > 0 {
			g.Docs[i].Words = append(w[:len(w):len(w)], w[0], w[0])
		}
	}
	return g
}

// selfDiffusions points every third diffusion link at another document of
// the diffusing document's own user, so the topic draw's counterparty is
// the exclusion-aware π̂ of the sampled user rather than a snapshot.
func selfDiffusions(g *socialgraph.Graph) *socialgraph.Graph {
	for k := 0; k < len(g.Diffs); k += 3 {
		l := &g.Diffs[k]
		for _, j := range g.UserDocs(int(g.Docs[l.I].User)) {
			if j != l.I {
				l.J = j
				break
			}
		}
	}
	g.InvalidateIndexes()
	return g
}

// zeroDelta forces the first diffusion link's Pólya-Gamma variable to 0,
// where log ψ(·, δ) has no finite peak: the topic draw of its diffusing
// document bounds every topic at +Inf and evaluates them all.
func zeroDelta(st *state) { st.delta.set(0, 0) }

// pastTheCap leaves the tables three entries long and lifts some counters
// far beyond any table's cap, so that lookups of both kinds — a count a
// shorter table lacks, a count no table holds — take the computed path.
func pastTheCap(st *state) {
	for _, tab := range []*countLogs{&st.lgAlpha, &st.lgZAlpha, &st.lgBeta} {
		tab.tab = tab.tab[:3]
	}
	const lift = maxCountLogs + 1000
	Z := st.cfg.NumTopics
	for c := 0; c < st.cfg.NumCommunities; c += 2 {
		st.nCZ.add(c, c%Z, lift)
		st.nCT.add(c, lift)
	}
	for w := 0; w < st.g.NumWords; w += 5 {
		st.nZW.add(w, w%Z, lift)
		st.nZT.add(w%Z, lift)
	}
}

func kernelCases() []kernelCase {
	plain := func() *socialgraph.Graph { return testGraph(80, 21) }
	withAttrs := func() *socialgraph.Graph {
		cfg := synth.TwitterLike(60, 31)
		cfg.AttrVocab = 30
		cfg.AttrsPerUserMean = 2
		g, _ := synth.Generate(cfg)
		return g
	}
	return []kernelCase{
		{name: "joint", graph: plain},
		// β = 0.37 is a value at which (n+β)+m and (n+m)+β differ in the last
		// bit for small n (at the default 0.1 they happen not to), so a kernel
		// that tabled a repeat's log would be caught here.
		{name: "repeated-words", graph: func() *socialgraph.Graph { return repeatWords(plain()) },
			cfg: func(c *Config) { c.Beta = 0.37 }},
		{name: "past-the-cap", graph: plain, prep: pastTheCap},
		{name: "no-heterogeneity", graph: plain, cfg: func(c *Config) { c.NoHeterogeneity = true }},
		{name: "self-diffusion", graph: func() *socialgraph.Graph { return selfDiffusions(plain()) }},
		{name: "zero-delta", graph: plain, prep: zeroDelta},
		{name: "no-friendship", graph: plain, cfg: func(c *Config) { c.NoFriendship = true }},
		{name: "attributes", graph: withAttrs, cfg: func(c *Config) { c.ModelAttributes = true }},
		{name: "nojoint-detection", graph: plain, prep: func(st *state) { st.contentOn = false }, idle: true},
		{name: "nojoint-profiles", graph: plain, prep: func(st *state) { st.cFrozen = true }},
		{name: "resumed-dirty-subset", engine: resumedDirtyEngine},
	}
}

// resumedDirtyEngine resumes a trained model on a graph and restricts the
// sweeps to every third user.
func resumedDirtyEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	base := cfg
	base.Workers, base.EMIters = 1, 3
	m, _, err := Train(testGraph(80, 21), base)
	if err != nil {
		t.Fatal(err)
	}
	g := testGraph(80, 21)
	e, err := NewEngineFromModel(g, m, ResumeOptions{Workers: cfg.Workers, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	dirty := make([]bool, g.NumUsers)
	for u := range dirty {
		dirty[u] = u%3 == 0
	}
	if err := e.SetDirty(dirty); err != nil {
		t.Fatal(err)
	}
	return e
}

func (kc kernelCase) build(t *testing.T, sampler string, workers int) *Engine {
	t.Helper()
	cfg := testConfig()
	cfg.Sampler, cfg.Workers = sampler, workers
	if kc.cfg != nil {
		kc.cfg(&cfg)
	}
	var e *Engine
	if kc.engine != nil {
		e = kc.engine(t, cfg)
	} else {
		var err error
		if e, err = NewEngine(kc.graph(), cfg); err != nil {
			t.Fatal(err)
		}
	}
	if kc.prep != nil {
		kc.prep(e.st)
	}
	t.Cleanup(e.Close)
	return e
}

// mStep is the M-step of Engine.RunEM: it moves η and ν between sweeps, so
// the kernels are compared against parameters that are not the initial
// ones.
func mStep(st *state, sc *scratch) {
	if !st.contentOn {
		return
	}
	st.mStepEta()
	if !st.cfg.NoIndividual && !st.cfg.NoHeterogeneity {
		st.mStepNu(sc)
	}
}

func requireSameChain(t *testing.T, sweep int, a, b *state) {
	t.Helper()
	if d := stateDiff(a, b); d != "" {
		t.Fatalf("sweep %d: the oracle-driven chain left the production chain: %s", sweep, d)
	}
	if !reflect.DeepEqual(a.eta.Data, b.eta.Data) || !reflect.DeepEqual(a.nu, b.nu) {
		t.Fatalf("sweep %d: η or ν differ between the two chains", sweep)
	}
}

const kernelSweeps = 5

// TestKernelWeightsMatchOracleEngineMode runs the production engine — its
// pool, three workers sharing the read-only tables, one denominator cache
// per worker scratch — beside an engine swept by the oracle on snapshot and
// overlay. Every weight vector and log-posterior the oracle computes along
// its mid-training states is compared with the production kernel's on that
// state, and after every sweep the two chains must hold the same
// assignments, counters and augmentation variables.
func TestKernelWeightsMatchOracleEngineMode(t *testing.T) {
	for _, sampler := range []string{SamplerExact, SamplerAlias} {
		for _, kc := range kernelCases() {
			t.Run(sampler+"/"+kc.name, func(t *testing.T) {
				prod := kc.build(t, sampler, 3)
				ref := kc.build(t, sampler, 1)
				o := newKernelOracle(t, ref.st)
				osc := newScratch(ref.cfg, nil)
				mscProd := newScratch(prod.cfg, prod.st.root.Split(0xE11))
				mscRef := newScratch(ref.cfg, ref.st.root.Split(0xE11))
				for s := 0; s < kernelSweeps; s++ {
					prod.Sweep()
					o.sweep(ref, osc)
					mStep(prod.st, mscProd)
					mStep(ref.st, mscRef)
					requireSameChain(t, s, prod.st, ref.st)
				}
				if o.checks == 0 && !kc.idle {
					t.Fatal("the oracle compared nothing")
				}
			})
		}
	}
}

// TestKernelWeightsMatchOracleDirectMode is the same comparison with
// sc.ov == nil: the serial reference sweep on the live counters.
func TestKernelWeightsMatchOracleDirectMode(t *testing.T) {
	for _, sampler := range []string{SamplerExact, SamplerAlias} {
		for _, kc := range kernelCases() {
			if kc.engine != nil {
				continue // a dirty set restricts engine sweeps only
			}
			t.Run(sampler+"/"+kc.name, func(t *testing.T) {
				prod := kc.build(t, sampler, 1).st
				ref := kc.build(t, sampler, 1).st
				o := newKernelOracle(t, ref)
				psc := newScratch(prod.cfg, rng.New(5))
				osc := newScratch(ref.cfg, rng.New(5))
				for s := 0; s < kernelSweeps; s++ {
					prod.refreshCaches()
					prod.sweepSerial(psc)
					ref.refreshCaches()
					o.sweepSerial(osc)
					mStep(prod, psc)
					mStep(ref, osc)
					requireSameChain(t, s, prod, ref)
				}
				if o.checks == 0 && !kc.idle {
					t.Fatal("the oracle compared nothing")
				}
			})
		}
	}
}

// TestKernelCasesReachTheirPaths checks that the cases above do exercise
// what they are named for: repeated words, counts beyond the tables, a
// table lookup that is the computed value bit for bit at either end,
// diffusion within one user, and a zero δ that lifts every topic bound of
// its document to +Inf.
func TestKernelCasesReachTheirPaths(t *testing.T) {
	g := repeatWords(testGraph(80, 21))
	sc := newScratch(testConfig().withDefaults(), nil)
	repeats := 0
	for i := range g.Docs {
		sc.groupWords(g.Docs[i].Words)
		for _, cnt := range sc.wordCnt {
			if cnt > 1 {
				repeats++
			}
		}
	}
	if repeats < len(g.Docs)/4 {
		t.Fatalf("only %d repeated words in %d documents", repeats, len(g.Docs))
	}

	st := newState(testGraph(80, 21), testConfig().withDefaults())
	if n := len(st.lgBeta.tab); n < 100 || n > maxCountLogs {
		t.Fatalf("lgBeta holds %d entries", n)
	}
	pastTheCap(st)
	beyond := 0
	for _, n := range st.nZW.data {
		if n >= maxCountLogs {
			beyond++
		}
	}
	if beyond == 0 {
		t.Fatal("no topic-word count beyond the cap")
	}

	tab := newCountLogs(0.1, 10)
	if len(tab.tab) != 11 {
		t.Fatalf("a counter bounded by 10 got %d entries", len(tab.tab))
	}
	if big := newCountLogs(0.1, 10*maxCountLogs); len(big.tab) != maxCountLogs {
		t.Fatalf("table of %d entries, cap is %d", len(big.tab), maxCountLogs)
	}
	for _, n := range []int64{0, 1, 10, 11, 1 << 20, 1 << 40} {
		if got, want := tab.at(n), math.Log(float64(n)+0.1); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("at(%d) = %v, math.Log gives %v", n, got, want)
		}
	}

	sg := selfDiffusions(testGraph(80, 21))
	within := 0
	for _, l := range sg.Diffs {
		if sg.Docs[l.I].User == sg.Docs[l.J].User {
			within++
		}
	}
	if within < len(sg.Diffs)/4 {
		t.Fatalf("only %d of %d diffusion links stay within one user", within, len(sg.Diffs))
	}
	if err := sg.Validate(); err != nil {
		t.Fatal(err)
	}

	st = newState(testGraph(80, 21), testConfig().withDefaults())
	st.refreshCaches()
	zeroDelta(st)
	sc = newScratch(st.cfg, nil)
	for _, e := range []int{0, 1} {
		d := st.g.Diffs[e].I
		upper := st.topicBounds(d, int(st.cload(d)), sc)
		for z, u := range upper {
			if inf := math.IsInf(u, 1); inf != (e == 0) {
				t.Fatalf("link %d (δ = %v): topic %d bound %v", e, st.delta.get(e), z, u)
			}
		}
	}
}

// TestKernelDenominatorCache pins the cache's contract on its own: a row is
// reused while its den stands, extended when a longer document arrives,
// dropped exactly when the den moves — and a scratch carried through whole
// sweeps only ever holds logs of the den it is keyed by.
func TestKernelDenominatorCache(t *testing.T) {
	requireRow := func(what string, got []float64, den float64, n int) {
		t.Helper()
		if len(got) != n {
			t.Fatalf("%s: %d logs, want %d", what, len(got), n)
		}
		for j, l := range got {
			if want := math.Log(den + float64(j)); math.Float64bits(l) != math.Float64bits(want) {
				t.Fatalf("%s: log %d is %v, want %v", what, j, l, want)
			}
		}
	}
	dl := newDenLogs(3)
	requireRow("first use", dl.row(1, 7.5, 4), 7.5, 4)
	requireRow("another topic", dl.row(0, 2.5, 6), 2.5, 6)

	// Reuse: poisoned entries come back as they are, for a shorter and for
	// an equally long document.
	const poison = 1234.5
	for z := range dl.logs {
		for j := range dl.logs[z] {
			dl.logs[z][j] = poison
		}
	}
	if r := dl.row(1, 7.5, 3); len(r) != 3 || r[0] != poison || r[2] != poison {
		t.Fatalf("a standing row was recomputed: %v", r)
	}
	// Extension: the old entries stay, the new ones are computed — past the
	// row's initial room too.
	r := dl.row(1, 7.5, 40)
	for j, l := range r {
		want := math.Log(7.5 + float64(j))
		if j < 4 {
			want = poison
		}
		if l != want {
			t.Fatalf("extended row, log %d: %v, want %v", j, l, want)
		}
	}
	// Invalidation: only the topic whose den moved is recomputed.
	requireRow("moved den", dl.row(1, 8.5, 5), 8.5, 5)
	if got := len(dl.logs[1]); got != 5 {
		t.Fatalf("a moved row kept %d logs of the old den", got)
	}
	if r := dl.row(0, 2.5, 6); r[0] != poison || r[5] != poison {
		t.Fatalf("moving topic 1 recomputed topic 0: %v", r)
	}
	requireRow("moved back", dl.row(1, 7.5, 2), 7.5, 2)

	// Across sweeps: whatever the scratch holds after three serial sweeps
	// of each sampler is the log of its key.
	for _, sampler := range []string{SamplerExact, SamplerAlias} {
		cfg := testConfig().withDefaults()
		cfg.Sampler = sampler
		st := newState(repeatWords(testGraph(60, 4)), cfg)
		sc := newScratch(cfg, rng.New(3))
		filled := 0
		for s := 0; s < 3; s++ {
			st.refreshCaches()
			st.sweepSerial(sc)
			for z, row := range sc.den.logs {
				requireRow(sampler+" sweep row", row, sc.den.den[z], len(row))
				filled += len(row)
			}
		}
		if filled == 0 {
			t.Fatalf("%s: the sweeps never filled the cache", sampler)
		}
	}
}

// TestEngineSweepAllocationsIndependentOfUsers is the allocation gate: a
// steady-state exact sweep allocates per sweep (the bilinear aggregates,
// the snapshot refresh's two buffers), not per user or document.
func TestEngineSweepAllocationsIndependentOfUsers(t *testing.T) {
	measure := func(users int) float64 {
		cfg := testConfig()
		e, err := NewEngine(testGraph(users, 99), cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		for i := 0; i < 4; i++ {
			e.Sweep()
		}
		return testing.AllocsPerRun(5, e.Sweep)
	}
	small, large := measure(150), measure(600)
	if small != large {
		t.Fatalf("a sweep allocates %v objects at 150 users and %v at 600", small, large)
	}
	t.Logf("%v allocations per sweep at 150 and at 600 users", small)
}

package core

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/synth"
)

// bruteForcePiHat computes pi-hat_u densely from the raw assignments, with
// document excl excluded and, when cand >= 0, a hypothetical assignment of
// excl to community cand added back.
func bruteForcePiHat(st *state, u int32, excl int32, cand int) []float64 {
	C := st.cfg.NumCommunities
	den := st.piHatDen(u)
	out := make([]float64, C)
	for c := range out {
		out[c] = st.cfg.Rho / den
	}
	for _, d := range st.g.UserDocs(int(u)) {
		if d == excl {
			continue
		}
		out[st.docC[d]] += 1 / den
	}
	if cand >= 0 {
		out[cand] += 1 / den
	}
	return out
}

// bruteFriendshipArg computes fs * pi-hat_u^T pi-hat_v densely.
func bruteFriendshipArg(st *state, u, v int32, excl int32, excludeFor int32, cand int) float64 {
	var pu, pv []float64
	if u == excludeFor {
		pu = bruteForcePiHat(st, u, excl, cand)
	} else {
		pu = bruteForcePiHat(st, u, -1, -1)
	}
	if v == excludeFor {
		pv = bruteForcePiHat(st, v, excl, cand)
	} else {
		pv = bruteForcePiHat(st, v, -1, -1)
	}
	var s float64
	for c := range pu {
		s += pu[c] * pv[c]
	}
	return st.cfg.FriendScale * s
}

// bruteDiffusionArg computes the Eq. 5 community term densely for link e
// with the diffusing user's pi-hat possibly perturbed.
func bruteDiffusionArg(st *state, e int, excl int32, excludeFor int32, cand int) float64 {
	l := st.g.Diffs[e]
	uI := st.g.Docs[l.I].User
	uJ := st.g.Docs[l.J].User
	var pi, pj []float64
	if uI == excludeFor {
		pi = bruteForcePiHat(st, uI, excl, cand)
	} else {
		pi = bruteForcePiHat(st, uI, -1, -1)
	}
	if uJ == excludeFor {
		pj = bruteForcePiHat(st, uJ, excl, cand)
	} else {
		pj = bruteForcePiHat(st, uJ, -1, -1)
	}
	z := int(st.docZ[l.I])
	w := st.thetaColM.Row(z)
	m := st.etaSlice[z]
	var s float64
	for a := range pi {
		for b := range pj {
			s += pi[a] * w[a] * m.At(a, b) * w[b] * pj[b]
		}
	}
	return s
}

// TestFriendshipKernelIncrementalMatchesBrute verifies the central
// candidate-shift identity of sampleDocCommunity's friendship kernels:
// the O(nnz) incremental evaluation x(c) = fs*(base + pi-hat_v[c]/den_u)
// must equal a dense recomputation with the candidate assignment applied,
// for every candidate community.
func TestFriendshipKernelIncrementalMatchesBrute(t *testing.T) {
	g := testGraph(60, 41)
	cfg := testConfig().withDefaults()
	st := newState(g, cfg)
	sc := newScratch(cfg, rng.New(8))
	// Mix the state a little first.
	st.refreshCaches()
	st.sweepSerial(sc)
	st.refreshCaches()

	C := cfg.NumCommunities
	checked := 0
	for d := int32(0); d < int32(len(g.Docs)) && checked < 12; d += 37 {
		u := g.Docs[d].User
		if len(st.userFriendLinks[u]) == 0 {
			continue
		}
		checked++
		st.piHat(u, d, &sc.piU, &sc.idxBufU, &sc.valBufU, sc)
		invDenU := 1 / st.piHatDen(u)
		li := st.userFriendLinks[u][0]
		f := g.Friends[li]
		other := f.U
		if other == u {
			other = f.V
		}
		st.piHat(other, pickExcl(other == u, d), &sc.piV, &sc.idxBufV, &sc.valBufV, sc)
		base := sc.piU.Dot(&sc.piV)
		fs := cfg.FriendScale
		for cand := 0; cand < C; cand += 3 {
			// Incremental: x(c) = fs*(base + pi-hat_v[c]/denU).
			pvC := sc.piV.Base
			for k, cc := range sc.piV.Idx {
				if int(cc) == cand {
					pvC += sc.piV.Val[k]
				}
			}
			got := fs * (base + pvC*invDenU)
			want := bruteFriendshipArg(st, u, other, d, u, cand)
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("doc %d cand %d: incremental %v != brute %v", d, cand, got, want)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no documents with friendship links checked")
	}
}

// TestDiffusionKernelIncrementalMatchesBrute verifies the diffusion-side
// candidate shift: x(c) = sBase + w[c] * y[c] / den_u must equal the dense
// bilinear form with the candidate assignment applied, in both the
// diffusing-side and source-side branches.
func TestDiffusionKernelIncrementalMatchesBrute(t *testing.T) {
	g := testGraph(60, 42)
	cfg := testConfig().withDefaults()
	st := newState(g, cfg)
	sc := newScratch(cfg, rng.New(9))
	st.refreshCaches()
	st.sweepSerial(sc)
	st.refreshCaches()

	C := cfg.NumCommunities
	checked := 0
	for e := 0; e < len(g.Diffs) && checked < 10; e += 11 {
		l := g.Diffs[e]
		for _, side := range []int32{l.I, l.J} {
			d := side
			u := g.Docs[d].User
			z := int(st.docZ[l.I])
			w := st.thetaColM.Row(z)
			m := st.etaSlice[z]
			agg := st.aggs[z]
			st.piHat(u, d, &sc.piU, &sc.idxBufU, &sc.valBufU, sc)
			invDenU := 1 / st.piHatDen(u)

			var sBase float64
			y := make([]float64, C)
			if d == l.I {
				vUser := g.Docs[l.J].User
				st.piHat(vUser, pickExcl(vUser == u, d), &sc.piV, &sc.idxBufV, &sc.valBufV, sc)
				sBase = agg.Eval(m, w, &sc.piU, &sc.piV)
				for cc := 0; cc < C; cc++ {
					y[cc] = sc.piV.Base * agg.G[cc]
				}
				for k, cp := range sc.piV.Idx {
					coef := sc.piV.Val[k] * w[cp]
					for cc := 0; cc < C; cc++ {
						y[cc] += m.At(cc, int(cp)) * coef
					}
				}
			} else {
				iUser := g.Docs[l.I].User
				st.piHat(iUser, pickExcl(iUser == u, d), &sc.piV, &sc.idxBufV, &sc.valBufV, sc)
				sBase = agg.Eval(m, w, &sc.piV, &sc.piU)
				for cc := 0; cc < C; cc++ {
					y[cc] = sc.piV.Base * agg.H[cc]
				}
				for k, cr := range sc.piV.Idx {
					coef := sc.piV.Val[k] * w[cr]
					row := m.Row(int(cr))
					for cc := 0; cc < C; cc++ {
						y[cc] += row[cc] * coef
					}
				}
			}
			for cand := 0; cand < C; cand += 4 {
				got := sBase + w[cand]*y[cand]*invDenU
				want := bruteDiffusionArg(st, e, d, u, cand)
				if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
					t.Fatalf("link %d side %d cand %d: incremental %v != brute %v", e, d, cand, got, want)
				}
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no diffusion links checked")
	}
}

// TestDiffusionArgMatchesBrute cross-checks the full Eq. 5 argument used
// for delta sampling against the dense computation.
func TestDiffusionArgMatchesBrute(t *testing.T) {
	g := testGraph(60, 43)
	cfg := testConfig().withDefaults()
	st := newState(g, cfg)
	sc := newScratch(cfg, rng.New(10))
	st.refreshCaches()
	st.sweepSerial(sc)
	st.refreshCaches()
	st.refreshNuOffsets()
	for e := 0; e < len(g.Diffs); e += 13 {
		got := st.diffusionArg(e, sc)
		l := g.Diffs[e]
		z := int(st.docZ[l.I])
		want := bruteDiffusionArg(st, e, -1, -1, -1) +
			st.popTerm(sc, st.docBucket[l.I], z) + st.indivTerm(e)
		if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("link %d: diffusionArg %v != brute %v", e, got, want)
		}
	}
}

// TestPopTermProperties pins the popularity factor's behaviour.
func TestPopTermProperties(t *testing.T) {
	g := testGraph(60, 44)
	cfg := testConfig().withDefaults()
	st := newState(g, cfg)
	sc := newScratch(cfg, rng.New(7))
	// Sum over topics of n_tz/n_t is 1, so popTerm sums to PopScale.
	var s float64
	for z := 0; z < cfg.NumTopics; z++ {
		s += st.popTerm(sc, 0, z)
	}
	if math.Abs(s-cfg.PopScale) > 1e-9 {
		t.Fatalf("popTerm sums to %v, want %v", s, cfg.PopScale)
	}
	// Ablated: always zero.
	st.cfg.NoTopicPopularity = true
	if st.popTerm(sc, 0, 0) != 0 {
		t.Fatal("popTerm nonzero under ablation")
	}
}

// TestLogPsiIdentities pins the Pólya-Gamma kernel algebra: the positive
// and negative kernels must reconstruct the Bernoulli likelihood ratio
// sigma(x)/sigma(-x) = e^x after integrating out omega — at the kernel
// level, logPsi(x,w) - logPsiNeg(x,w) = x for every omega.
func TestLogPsiIdentities(t *testing.T) {
	r := rng.New(11)
	for i := 0; i < 100; i++ {
		x := r.Norm() * 3
		w := r.Gamma(1)
		if diff := logPsi(x, w) - logPsiNeg(x, w); math.Abs(diff-x) > 1e-12 {
			t.Fatalf("kernel ratio = %v, want %v", diff, x)
		}
		// The peak the topic draw's bounds rest on: 1/(8ω), at x = 1/(2ω).
		peak := 1 / (8 * w)
		if got := logPsi(1/(2*w), w); math.Abs(got-peak) > 1e-12*peak {
			t.Fatalf("logPsi at 1/(2ω) = %v, want %v", got, peak)
		}
		if got := logPsi(x, w); got > peak {
			t.Fatalf("logPsi(%v, %v) = %v above its peak %v", x, w, got, peak)
		}
	}
}

// TestTopicDrawLazyShare is the bounded topic draw's deterministic work
// counter, the analogue of serve's fold-in one. At the shape of cpd-bench's
// train workload (TwitterLike(150, 99), |C| = |Z| = 50, eight EM
// iterations) the exact sampler computes the exact log conditional of at
// most 5 % of the topic candidates it is offered, and it counts the same
// work whatever the worker count.
func TestTopicDrawLazyShare(t *testing.T) {
	g, _ := synth.Generate(synth.TwitterLike(150, 99))
	var ref LazyDraws
	for _, workers := range []int{1, 3} {
		_, diag, err := Train(g, Config{NumCommunities: 50, NumTopics: 50, EMIters: 8, Workers: workers, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		lazy := diag.Lazy
		if workers > 1 {
			if lazy != ref {
				t.Fatalf("Workers=%d counted %+v, Workers=1 counted %+v", workers, lazy, ref)
			}
			continue
		}
		ref = lazy
		topic := lazy.Topic
		t.Logf("evaluated %.1f %% of %d topic candidates, %.1f %% of %d community candidates",
			100*topic.Share(), topic.Considered, 100*lazy.Community.Share(), lazy.Community.Considered)
		if topic.Considered == 0 || topic.Share() > 0.05 {
			t.Fatalf("topic draws evaluated %d of %d candidates, want at most 5 %%", topic.Evaluated, topic.Considered)
		}
	}
}

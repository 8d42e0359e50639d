package core

import (
	"time"

	"repro/internal/socialgraph"
)

// Train runs the full Sect. 4 inference — Alg. 1's variational EM with a
// collapsed, Pólya-Gamma-augmented Gibbs E-step — and returns the trained
// model plus timing diagnostics. The graph is validated and its indexes
// built; cfg zero values take the paper's defaults.
//
// Every E-step sweep runs on the persistent worker-pool Engine, so training
// with any Workers value — including 1 — produces bit-identical results
// from the same seed; Workers only changes how the fixed set of data
// segments is executed.
func Train(g *socialgraph.Graph, cfg Config) (*Model, *Diagnostics, error) {
	e, err := NewEngine(g, cfg)
	if err != nil {
		return nil, nil, err
	}
	defer e.Close()
	return e.train()
}

func (e *Engine) train() (*Model, *Diagnostics, error) {
	st, cfg := e.st, e.cfg
	sc := newScratch(cfg, st.root.Split(0xE11))

	// Warm start: detection-only block sweeps seed the joint sampler with
	// an assortative configuration (see Config.WarmStartSweeps). Not
	// recorded in the sweep diagnostics — Fig. 10 times joint sweeps.
	if !cfg.NoJointModeling && !cfg.NoFriendship && cfg.WarmStartSweeps > 0 {
		st.contentOn = false
		for i := 0; i < cfg.WarmStartSweeps; i++ {
			e.sweep(false)
		}
		st.contentOn = true
	}

	// The "no joint modeling" ablation runs two full phases: detection from
	// friendship links alone (cheap sweeps — no content, no diffusion),
	// then profile learning with communities frozen. Detection-only block
	// Gibbs needs its own full budget to mix (it lacks the content signal
	// that accelerates the joint sampler), with a floor for small EMIters.
	var mstepSecs float64
	if cfg.NoJointModeling {
		st.contentOn = false
		mstepSecs = e.emIterations(max(cfg.EMIters, 30), sc)
		// Phase 2: freeze the detected communities and learn profiles on
		// top.
		st.contentOn = true
		st.cFrozen = true
	}
	mstepSecs += e.emIterations(cfg.EMIters, sc)
	return e.result(mstepSecs)
}

// emIterations runs iters EM iterations of Alg. 1 with the caller's
// scratch: an E-step sweep, then, while content is on, the η M-step and —
// with the individual and heterogeneity terms on — the ν M-step. It
// returns the seconds the M-steps took.
func (e *Engine) emIterations(iters int, sc *scratch) float64 {
	st, cfg := e.st, e.cfg
	var mstepSecs float64
	for iter := 0; iter < iters; iter++ {
		e.sweep(true)
		t1 := time.Now()
		if st.contentOn {
			st.mStepEta()
			if !cfg.NoIndividual && !cfg.NoHeterogeneity {
				st.mStepNu(sc)
			}
		}
		mstepSecs += time.Since(t1).Seconds()
	}
	return mstepSecs
}

// result refreshes the caches and returns the model the chain holds, with
// the diagnostics so far and mstepSecs of M-step time.
func (e *Engine) result(mstepSecs float64) (*Model, *Diagnostics, error) {
	e.st.refreshCaches()
	diag := e.Diagnostics()
	diag.MStepSeconds = mstepSecs
	return e.st.buildModel(), diag, nil
}

// sampleUser is Alg. 1's E-step for one user, the body Engine.runSegment
// and sweepSerial share: a detection-only block move when content is off
// (the no-joint ablation's detection phase), otherwise each document's
// topic (step 5) then community (step 6), then the attribute tokens under
// the attribute extension. The user's friendship table is built before
// the first draw and cleared after the last.
func (st *state) sampleUser(u int32, sc *scratch) {
	if !st.contentOn {
		st.sampleUserCommunityBlock(u, sc)
		return
	}
	st.buildFriendTable(u, sc)
	for _, d := range st.g.UserDocs(int(u)) {
		if st.als != nil {
			st.sampleDocTopicAlias(d, sc)
			if !st.cFrozen {
				st.sampleDocCommunityAlias(d, sc)
			}
			continue
		}
		st.sampleDocTopic(d, sc)
		if !st.cFrozen {
			st.sampleDocCommunity(d, sc)
		}
	}
	if st.attrOn {
		for k := range st.g.Attrs[u] {
			st.sampleUserAttr(u, k, sc)
		}
	}
	sc.ft.clear()
}

// sweepSerial is Alg. 1's E-step on a single goroutine with direct
// in-place counter access: for each user's each document sample the topic
// (step 5) then the community (step 6), then refresh the friendship
// (steps 7–8) and diffusion (steps 9–10) augmentation variables. It is the
// reference implementation the unit tests exercise; it and the engine's
// segment runner share the per-user body, sampleUser.
func (st *state) sweepSerial(sc *scratch) {
	if st.als != nil && st.contentOn {
		// Serial alias sweeps read live counters for the lazily built word
		// proposal tables (no engine snapshot exists here); MH corrects the
		// staleness either way.
		st.als.refresh(st, nil)
	}
	for u := 0; u < st.g.NumUsers; u++ {
		st.sampleUser(int32(u), sc)
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

package serve

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/mathx"
	"repro/internal/rng"
)

// FoldInRequest describes a user the model was never trained on: their
// documents (bags of vocabulary word ids) and, optionally, the trained
// users they hold friendship links to. Fold-in runs a short seeded Gibbs
// pass over ONLY this user's latent assignments against the frozen model
// parameters — the standard way to serve unseen users without retraining.
type FoldInRequest struct {
	// Docs must be non-empty: document assignments are the only latent
	// tokens a CPD membership is built from, so a doc-less request has
	// nothing to infer and is rejected (friendship links alone cannot
	// move the membership off the prior).
	Docs    [][]int32 `json:"docs"`
	Friends []int32   `json:"friends,omitempty"`
	// FriendRows carries membership rows for friends the serving snapshot
	// does not own (shard snapshots): a shard-aware router hydrates them
	// from the owning replicas before forwarding. A friend with no local
	// row and no supplied row fails with ErrNotOwned. Rows for owned
	// friends are ignored in favor of the local (identical) row, so the
	// result is bit-identical to a full node for the same request.
	FriendRows []FriendRow `json:"friendRows,omitempty"`
	// RowsGeneration is the publisher generation FriendRows were read
	// from. A snapshot serving another generation refuses the request with
	// ErrGenerationConflict rather than score rows of one generation
	// against parameters of another; the router re-hydrates. Zero (rows
	// from unversioned snapshots, or no rows) skips the check.
	RowsGeneration uint64 `json:"rowsGeneration,omitempty"`
	// Seed drives the request's private RNG; the result is a pure function
	// of (snapshot, request), so a fixed seed reproduces bit-identically
	// regardless of pool size or concurrent load.
	Seed uint64 `json:"seed"`
	// Sweeps is the number of Gibbs sweeps (default 20, at most
	// MaxFoldInSweeps).
	Sweeps int `json:"sweeps,omitempty"`
	// TopK bounds the returned membership list (default 5).
	TopK int `json:"topK,omitempty"`
}

// Request size limits. Fold-in is exposed on the serving API, so a single
// request must not be able to pin a worker for an unbounded time; requests
// beyond these bounds are rejected with an error.
const (
	MaxFoldInSweeps  = 500
	MaxFoldInTokens  = 1 << 20 // total words across a request's documents
	MaxFoldInFriends = 1 << 16
)

// ErrGenerationConflict reports a request whose hydrated rows — fold-in
// friends', a diffusion pair's v — come from a different generation
// than the snapshot asked to score them (HTTP 409): a rollout passed
// between the row fetch and the request.
type ErrGenerationConflict struct {
	Rows, Serving uint64
}

func (e *ErrGenerationConflict) Error() string {
	return fmt.Sprintf("serve: hydrated rows are from generation %d, this snapshot serves generation %d", e.Rows, e.Serving)
}

// FriendRow is one hydrated friend membership row (see
// FoldInRequest.FriendRows).
type FriendRow struct {
	User int32     `json:"user"`
	Row  []float64 `json:"row"`
}

// FoldInResult is the inferred profile of a folded-in user.
type FoldInResult struct {
	Version uint64 `json:"version"`
	// Pi is the full |C| community membership (Definition 3) of the new
	// user.
	Pi []float64 `json:"pi"`
	// Top lists the TopK highest memberships, descending.
	Top []CommunityWeight `json:"top"`
	// TopicMixture is Σ_c π_c θ_c — the user's content profile mixture.
	TopicMixture []float64 `json:"topicMixture"`
	// DocCommunity / DocTopic are the final hard assignments per document.
	DocCommunity []int32 `json:"docCommunity"`
	DocTopic     []int32 `json:"docTopic"`
}

// FoldInNamed infers the profile of one unseen user against a named
// snapshot. It is deterministic for a fixed request seed.
func (e *Engine) FoldInNamed(name string, req *FoldInRequest) (res *FoldInResult, err error) {
	err = e.onSnapshot(epFoldIn, name, func(s *Snapshot) error {
		res, err = e.foldIn(s, req)
		return err
	})
	return res, err
}

// foldIn runs the kernel and books what its lazy draws did.
func (e *Engine) foldIn(s *Snapshot, req *FoldInRequest) (*FoldInResult, error) {
	var lazy rng.LazyStats
	res, err := foldIn(s, req, &lazy)
	e.foldConsidered.Add(lazy.Considered)
	e.foldEvaluated.Add(lazy.Evaluated)
	return res, err
}

// foldJob carries one batch entry to the persistent worker pool.
type foldJob struct {
	snap *Snapshot
	req  *FoldInRequest
	idx  int
	out  []*FoldInResult
	errs []error
	wg   *sync.WaitGroup
}

func (e *Engine) foldWorker() {
	for job := range e.foldJobs {
		start := time.Now()
		res, err := e.foldIn(job.snap, job.req)
		// Per-request accounting, so the foldin stats (count, errors,
		// latency) mean the same thing for batch and single requests.
		e.lat[epFoldIn].Observe(time.Since(start), err)
		job.out[job.idx], job.errs[job.idx] = res, err
		job.wg.Done()
	}
}

// FoldInBatchNamed folds in many users concurrently through the engine's
// persistent worker pool. All requests in a batch resolve against the same
// snapshot (pinned once for the whole batch, so a concurrent swap cannot
// unmap it mid-run), and results are in request order. Each entry carries
// its own error and is counted individually in the foldin latency stats;
// results are bit-identical for every FoldInWorkers value.
func (e *Engine) FoldInBatchNamed(name string, reqs []*FoldInRequest) ([]*FoldInResult, []error) {
	out := make([]*FoldInResult, len(reqs))
	errs := make([]error, len(reqs))
	snap, release, err := e.AcquireNamed(name)
	if err != nil {
		for i := range errs {
			errs[i] = err
		}
		return out, errs
	}
	defer release()
	var wg sync.WaitGroup
	wg.Add(len(reqs))
	for i, req := range reqs {
		e.foldJobs <- foldJob{snap: snap, req: req, idx: i, out: out, errs: errs, wg: &wg}
	}
	wg.Wait()
	return out, errs
}

// logThetaTable builds Snapshot.logTheta.
func logThetaTable(m *core.Model) []float64 {
	t := make([]float64, len(m.Theta.Data))
	for i, v := range m.Theta.Data {
		t[i] = math.Log(v + 1e-300)
	}
	return t
}

// logPhiTable builds Snapshot.logPhi, by the expression the fold-in kernel
// and core.Model.RankCommunities would otherwise evaluate per request,
// word and topic.
func logPhiTable(m *core.Model) []float64 {
	Z := m.Phi.Rows
	t := make([]float64, len(m.Phi.Data))
	for z := 0; z < Z; z++ {
		for w, v := range m.Phi.Row(z) {
			t[w*Z+z] = math.Log(v + 1e-300)
		}
	}
	return t
}

// foldIn is the pure inference kernel: Gibbs over the new user's document
// assignments (c_i, z_i) with every global (Φ, Θ, π of trained users, ρ)
// frozen. *lazy receives what the request's lazy draws considered and
// evaluated.
//
// Per sweep and document it resamples
//
//	z_i | c_i        ∝ θ_{c_i,z} · Π_w φ_{z,w}            (Eq. 13's frozen form)
//	c_i | z_i, c_¬i  ∝ (n^c_¬i + ρ) · θ_{c,z_i} · Π_{v∈friends} σ(s·π̂_u^T π_v)
//
// where π̂_u is the candidate-dependent smoothed membership — the same
// structure as core's sampleDocCommunity, with the Pólya-Gamma kernels
// replaced by the exact sigmoid likelihood (fold-in conditions on observed
// links only and needs no augmentation variables, since the globals are
// fixed).
func foldIn(s *Snapshot, req *FoldInRequest, lazy *rng.LazyStats) (*FoldInResult, error) {
	m := s.Model
	C, Z := m.Cfg.NumCommunities, m.Cfg.NumTopics
	if len(req.Docs) == 0 {
		return nil, fmt.Errorf("serve: fold-in requires at least one document")
	}
	if len(req.Friends) > MaxFoldInFriends {
		return nil, fmt.Errorf("serve: fold-in request has %d friends (limit %d)", len(req.Friends), MaxFoldInFriends)
	}
	tokens := 0
	for i, doc := range req.Docs {
		if len(doc) == 0 {
			return nil, fmt.Errorf("serve: fold-in document %d is empty", i)
		}
		tokens += len(doc)
		for _, w := range doc {
			if w < 0 || int(w) >= m.NumWords {
				return nil, fmt.Errorf("serve: fold-in document %d has out-of-range word %d", i, w)
			}
		}
	}
	if tokens > MaxFoldInTokens {
		return nil, fmt.Errorf("serve: fold-in request has %d words (limit %d)", tokens, MaxFoldInTokens)
	}
	if req.RowsGeneration != 0 && req.RowsGeneration != s.Generation {
		return nil, &ErrGenerationConflict{Rows: req.RowsGeneration, Serving: s.Generation}
	}
	// Friend rows resolve locally for owned users and from the hydrated
	// FriendRows otherwise; the build happens in Friends order, so the
	// Gibbs pass visits rows exactly as a full node would.
	var hydrated map[int32][]float64
	if len(req.FriendRows) > 0 {
		hydrated = make(map[int32][]float64, len(req.FriendRows))
	}
	for _, fr := range req.FriendRows {
		if len(fr.Row) != C {
			return nil, fmt.Errorf("serve: hydrated row for friend %d has %d entries, model has %d communities", fr.User, len(fr.Row), C)
		}
		hydrated[fr.User] = fr.Row
	}
	friendPi := make([][]float64, len(req.Friends))
	for k, v := range req.Friends {
		local, err := s.localUser(int(v))
		switch {
		case err == nil:
			friendPi[k] = m.Pi.Row(local)
		case hydrated[v] != nil:
			var notOwned *ErrNotOwned
			if !errors.As(err, &notOwned) {
				return nil, err // out of range: a hydrated row cannot fix a bad id
			}
			friendPi[k] = hydrated[v]
		default:
			return nil, err
		}
	}
	sweeps := req.Sweeps
	if sweeps <= 0 {
		sweeps = 20
	}
	if sweeps > MaxFoldInSweeps {
		return nil, fmt.Errorf("serve: fold-in requests %d sweeps (limit %d)", sweeps, MaxFoldInSweeps)
	}
	topK := req.TopK
	if topK <= 0 {
		topK = 5
	}

	rho := m.Cfg.Rho
	n := len(req.Docs)
	F := len(friendPi)
	den := float64(n) + float64(C)*rho
	docC := make([]int32, n)
	docZ := make([]int32, n)
	// Every float64 working array of the request, carved from one
	// allocation.
	buf := make([]float64, n*Z+(n+1)+max(C, Z)+2*C+4*F)
	carve := func(k int) []float64 {
		part := buf[:k:k]
		buf = buf[k:]
		return part
	}
	cnt := carve(C)

	r := rng.New(req.Seed)

	// Per-document word log-likelihood table wordLL[i*Z+z] = Σ_w log φ_z,w,
	// computed once: the only per-sweep z-dependence left is θ_{c,z}. Each
	// word adds its run of the snapshot's word-major log Φ table, so every
	// topic's sum still accumulates, from zero, in document word order.
	wordLL := carve(n * Z)
	for i, doc := range req.Docs {
		ll := wordLL[i*Z : (i+1)*Z]
		for _, w := range doc {
			for z, lp := range s.logPhi[int(w)*Z:][:Z] {
				ll[z] += lp
			}
		}
	}

	// Seeded random init, counted.
	for i := range docC {
		docC[i] = int32(r.Intn(C))
		docZ[i] = int32(r.Intn(Z))
		cnt[docC[i]]++
	}

	// logCnt[k] = log(k + ρ): a community count is an integer in [0, n].
	// Every logarithm the sweeps need is tabulated — here and in the
	// snapshot's logTheta and logPhi — by the expression the sampler would otherwise
	// evaluate per document and sweep, so the draws are unchanged.
	logCnt := carve(n + 1)
	for k := range logCnt {
		logCnt[k] = math.Log(float64(k) + rho)
	}
	logTheta := s.logTheta

	// The community draw is bounded, then refined. Candidate c's logit is
	// base[c] plus, per friend v, logσ(fs·(s0_v + π_v[c]/den)) — 64 × friends
	// Log1pExp calls if every candidate is computed. logσ is monotone and
	// π_v[c] lies in [min π_v, max π_v], so the larger of the term's values at
	// the two ends of that range (both: fs may be negative) bounds it for
	// every candidate at two calls per friend, and CategoricalLogBounded
	// asks for the exact logit — summed in the order the full computation
	// uses — of the few candidates those bounds cannot rule out. A Π row is
	// one base value, its minimum, plus a few count-driven cells, so the
	// term at min π_v, already taken for the bound, is reused for every
	// cell with those same bits: within a draw the term depends on nothing
	// else, so every sum is unchanged.
	logw, base := carve(max(C, Z)), carve(C)
	topicW, upper := logw[:Z], logw[:C] // never live together
	piMin, piMax, s0, atMin := carve(F), carve(F), carve(F), carve(F)
	for k, piV := range friendPi {
		piMin[k], piMax[k] = piV[0], piV[0]
		for _, p := range piV {
			piMin[k], piMax[k] = min(piMin[k], p), max(piMax[k], p)
		}
	}
	fs := m.Cfg.FriendScale
	friendTerm := func(k int, p float64) float64 {
		return mathx.LogSigmoid(fs * (s0[k] + p/den))
	}
	exact := func(cc int) float64 {
		lw := base[cc]
		for k, piV := range friendPi {
			if p := piV[cc]; math.Float64bits(p) == math.Float64bits(piMin[k]) {
				lw += atMin[k]
			} else {
				lw += friendTerm(k, p)
			}
		}
		return lw
	}
	// upper must not fall below the float64 exact returns, so the slack
	// covers the rounding of both sums: F+1 additions each, every partial sum
	// at most |base| + Σ_v |smaller endpoint| in magnitude. A finite base is a
	// sum of two logarithms of float64s, so below 1500 in magnitude; a −Inf
	// base (ρ = 0 and an empty community) stays −Inf, as its exact logit is.
	const maxFiniteBase = 1500
	relSlack := float64(F+2) * 0x1p-50

	for sweep := 0; sweep < sweeps; sweep++ {
		for i := 0; i < n; i++ {
			// z_i | c_i.
			c := int(docC[i])
			lt := logTheta[c*Z : (c+1)*Z]
			ll := wordLL[i*Z : (i+1)*Z]
			for z := range topicW {
				topicW[z] = lt[z] + ll[z]
			}
			z := r.CategoricalLog(topicW)
			docZ[i] = int32(z)

			// c_i | z_i, c_¬i.
			cnt[c]--
			for cc := range base {
				base[cc] = logCnt[int(cnt[cc])] + logTheta[cc*Z+z]
			}
			var hi, lo float64
			for k, piV := range friendPi {
				// π̂_u(c') = (cnt_¬i[c'] + ρ + [c'==c]) / den; the
				// candidate-independent part of π̂_u^T π_v is shared.
				var dot float64
				for cc := 0; cc < C; cc++ {
					dot += (cnt[cc] + rho) * piV[cc]
				}
				s0[k] = dot / den
				a, b := friendTerm(k, piMin[k]), friendTerm(k, piMax[k])
				atMin[k] = a
				hi += max(a, b)
				lo += min(a, b)
			}
			hi += 1e-9 + relSlack*(maxFiniteBase-lo)
			for cc, b := range base {
				upper[cc] = b + hi
			}
			cNew := r.CategoricalLogBounded(upper, exact)
			docC[i] = int32(cNew)
			cnt[cNew]++
		}
	}

	res := &FoldInResult{
		Version:      s.Version,
		Pi:           make([]float64, C),
		TopicMixture: make([]float64, Z),
		DocCommunity: docC,
		DocTopic:     docZ,
	}
	for c := 0; c < C; c++ {
		res.Pi[c] = (cnt[c] + rho) / den
	}
	for c := 0; c < C; c++ {
		pc := res.Pi[c]
		if pc == 0 {
			continue
		}
		theta := m.Theta.Row(c)
		for z := 0; z < Z; z++ {
			res.TopicMixture[z] += pc * theta[z]
		}
	}
	for _, c := range mathx.TopKIndices(res.Pi, topK) {
		res.Top = append(res.Top, CommunityWeight{Community: c, Weight: res.Pi[c]})
	}
	*lazy = r.Lazy
	return res, nil
}

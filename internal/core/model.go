package core

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"repro/internal/mathx"
	"repro/internal/socialgraph"
	"repro/internal/sparse"
)

// Model is a trained CPD model: the five outputs Sect. 5 builds every
// application on — community memberships π, content profiles θ, diffusion
// profiles η, topic-word distributions φ and the individual-preference
// weights ν — plus the popularity table for the n_tz factor.
type Model struct {
	Cfg Config

	NumUsers, NumWords, NumBuckets int

	// Pi is |U| x |C|: user community memberships (Definition 3).
	Pi *sparse.Dense
	// Theta is |C| x |Z|: community content profiles (Definition 4).
	Theta *sparse.Dense
	// Phi is |Z| x |W|: topic-word distributions (Definition 2).
	Phi *sparse.Dense
	// Eta is |C| x |C| x |Z|: community diffusion profiles (Definition 5).
	Eta *sparse.Tensor3
	// Nu are the individual-preference weights of Eq. 5.
	Nu []float64

	// PopFreq is buckets x |Z|: normalized topic popularity per time
	// bucket (the n_tz factor).
	PopFreq *sparse.Dense

	// Xi is |C| x |NumAttrs|: the community attribute profiles of the
	// attribute extension (nil unless trained with ModelAttributes on an
	// attributed graph).
	Xi       *sparse.Dense
	NumAttrs int

	// DocCommunity / DocTopic / DocBucket are the final hard assignments
	// for the training documents.
	DocCommunity, DocTopic []int32
	DocBucket              []int

	// Caches rebuilt by initCaches (not serialized), all O(|Z|·|C|²):
	// nothing here is per user, so rehydrating (or mapping) a model costs
	// the same at 200 users and at 20 million. A membership row's
	// base+residual form is a pure function of the row's bytes and is
	// decomposed when a score needs it (SmoothedVecFromRow). All
	// matrix-shaped caches live in flat, row-major contiguous buffers — the
	// same layout the parameter blocks themselves use — so training,
	// fold-in and queries walk one cache-friendly representation.
	aggs []*sparse.BilinearAgg
	// etaFlat packs the per-topic diffusion matrices M_z = EtaScale ·
	// eta[:, :, z] contiguously ([z][c][c'], |Z|·|C|² floats); etaSlice[z]
	// is a view into it.
	etaFlat  []float64
	etaSlice []*sparse.Dense
	// thetaColM is theta transposed (|Z| x |C|): row z is the theta-hat
	// column the bilinear aggregates weight by.
	thetaColM *sparse.Dense
	// rankTable[c][z] = sum_c' eta_{c,c',z} theta_{c',z} (Eq. 19's inner
	// sum).
	rankTable *sparse.Dense
}

// buildModel snapshots the sampler state into a Model.
func (st *state) buildModel() *Model {
	cfg := st.cfg
	C, Z := cfg.NumCommunities, cfg.NumTopics
	m := &Model{
		Cfg:        cfg,
		NumUsers:   st.g.NumUsers,
		NumWords:   st.g.NumWords,
		NumBuckets: st.nTZ.rows,
		Pi:         sparse.NewDense(st.g.NumUsers, C),
		Theta:      sparse.NewDense(C, Z),
		Phi:        sparse.NewDense(Z, st.g.NumWords),
		Eta:        st.eta.Clone(),
		Nu:         append([]float64(nil), st.nu...),
		PopFreq:    sparse.NewDense(st.nTZ.rows, Z),
	}
	m.DocCommunity = append([]int32(nil), st.docC...)
	m.DocTopic = append([]int32(nil), st.docZ...)
	m.DocBucket = append([]int(nil), st.docBucket...)

	for u := 0; u < st.g.NumUsers; u++ {
		den := st.piHatDen(int32(u))
		row := m.Pi.Row(u)
		for c := range row {
			row[c] = cfg.Rho / den
		}
		for _, d := range st.g.UserDocs(u) {
			row[st.docC[d]] += 1 / den
		}
	}
	zAlpha := float64(Z) * cfg.Alpha
	for c := 0; c < C; c++ {
		den := float64(st.nCT.at(c)) + zAlpha
		row := m.Theta.Row(c)
		for z := range row {
			row[z] = (float64(st.nCZ.at(c, z)) + cfg.Alpha) / den
		}
	}
	wBeta := float64(st.g.NumWords) * cfg.Beta
	for z := 0; z < Z; z++ {
		den := float64(st.nZT.at(z)) + wBeta
		row := m.Phi.Row(z)
		for w := range row {
			row[w] = (float64(st.nZW.at(w, z)) + cfg.Beta) / den
		}
	}
	for b := 0; b < st.nTZ.rows; b++ {
		tot := float64(st.nTT.at(b))
		row := m.PopFreq.Row(b)
		if tot > 0 {
			for z := range row {
				row[z] = float64(st.nTZ.at(b, z)) / tot
			}
		}
	}
	if st.attrOn {
		m.NumAttrs = st.g.NumAttrs
		m.Xi = sparse.NewDense(C, st.g.NumAttrs)
		aMu := float64(st.g.NumAttrs) * cfg.Mu
		for c := 0; c < C; c++ {
			den := float64(st.nCATot.at(c)) + aMu
			row := m.Xi.Row(c)
			for a := range row {
				row[a] = (float64(st.nCA.at(c, a)) + cfg.Mu) / den
			}
		}
	}
	m.initCaches()
	return m
}

// TopAttributes returns the k highest-probability attribute ids of
// community c (nil without the attribute extension).
func (m *Model) TopAttributes(c, k int) []int {
	if m.Xi == nil {
		return nil
	}
	return mathx.TopKIndices(m.Xi.Row(c), k)
}

// Rehydrate rebuilds the unexported prediction caches (the per-topic
// diffusion matrices, their bilinear aggregates and the Eq. 19 rank table)
// from the exported parameter blocks, in O(|Z|·|C|²) whatever the user
// count. Load calls it automatically; any other deserializer that fills a
// Model field-by-field — e.g. the binary snapshot reader in internal/store
// — must call it before the model serves queries.
func (m *Model) Rehydrate() { m.initCaches() }

// WithPi returns a copy of m over another user population: pi (|U'| x |C|)
// replaces Π and NumUsers follows it. Everything else is shared with m —
// the global blocks, and the prediction caches with them, since those
// depend on Θ and η only — so re-publishing a model whose membership rows
// changed or grew costs nothing beyond building pi. The document
// assignment arrays carry over; a caller that extends them assigns the
// fields.
func (m *Model) WithPi(pi *sparse.Dense) *Model {
	out := *m
	out.Pi = pi
	out.NumUsers = pi.Rows
	return &out
}

// initCaches builds the per-topic diffusion matrices, bilinear aggregates
// and rank table used by the prediction paths. Must be called after Load.
func (m *Model) initCaches() {
	C, Z := m.Cfg.NumCommunities, m.Cfg.NumTopics
	m.etaFlat = make([]float64, Z*C*C)
	m.etaSlice = make([]*sparse.Dense, Z)
	m.aggs = make([]*sparse.BilinearAgg, Z)
	m.thetaColM = sparse.NewDense(Z, C)
	m.rankTable = sparse.NewDense(C, Z)
	for z := 0; z < Z; z++ {
		col := m.thetaColM.Row(z)
		for c := 0; c < C; c++ {
			col[c] = m.Theta.At(c, z)
		}
		slice := sparse.NewDenseView(C, C, m.etaFlat[z*C*C:(z+1)*C*C])
		m.Eta.SliceKInto(z, slice)
		slice.Scale(m.Cfg.EtaScale)
		m.etaSlice[z] = slice
		for c := 0; c < C; c++ {
			var s float64
			for c2 := 0; c2 < C; c2++ {
				s += m.Eta.At(c, c2, z) * col[c2]
			}
			m.rankTable.Set(c, z, s)
		}
		m.aggs[z] = sparse.NewBilinearAgg(slice, col)
	}
}

// MatrixBytes returns the byte footprint of the exported parameter blocks
// (the data a v2 snapshot can serve via mmap instead of heap copies).
func (m *Model) MatrixBytes() int64 {
	n := int64(len(m.Pi.Data) + len(m.Theta.Data) + len(m.Phi.Data) + len(m.Eta.Data) + len(m.Nu))
	if m.PopFreq != nil {
		n += int64(len(m.PopFreq.Data))
	}
	if m.Xi != nil {
		n += int64(len(m.Xi.Data))
	}
	return 8*n + 4*int64(len(m.DocCommunity)+len(m.DocTopic)) + 8*int64(len(m.DocBucket))
}

// CacheBytes returns the approximate heap footprint of the rebuilt
// prediction caches — what a mapped model still allocates on Rehydrate.
func (m *Model) CacheBytes() int64 {
	n := 8 * int64(len(m.etaFlat))
	if m.thetaColM != nil {
		n += 8 * int64(len(m.thetaColM.Data))
	}
	if m.rankTable != nil {
		n += 8 * int64(len(m.rankTable.Data))
	}
	for _, a := range m.aggs {
		n += 8 * int64(len(a.G)+len(a.H)+1)
	}
	return n
}

// residBuf is the stack storage a decomposed membership row starts out in,
// so that scoring a pair allocates nothing. A trained row has one
// above-floor component per community its user's documents were assigned
// to — a handful; a row with more than the buffer holds moves its residual
// to the heap (append), which costs allocations, not results.
type residBuf struct {
	idx [64]int32
	val [64]float64
}

// decompose returns row's base+residual form, the residual starting in b.
func (b *residBuf) decompose(row []float64) sparse.SmoothedVec {
	return SmoothedVecFromRow(row, b.idx[:0], b.val[:0])
}

// FriendshipProb returns σ(π_u^T π_v), Eq. 3's link probability — the
// friendship link prediction score of Sect. 6.1.
func (m *Model) FriendshipProb(u, v int) float64 {
	var bufU, bufV residBuf
	a, b := bufU.decompose(m.Pi.Row(u)), bufV.decompose(m.Pi.Row(v))
	return mathx.Sigmoid(m.Cfg.FriendScale * a.Dot(&b))
}

// DocTopicDist returns p(z | words, user): the user's community-mixed
// topic prior times the word likelihood, normalized over topics. This is
// the p(z|d_vj) term of Eq. 18.
func (m *Model) DocTopicDist(words []int32, user int) []float64 {
	Z := m.Cfg.NumTopics
	C := m.Cfg.NumCommunities
	logw := make([]float64, Z)
	piRow := m.Pi.Row(user)
	for z := 0; z < Z; z++ {
		var prior float64
		for c := 0; c < C; c++ {
			prior += piRow[c] * m.Theta.At(c, z)
		}
		lw := math.Log(prior + 1e-300)
		for _, w := range words {
			lw += math.Log(m.Phi.At(z, int(w)) + 1e-300)
		}
		logw[z] = lw
	}
	mathx.Softmax(logw, logw)
	return logw
}

// DiffusionLogitTopic returns the Eq. 5 sigmoid argument for user u
// diffusing user v's content on topic z in time bucket b:
// EtaScale · Σ_cc' π_u,c θ_c,z η_{c,c',z} θ_c',z π_v,c' + popularity +
// ν^T f_uv (feats may be nil to skip the individual factor).
func (m *Model) DiffusionLogitTopic(u, v, z, b int, feats []float64) float64 {
	return m.DiffusionLogitTopicRows(m.Pi.Row(u), m.Pi.Row(v), z, b, feats)
}

// DiffusionLogitTopicRows is DiffusionLogitTopic over explicit membership
// rows (each |C| long) instead of user ids. The score is a pure function
// of the rows' bytes, so a replica that holds only one endpoint of a pair
// scores it bit-identically to a full node once it is handed the other
// endpoint's row — the contract cross-shard diffusion relies on.
func (m *Model) DiffusionLogitTopicRows(urow, vrow []float64, z, b int, feats []float64) float64 {
	var bufU, bufV residBuf
	pu, pv := bufU.decompose(urow), bufV.decompose(vrow)
	return m.DiffusionLogitTopicVec(&pu, &pv, z, b, feats)
}

// SmoothedVecFromRow decomposes a raw membership row into base+residual
// form: base is the row minimum (the smoothing floor), residual entries are
// the components more than 1e-12 above it — exactly inverse to how
// buildModel fills a row. The residual is appended to idx and val, which
// callers pass empty (nil, or the [:0] of storage they want it in).
func SmoothedVecFromRow(row []float64, idx []int32, val []float64) sparse.SmoothedVec {
	out := sparse.SmoothedVec{Dim: len(row), Idx: idx, Val: val}
	if len(row) == 0 {
		return out
	}
	base := row[0]
	for _, v := range row {
		if v < base {
			base = v
		}
	}
	out.Base = base
	for c, v := range row {
		if v-base > 1e-12 {
			out.Idx = append(out.Idx, int32(c))
			out.Val = append(out.Val, v-base)
		}
	}
	return out
}

// DiffusionLogitTopicVec is DiffusionLogitTopic with the membership
// vectors already decomposed: the Eq. 5 sigmoid argument for a diffuser
// with membership a and an author with membership b on topic z in bucket
// bkt. Loops over topics decompose once and call this per topic.
func (m *Model) DiffusionLogitTopicVec(a, b *sparse.SmoothedVec, z, bkt int, feats []float64) float64 {
	x := m.aggs[z].Eval(m.etaSlice[z], m.thetaColM.Row(z), a, b)
	if !m.Cfg.NoTopicPopularity && bkt >= 0 && bkt < m.NumBuckets {
		x += m.Cfg.PopScale * m.PopFreq.At(bkt, z)
	}
	if !m.Cfg.NoIndividual && feats != nil {
		x += mathx.Dot(m.Nu, feats)
	}
	return x
}

// DiffusionProb implements Eq. 18: the probability that user u publishes a
// document diffusing document j (published by its author) in time bucket
// b, marginalised over j's topic distribution. g supplies the pairwise
// features.
func (m *Model) DiffusionProb(g *socialgraph.Graph, u int, j int, b int) float64 {
	v := int(g.Docs[j].User)
	if m.Cfg.NoHeterogeneity {
		// The heterogeneity ablation scores diffusion like friendship.
		return m.FriendshipProb(u, v)
	}
	var feats []float64
	if !m.Cfg.NoIndividual {
		feats = g.PairFeatures(nil, u, v)
	}
	pz := m.DocTopicDist(g.Docs[j].Words, v)
	var bufU, bufV residBuf
	pu, pv := bufU.decompose(m.Pi.Row(u)), bufV.decompose(m.Pi.Row(v))
	var p float64
	for z, w := range pz {
		if w < 1e-6 {
			continue
		}
		p += w * mathx.Sigmoid(m.DiffusionLogitTopicVec(&pu, &pv, z, b, feats))
	}
	return p
}

// RankCommunities implements Eq. 19: it scores every community by its
// probability of diffusing content about the query (a bag of word ids) and
// returns the scores (unnormalised; higher is better).
func (m *Model) RankCommunities(query []int32) []float64 {
	Z := m.Cfg.NumTopics
	// p(z|q) ∝ Π_w φ_z,w (uniform community prior absorbed, per the
	// paper's step-2 simplification).
	logq := make([]float64, Z)
	for z := 0; z < Z; z++ {
		var lw float64
		for _, w := range query {
			lw += math.Log(m.Phi.At(z, int(w)) + 1e-300)
		}
		logq[z] = lw
	}
	scores := make([]float64, m.Cfg.NumCommunities)
	m.RankFromLogPosterior(scores, logq)
	return scores
}

// RankFromLogPosterior is the second half of Eq. 19, shared by
// RankCommunities and the serving layer's Snapshot.Rank. logq (len |Z|)
// holds the query's unnormalised log topic posterior
// Σ_{w∈q} log(φ_z,w + 1e-300), summed over the query words in order; it is
// overwritten with p(z|q), and scores (len |C|) receives
// Σ_z rankTable[c][z]·p(z|q) with rankTable[c][z] = Σ_c' η_{c,c',z} θ_{c',z}.
func (m *Model) RankFromLogPosterior(scores, logq []float64) {
	mathx.Softmax(logq, logq)
	for c := range scores {
		row := m.rankTable.Row(c)
		var s float64
		for z, p := range logq {
			s += row[z] * p
		}
		scores[c] = s
	}
}

// TopCommunities returns user u's k highest-membership communities
// (descending), the paper's "top five communities" convention for
// conductance and ranking evaluation.
func (m *Model) TopCommunities(u, k int) []int {
	return mathx.TopKIndices(m.Pi.Row(u), k)
}

// CommunityMembers returns, for each community, the users having it among
// their top-k memberships.
func (m *Model) CommunityMembers(k int) [][]int {
	members := make([][]int, m.Cfg.NumCommunities)
	for u := 0; u < m.NumUsers; u++ {
		for _, c := range m.TopCommunities(u, k) {
			members[c] = append(members[c], u)
		}
	}
	return members
}

// ProfileWordProbs returns the |C| x |W| matrix P[c][w] = Σ_z θ_c,z φ_z,w:
// each community content profile's word distribution. The Fig. 8
// perplexity evaluates these profiles directly — how well a user's top
// community's profile generates her content.
func (m *Model) ProfileWordProbs() *sparse.Dense {
	C, Z := m.Cfg.NumCommunities, m.Cfg.NumTopics
	out := sparse.NewDense(C, m.NumWords)
	for c := 0; c < C; c++ {
		theta := m.Theta.Row(c)
		dst := out.Row(c)
		for z := 0; z < Z; z++ {
			tz := theta[z]
			if tz == 0 {
				continue
			}
			phi := m.Phi.Row(z)
			for w := range dst {
				dst[w] += tz * phi[w]
			}
		}
	}
	return out
}

// TopCommunity returns user u's highest-membership community.
func (m *Model) TopCommunity(u int) int {
	return mathx.MaxIndex(m.Pi.Row(u))
}

// TopWords returns the k highest-probability word ids of topic z.
func (m *Model) TopWords(z, k int) []int {
	return mathx.TopKIndices(m.Phi.Row(z), k)
}

// Load deserializes a model from its JSON encoding and rebuilds its
// caches. It is the legacy format's read-only path: nothing in this
// repository writes JSON models any more (internal/store writes v2
// snapshots and reads all three formats).
func Load(r io.Reader) (*Model, error) {
	var m Model
	dec := json.NewDecoder(r)
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("core: decoding model: %w", err)
	}
	if m.Pi == nil || m.Theta == nil || m.Phi == nil || m.Eta == nil {
		return nil, fmt.Errorf("core: model file missing parameter blocks")
	}
	if err := m.CheckShapes(); err != nil {
		return nil, err
	}
	m.initCaches()
	return &m, nil
}

// maxModelDim bounds every model dimension a deserializer accepts, so a
// corrupt or hostile file cannot request absurd allocations or overflow
// the element-count products below (2^28 squared still fits in int64).
const maxModelDim = 1 << 28

// CheckShapes cross-checks every parameter block against the config and
// the dimension fields: shared dimensions must agree AND each block's
// backing storage must hold exactly Rows×Cols elements. Deserializers
// (core.Load, internal/store) run it before initCaches, whose indexing
// assumes all of this — a file that lies about its shapes must fail
// loading, not panic serving.
func (m *Model) CheckShapes() error {
	C, Z := m.Cfg.NumCommunities, m.Cfg.NumTopics
	if C <= 0 || Z <= 0 || C > maxModelDim || Z > maxModelDim {
		return fmt.Errorf("core: model config has |C|=%d |Z|=%d", C, Z)
	}
	if m.NumUsers < 0 || m.NumWords < 0 || m.NumBuckets < 0 || m.NumAttrs < 0 ||
		m.NumUsers > maxModelDim || m.NumWords > maxModelDim ||
		m.NumBuckets > maxModelDim || m.NumAttrs > maxModelDim {
		return fmt.Errorf("core: model dimensions out of range (users=%d words=%d buckets=%d attrs=%d)",
			m.NumUsers, m.NumWords, m.NumBuckets, m.NumAttrs)
	}
	dense := func(name string, d *sparse.Dense, rows, cols int) error {
		if d == nil {
			return fmt.Errorf("core: model is missing the %s block", name)
		}
		if d.Rows != rows || d.Cols != cols {
			return fmt.Errorf("core: %s is %dx%d, want %dx%d", name, d.Rows, d.Cols, rows, cols)
		}
		if len(d.Data) != rows*cols {
			return fmt.Errorf("core: %s claims %dx%d but stores %d values", name, rows, cols, len(d.Data))
		}
		return nil
	}
	if err := dense("pi", m.Pi, m.NumUsers, C); err != nil {
		return err
	}
	if err := dense("theta", m.Theta, C, Z); err != nil {
		return err
	}
	if err := dense("phi", m.Phi, Z, m.NumWords); err != nil {
		return err
	}
	if m.Eta == nil {
		return fmt.Errorf("core: model is missing the eta block")
	}
	if m.Eta.D1 != C || m.Eta.D2 != C || m.Eta.D3 != Z {
		return fmt.Errorf("core: eta is %dx%dx%d, want %dx%dx%d", m.Eta.D1, m.Eta.D2, m.Eta.D3, C, C, Z)
	}
	if len(m.Eta.Data) != C*C*Z {
		return fmt.Errorf("core: eta claims %dx%dx%d but stores %d values", C, C, Z, len(m.Eta.Data))
	}
	if m.Xi != nil {
		if err := dense("xi", m.Xi, C, m.NumAttrs); err != nil {
			return err
		}
	}
	// A positive bucket count promises the popularity table: the
	// diffusion path indexes PopFreq whenever 0 <= b < NumBuckets, so a
	// model claiming buckets without the block would panic serving.
	if m.PopFreq == nil && m.NumBuckets > 0 {
		return fmt.Errorf("core: model claims %d time buckets but has no popularity block", m.NumBuckets)
	}
	if m.PopFreq != nil {
		if err := dense("popularity", m.PopFreq, m.NumBuckets, Z); err != nil {
			return err
		}
	}
	if len(m.DocCommunity) != len(m.DocTopic) || len(m.DocCommunity) != len(m.DocBucket) {
		return fmt.Errorf("core: document assignment blocks disagree on length (%d/%d/%d)",
			len(m.DocCommunity), len(m.DocTopic), len(m.DocBucket))
	}
	return nil
}

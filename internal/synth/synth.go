// Package synth generates synthetic social graphs from a planted CPD
// generative process. It is the substitution (README.md design notes) for the paper’s
// proprietary Twitter and DBLP crawls: every statistical coupling the
// evaluation section measures — community-assortative friendship,
// community-specific content, topic-aware community-to-community diffusion,
// topic-popularity bursts and individual-preference effects — is planted
// explicitly, with the ground-truth parameters returned for
// parameter-recovery tests.
//
// # Cost
//
// Every distribution that stays fixed for one Generate call — each topic's
// word row Φ_z, each community's topic row Θ_c and attribute row Ξ_c, the
// community-size prior, each community's member weights and the
// source-document weights of diffusion — is prepared once as an
// rng.Table and drawn from in O(log n). Generate therefore costs
// O(|Z|·|W| + |C|·|A| + draws·log n): linear in the users and links up to
// the logarithm, where drawing every token by rng.Categorical scanned a
// |W|-wide row and every diffusion link scanned every document.
//
// The tables are an optimisation only: Table.Draw returns the index
// rng.Categorical returns over the same weights and leaves the generator
// in the same state, so a seed yields the graph and ground truth it
// yielded before (TestGeneratePinned). Rows drawn only a few times stay
// rng.Categorical: a user's |C|-wide Π row (one draw per document of that
// user) and the η column of a diffusion source's (community, topic).
package synth

import (
	"math"

	"repro/internal/rng"
	"repro/internal/socialgraph"
	"repro/internal/sparse"
)

// Config controls the planted generative process.
type Config struct {
	Name string
	Seed uint64

	Users       int
	Communities int // ground-truth |C*|
	Topics      int // ground-truth |Z*|
	VocabSize   int

	DocsPerUserMean float64
	WordsPerDocMean float64 // >= 2 enforced

	// Expected per-user friendship out-degree, split into links inside the
	// user's home community vs anywhere.
	FriendIntraDeg float64
	FriendInterDeg float64
	// Symmetric stores each friendship link in both directions (DBLP
	// co-authorship).
	Symmetric bool

	// DiffLinks is the number of diffusion events to generate; each one
	// creates the diffusing document (a retweet or a citing paper) and
	// CitesPerDoc diffusion links from it.
	DiffLinks int
	// CitesPerDoc is the number of source documents each diffusing
	// document links to: 1 for a retweet, several for a citing paper's
	// reference list (this is what makes DBLP's |E| exceed |F| in Table 3).
	CitesPerDoc int
	// CopyWords makes the diffusing document copy the source document's
	// words (a retweet is near-identical content); otherwise the diffusing
	// document draws fresh words from the same topic (a citing paper).
	CopyWords bool
	// NoiseDiff is the fraction of diffusion links generated uniformly at
	// random — the nonconformity the paper insists a profiling model must
	// tolerate.
	NoiseDiff float64

	TimeBuckets int
	// PopularityBurst gives each topic a peak time bucket and biases both
	// document timestamps and diffusion-source selection toward it,
	// planting the n_tz factor of Eq. 5.
	PopularityBurst bool

	// SelfDiffBias is the planted weight of intra-community diffusion; the
	// generator also plants strong *inter*-community pairs ("weak ties"
	// are not weak, Sect. 1) so the heterogeneity ablation has signal.
	SelfDiffBias float64

	// AttrVocab > 0 plants per-community categorical attribute profiles
	// (the paper's future-work "other types of X"): each user draws
	// AttrsPerUserMean attribute tokens from her home community's
	// attribute distribution.
	AttrVocab        int
	AttrsPerUserMean float64

	// --- regime knobs (internal/scenario) -------------------------------
	//
	// Every field below defaults to the generator's historical behaviour
	// at its zero value — and when off, consumes no RNG draws — so
	// existing presets and their seeded outputs are unchanged.

	// DegreeExponent > 0 gives each user a Pareto(1, DegreeExponent)
	// multiplier on both friendship out-degree means, producing the
	// heavy-tailed (power-law) degree distributions of real follower
	// graphs instead of the default Poisson degrees. Smaller exponents
	// mean heavier tails; 1.2 gives a recognizably Twitter-ish tail.
	DegreeExponent float64
	// HomeWeight is the membership mass concentrated on a user's home
	// community (0 selects the default 0.75). The secondary community
	// receives 0.98 - HomeWeight, so low values (~0.5) plant heavily
	// overlapping memberships and high values (~0.95) near-disjoint ones.
	HomeWeight float64
	// SizeExponent is the Zipf exponent of the planted community sizes
	// (0 selects the default 0.6). Large values (~3) collapse almost all
	// users into one giant community.
	SizeExponent float64
	// VocabZipf > 0 skews the vocabulary: every topic's Dirichlet
	// concentration for word w is scaled by (w+1)^-VocabZipf, so low-id
	// words dominate the corpus the way natural-language frequencies do.
	VocabZipf float64
	// SpamWords > 0 reserves that many word ids as "spam": after the
	// per-topic word distributions are drawn, SpamMass of every topic's
	// probability is moved onto a shared spam block, planting dominant
	// tokens that carry no community signal (SpamMass defaults to 0.3
	// when SpamWords > 0).
	SpamWords int
	SpamMass  float64
	// IsolatedFraction is the fraction of users excluded from the
	// friendship graph entirely — they still publish documents and can
	// diffuse, but detection gets no link evidence for them.
	IsolatedFraction float64
	// MinWordsPerDoc lowers the per-document word floor (0 selects the
	// default 2, the paper's preprocessing minimum). Set 1 to generate
	// degenerate single-word documents.
	MinWordsPerDoc int
}

// TwitterLike returns a Twitter-flavoured preset scaled to roughly `users`
// users: directed followership, many short documents per user, retweets
// copying source content, fewer diffusion than friendship links (Table 3's
// Twitter row has |E| ≈ 0.28 |F|).
func TwitterLike(users int, seed uint64) Config {
	return Config{
		Name: "twitter-like", Seed: seed,
		Users: users, Communities: 20, Topics: 25,
		VocabSize:       1500,
		DocsPerUserMean: 6, WordsPerDocMean: 6,
		FriendIntraDeg: 10, FriendInterDeg: 3, Symmetric: false,
		DiffLinks: users * 4, CitesPerDoc: 1, CopyWords: true, NoiseDiff: 0.15,
		TimeBuckets: 24, PopularityBurst: true,
		SelfDiffBias: 3,
	}
}

// DBLPLike returns a DBLP-flavoured preset: symmetric co-authorship, few
// documents per user, citing documents with fresh same-topic words, and
// more diffusion than friendship links (Table 3's DBLP row has
// |E| ≈ 3.3 |F|).
func DBLPLike(users int, seed uint64) Config {
	return Config{
		Name: "dblp-like", Seed: seed,
		Users: users, Communities: 20, Topics: 25,
		VocabSize:       1200,
		DocsPerUserMean: 3.5, WordsPerDocMean: 7,
		FriendIntraDeg: 4, FriendInterDeg: 1, Symmetric: true,
		DiffLinks: users * 3, CitesPerDoc: 4, CopyWords: false, NoiseDiff: 0.1,
		TimeBuckets: 24, PopularityBurst: true,
		SelfDiffBias: 2,
	}
}

// GroundTruth carries the planted parameters for recovery tests and the
// harness's oracle plots (Fig. 5).
type GroundTruth struct {
	// HomeCommunity[u] is user u's dominant community.
	HomeCommunity []int32
	// Pi[u] is the planted community membership of user u (|C*| dims).
	Pi *sparse.Dense
	// Theta[c] is the planted topic profile of community c (|Z*| dims).
	Theta *sparse.Dense
	// Phi[z] is the planted word distribution of topic z (|W| dims).
	Phi *sparse.Dense
	// Eta is the planted diffusion profile (|C*| x |C*| x |Z*|).
	Eta *sparse.Tensor3
	// DocCommunity / DocTopic are the planted per-document assignments.
	DocCommunity, DocTopic []int32
	// TopicPeak[z] is the peak time bucket of topic z (nil without bursts).
	TopicPeak []int
	// UserProminence[u] is the latent popularity score shaping both
	// friendship in-degree and diffusion targeting.
	UserProminence []float64
	// Xi is the planted community attribute profile (|C*| x |A|), nil
	// unless AttrVocab > 0.
	Xi *sparse.Dense
}

// Generate runs the planted process and returns the graph plus ground
// truth. The graph always passes Validate.
func Generate(cfg Config) (*socialgraph.Graph, *GroundTruth) {
	if cfg.Users <= 0 || cfg.Communities <= 0 || cfg.Topics <= 0 || cfg.VocabSize <= 0 {
		panic("synth: Config with non-positive dimensions")
	}
	r := rng.New(cfg.Seed)
	gt := &GroundTruth{}

	plantTopics(cfg, r, gt)
	phi := rowTables(gt.Phi)
	plantCommunities(cfg, r, gt)
	plantUsers(cfg, r, gt)
	g := &socialgraph.Graph{NumUsers: cfg.Users, NumWords: cfg.VocabSize}
	generateDocs(cfg, r, gt, phi, g)
	generateAttributes(cfg, r, gt, g)
	generateFriendships(cfg, r, gt, g)
	plantEta(cfg, r, gt)
	generateDiffusion(cfg, r, gt, phi, g)
	g.DropUsersWithoutDocs() // mirrors the paper's preprocessing; remaps ids
	// Ground-truth per-user slices may now be misaligned if users were
	// dropped; regenerate alignment by construction: every user gets at
	// least one doc below, so drops are rare — but handle them anyway.
	return g, gt
}

// rowTables prepares one rng.Table per row of m.
func rowTables(m *sparse.Dense) []*rng.Table {
	ts := make([]*rng.Table, m.Rows)
	for i := range ts {
		ts[i] = rng.NewTable(m.Row(i))
	}
	return ts
}

// plantTopics draws phi_z concentrated on a per-topic block of anchor words
// plus a smoothed background, which keeps topics identifiable at small
// corpus sizes.
func plantTopics(cfg Config, r *rng.RNG, gt *GroundTruth) {
	gt.Phi = sparse.NewDense(cfg.Topics, cfg.VocabSize)
	block := cfg.VocabSize / cfg.Topics
	if block < 1 {
		block = 1
	}
	alpha := make([]float64, cfg.VocabSize)
	for z := 0; z < cfg.Topics; z++ {
		for w := range alpha {
			alpha[w] = 0.01
		}
		lo := (z * block) % cfg.VocabSize
		for k := 0; k < block; k++ {
			alpha[(lo+k)%cfg.VocabSize] = 2.0
		}
		if cfg.VocabZipf > 0 {
			for w := range alpha {
				alpha[w] *= math.Pow(float64(w+1), -cfg.VocabZipf)
			}
		}
		r.Dirichlet(gt.Phi.Row(z), alpha)
	}
	plantSpam(cfg, gt)
	if cfg.PopularityBurst {
		gt.TopicPeak = make([]int, cfg.Topics)
		for z := range gt.TopicPeak {
			gt.TopicPeak[z] = r.Intn(max(cfg.TimeBuckets, 1))
		}
	}
}

// plantSpam moves SpamMass of every topic's word probability onto a shared
// block of cfg.SpamWords low-id words, uniformly. The spam block is
// identical across topics, so the planted tokens dominate the corpus while
// carrying zero topic (and hence community) signal.
func plantSpam(cfg Config, gt *GroundTruth) {
	if cfg.SpamWords <= 0 {
		return
	}
	ns := cfg.SpamWords
	if ns > cfg.VocabSize {
		ns = cfg.VocabSize
	}
	mass := cfg.SpamMass
	if mass <= 0 {
		mass = 0.3
	}
	if mass > 0.95 {
		mass = 0.95
	}
	per := mass / float64(ns)
	for z := 0; z < cfg.Topics; z++ {
		row := gt.Phi.Row(z)
		for w := range row {
			row[w] *= 1 - mass
		}
		for w := 0; w < ns; w++ {
			row[w] += per
		}
	}
}

// plantCommunities draws theta_c concentrated on two preferred topics per
// community.
func plantCommunities(cfg Config, r *rng.RNG, gt *GroundTruth) {
	gt.Theta = sparse.NewDense(cfg.Communities, cfg.Topics)
	alpha := make([]float64, cfg.Topics)
	for c := 0; c < cfg.Communities; c++ {
		for z := range alpha {
			alpha[z] = 0.05
		}
		primary := c % cfg.Topics
		secondary := (c + 7) % cfg.Topics
		alpha[primary] = 6.0
		alpha[secondary] = 2.0
		r.Dirichlet(gt.Theta.Row(c), alpha)
	}
}

// plantUsers assigns each user a home community (Zipf-skewed sizes), a
// membership vector concentrated on the home plus one secondary community,
// and a latent prominence score.
func plantUsers(cfg Config, r *rng.RNG, gt *GroundTruth) {
	gt.HomeCommunity = make([]int32, cfg.Users)
	gt.Pi = sparse.NewDense(cfg.Users, cfg.Communities)
	gt.UserProminence = make([]float64, cfg.Users)
	sizeExp := cfg.SizeExponent
	if sizeExp == 0 {
		sizeExp = 0.6
	}
	sizes := make([]float64, cfg.Communities)
	for c := range sizes {
		sizes[c] = math.Pow(float64(c+1), -sizeExp)
	}
	homeW := cfg.HomeWeight
	if homeW == 0 {
		homeW = 0.75
	}
	secondW := 0.98 - homeW
	if secondW < 0 {
		secondW = 0
	}
	sizeTable := rng.NewTable(sizes)
	for u := 0; u < cfg.Users; u++ {
		home := sizeTable.Draw(r)
		gt.HomeCommunity[u] = int32(home)
		second := r.Intn(cfg.Communities)
		row := gt.Pi.Row(u)
		for c := range row {
			row[c] = 0.02 / float64(cfg.Communities)
		}
		row[home] += homeW
		row[second] += secondW
		norm := 0.0
		for _, v := range row {
			norm += v
		}
		for c := range row {
			row[c] /= norm
		}
		// Log-normal prominence: a few celebrities, many ordinary users.
		gt.UserProminence[u] = math.Exp(0.8 * r.Norm())
	}
}

// generateDocs draws each user's documents from the planted CPD process:
// c ~ pi_u, z ~ theta_c, words ~ phi_z, time biased to the topic's peak
// bucket when bursts are on. Every user gets at least one document so the
// graph keeps its planned size.
func generateDocs(cfg Config, r *rng.RNG, gt *GroundTruth, phi []*rng.Table, g *socialgraph.Graph) {
	theta := rowTables(gt.Theta)
	for u := 0; u < cfg.Users; u++ {
		nd := r.Poisson(cfg.DocsPerUserMean)
		if nd < 1 {
			nd = 1
		}
		for d := 0; d < nd; d++ {
			c := r.Categorical(gt.Pi.Row(u))
			z := theta[c].Draw(r)
			doc := socialgraph.Doc{
				User:  int32(u),
				Time:  int64(drawTime(cfg, r, gt, z)),
				Words: drawWords(cfg, r, phi[z]),
			}
			g.Docs = append(g.Docs, doc)
			gt.DocCommunity = append(gt.DocCommunity, int32(c))
			gt.DocTopic = append(gt.DocTopic, int32(z))
		}
	}
}

// drawWords draws one document's words from its topic's word table.
func drawWords(cfg Config, r *rng.RNG, phi *rng.Table) []int32 {
	floor := cfg.MinWordsPerDoc
	if floor <= 0 {
		floor = 2
	}
	n := floor + r.Poisson(math.Max(cfg.WordsPerDocMean-float64(floor), 0))
	words := make([]int32, n)
	for k := range words {
		words[k] = int32(phi.Draw(r))
	}
	return words
}

// drawTime returns a bucket id; with bursts on, 60% of a topic's documents
// land within ±1 bucket of its peak.
func drawTime(cfg Config, r *rng.RNG, gt *GroundTruth, z int) int {
	nb := max(cfg.TimeBuckets, 1)
	if !cfg.PopularityBurst || gt.TopicPeak == nil {
		return r.Intn(nb)
	}
	if r.Float64() < 0.6 {
		t := gt.TopicPeak[z] + r.Intn(3) - 1
		if t < 0 {
			t = 0
		}
		if t >= nb {
			t = nb - 1
		}
		return t
	}
	return r.Intn(nb)
}

// generateAttributes plants per-community attribute distributions (block-
// anchored like the topics) and draws each user's attribute tokens from
// her home community's distribution. No-op unless cfg.AttrVocab > 0.
func generateAttributes(cfg Config, r *rng.RNG, gt *GroundTruth, g *socialgraph.Graph) {
	if cfg.AttrVocab <= 0 {
		return
	}
	gt.Xi = sparse.NewDense(cfg.Communities, cfg.AttrVocab)
	block := cfg.AttrVocab / cfg.Communities
	if block < 1 {
		block = 1
	}
	alpha := make([]float64, cfg.AttrVocab)
	for c := 0; c < cfg.Communities; c++ {
		for a := range alpha {
			alpha[a] = 0.02
		}
		lo := (c * block) % cfg.AttrVocab
		for k := 0; k < block; k++ {
			alpha[(lo+k)%cfg.AttrVocab] = 2.0
		}
		r.Dirichlet(gt.Xi.Row(c), alpha)
	}
	g.NumAttrs = cfg.AttrVocab
	g.Attrs = make([][]int32, cfg.Users)
	mean := cfg.AttrsPerUserMean
	if mean <= 0 {
		mean = 2
	}
	xi := rowTables(gt.Xi)
	for u := 0; u < cfg.Users; u++ {
		n := 1 + r.Poisson(mean-1)
		row := xi[gt.HomeCommunity[u]]
		for k := 0; k < n; k++ {
			g.Attrs[u] = append(g.Attrs[u], int32(row.Draw(r)))
		}
	}
}

// generateFriendships wires intra-community links (preferentially toward
// prominent users, so prominence manifests as follower count) plus uniform
// inter-community links.
func generateFriendships(cfg Config, r *rng.RNG, gt *GroundTruth, g *socialgraph.Graph) {
	members := make([][]int, cfg.Communities)
	for u := 0; u < cfg.Users; u++ {
		members[gt.HomeCommunity[u]] = append(members[gt.HomeCommunity[u]], u)
	}
	// A home community with one member draws no intra link, so it needs
	// no table (an empty one would panic).
	memberTables := make([]*rng.Table, cfg.Communities)
	w := make([]float64, 0, cfg.Users)
	for c, ms := range members {
		if len(ms) < 2 {
			continue
		}
		w = w[:0]
		for _, u := range ms {
			w = append(w, gt.UserProminence[u])
		}
		memberTables[c] = rng.NewTable(w)
	}
	// Regime knobs: per-user power-law degree multipliers and users cut
	// off from the friendship graph entirely. Both draw RNG only when
	// enabled, preserving the seeded output of every existing preset.
	var degMult []float64
	if cfg.DegreeExponent > 0 {
		degMult = make([]float64, cfg.Users)
		for u := range degMult {
			// Pareto(1, alpha) via inverse CDF on an open-interval uniform.
			degMult[u] = math.Pow(r.Float64Open(), -1/cfg.DegreeExponent)
		}
	}
	var isolated []bool
	if cfg.IsolatedFraction > 0 {
		isolated = make([]bool, cfg.Users)
		for u := range isolated {
			isolated[u] = r.Float64() < cfg.IsolatedFraction
		}
	}
	seen := make(map[int64]bool, cfg.Users*8)
	addLink := func(u, v int) {
		if u == v {
			return
		}
		if isolated != nil && (isolated[u] || isolated[v]) {
			return
		}
		key := int64(u)*int64(cfg.Users) + int64(v)
		if seen[key] {
			return
		}
		seen[key] = true
		g.Friends = append(g.Friends, socialgraph.FriendLink{U: int32(u), V: int32(v)})
		if cfg.Symmetric {
			rkey := int64(v)*int64(cfg.Users) + int64(u)
			if !seen[rkey] {
				seen[rkey] = true
				g.Friends = append(g.Friends, socialgraph.FriendLink{U: int32(v), V: int32(u)})
			}
		}
	}
	for u := 0; u < cfg.Users; u++ {
		home := int(gt.HomeCommunity[u])
		mult := 1.0
		if degMult != nil {
			mult = degMult[u]
		}
		nIntra := r.Poisson(cfg.FriendIntraDeg * mult)
		if len(members[home]) > 1 {
			for k := 0; k < nIntra; k++ {
				v := members[home][memberTables[home].Draw(r)]
				addLink(u, v)
			}
		}
		nInter := r.Poisson(cfg.FriendInterDeg * mult)
		for k := 0; k < nInter; k++ {
			addLink(u, r.Intn(cfg.Users))
		}
	}
}

// plantEta builds the ground-truth diffusion profile: strong self-diffusion
// on each community's preferred topics, plus planted inter-community
// corridors — pairs (c, c+1) diffusing strongly on their shared secondary
// topic, deliberately stronger than some self-links so that "weak ties"
// carry real diffusion (Sect. 1's heterogeneity challenge).
func plantEta(cfg Config, r *rng.RNG, gt *GroundTruth) {
	gt.Eta = sparse.NewTensor3(cfg.Communities, cfg.Communities, cfg.Topics)
	for c := 0; c < cfg.Communities; c++ {
		theta := gt.Theta.Row(c)
		for z := 0; z < cfg.Topics; z++ {
			gt.Eta.Set(c, c, z, cfg.SelfDiffBias*theta[z])
		}
		// Inter-community corridor: c diffuses c+1 on c+1's primary topic,
		// with strength comparable to (often exceeding) self-diffusion.
		cn := (c + 1) % cfg.Communities
		zShared := cn % cfg.Topics
		gt.Eta.Set(c, cn, zShared, cfg.SelfDiffBias*1.5)
		// Low-level background diffusion everywhere.
		for c2 := 0; c2 < cfg.Communities; c2++ {
			for z := 0; z < cfg.Topics; z++ {
				gt.Eta.Add(c, c2, z, 0.01*r.Float64())
			}
		}
	}
	// Normalize each source community's profile to a distribution over
	// (c', z), matching Definition 5.
	for c := 0; c < cfg.Communities; c++ {
		var s float64
		for c2 := 0; c2 < cfg.Communities; c2++ {
			for z := 0; z < cfg.Topics; z++ {
				s += gt.Eta.At(c, c2, z)
			}
		}
		for c2 := 0; c2 < cfg.Communities; c2++ {
			for z := 0; z < cfg.Topics; z++ {
				gt.Eta.Set(c, c2, z, gt.Eta.At(c, c2, z)/s)
			}
		}
	}
}

// generateDiffusion creates cfg.DiffLinks diffusion events. Each event
// picks a source document (biased by author prominence and, with bursts,
// topic-time popularity), picks the diffusing community from the planted
// eta column for the source's (community, topic), picks a diffusing user
// from that community (biased by activeness-in-waiting: prominence again),
// creates the diffusing document and records the link.
func generateDiffusion(cfg Config, r *rng.RNG, gt *GroundTruth, phi []*rng.Table, g *socialgraph.Graph) {
	if len(g.Docs) == 0 || cfg.DiffLinks <= 0 {
		return
	}
	members := make([][]int, cfg.Communities)
	for u := 0; u < cfg.Users; u++ {
		members[gt.HomeCommunity[u]] = append(members[gt.HomeCommunity[u]], u)
	}
	nOriginal := len(g.Docs)
	// Source-document weights: prominence of author × burst factor.
	srcW := make([]float64, nOriginal)
	for i := 0; i < nOriginal; i++ {
		w := gt.UserProminence[g.Docs[i].User]
		if cfg.PopularityBurst && gt.TopicPeak != nil {
			z := int(gt.DocTopic[i])
			dist := absInt(int(g.Docs[i].Time) - gt.TopicPeak[z])
			w *= 1 + 2*math.Exp(-float64(dist))
		}
		srcW[i] = w
	}
	src := rng.NewTable(srcW)
	colWeights := make([]float64, cfg.Communities)
	for made := 0; made < cfg.DiffLinks; made++ {
		j := src.Draw(r)
		cj := int(gt.DocCommunity[j])
		zj := int(gt.DocTopic[j])
		var u int
		if r.Float64() < cfg.NoiseDiff {
			// Nonconformity: a random user diffuses for reasons outside the
			// community model.
			u = r.Intn(cfg.Users)
		} else {
			for c := 0; c < cfg.Communities; c++ {
				colWeights[c] = gt.Eta.At(c, cj, zj) + 1e-9
			}
			c := r.Categorical(colWeights)
			if len(members[c]) == 0 {
				u = r.Intn(cfg.Users)
			} else {
				u = members[c][r.Intn(len(members[c]))]
			}
		}
		if int32(u) == g.Docs[j].User {
			// No self-diffusion of one's own document; retry counts as one
			// attempt to keep generation O(DiffLinks).
			continue
		}
		t := g.Docs[j].Time + int64(r.Intn(2))
		if t >= int64(max(cfg.TimeBuckets, 1)) {
			t = int64(max(cfg.TimeBuckets, 1)) - 1
		}
		var words []int32
		if cfg.CopyWords {
			words = append([]int32(nil), g.Docs[j].Words...)
			if len(words) > 2 && r.Float64() < 0.5 {
				words = words[:len(words)-1] // truncation noise
			}
		} else {
			words = drawWords(cfg, r, phi[zj])
		}
		i := len(g.Docs)
		g.Docs = append(g.Docs, socialgraph.Doc{User: int32(u), Time: t, Words: words})
		gt.DocCommunity = append(gt.DocCommunity, gt.HomeCommunity[u])
		gt.DocTopic = append(gt.DocTopic, int32(zj))
		g.Diffs = append(g.Diffs, socialgraph.DiffLink{I: int32(i), J: int32(j), T: t})
		// A citing paper links several earlier sources (its reference
		// list); the extras are drawn from the same prominence/burst-
		// weighted source pool, restricted to documents by other users no
		// later than the citing document.
		cited := map[int]bool{j: true}
		for extra := 1; extra < cfg.CitesPerDoc; extra++ {
			j2 := src.Draw(r)
			if g.Docs[j2].User == int32(u) || cited[j2] || g.Docs[j2].Time > t {
				continue
			}
			cited[j2] = true
			g.Diffs = append(g.Diffs, socialgraph.DiffLink{I: int32(i), J: int32(j2), T: t})
		}
	}
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

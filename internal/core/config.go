package core

import (
	"fmt"
	"runtime"

	"repro/internal/rng"
)

// Sampler names for Config.Sampler.
const (
	// SamplerExact draws every document topic and community from the full
	// collapsed conditional (Eqs. 13–14) — O(|Z|) / O(|C|) per draw. The
	// default, and the only sampler with the bit-identical-for-any-Workers
	// guarantee extended to golden fixtures.
	SamplerExact = "exact"
	// SamplerAlias draws through alias-table proposals with
	// Metropolis–Hastings correction against the exact conditional
	// (LightLDA/WarpLDA lineage) — O(1) amortized per candidate instead of
	// O(K). Still deterministic per (seed, graph, config) and still
	// bit-identical for any Workers value, but its chains differ from the
	// exact sampler's, so quality is gated by the scenario suite's NMI
	// floors rather than golden equality. See internal/core/sampler_alias.go.
	SamplerAlias = "alias"
)

// Config holds CPD hyperparameters, the paper's priors as defaults, and the
// ablation switches used by the Sect. 6.2 model-design study.
type Config struct {
	NumCommunities int // |C|
	NumTopics      int // |Z|

	// Sampler selects the E-step sampling algorithm: "" or "exact" for the
	// full-conditional Gibbs sampler, "alias" for the alias-table + MH
	// sampler (see the Sampler* constants). The zero value is deliberately
	// NOT rewritten by withDefaults, so snapshots of exact-sampler models
	// serialize byte-identically to pre-Sampler releases.
	Sampler string `json:"sampler,omitempty"`

	// Dirichlet priors; zero values select the paper's defaults
	// (Sect. 4.2): alpha = 50/|Z|, rho = 50/|C|, beta = 0.1.
	Alpha, Beta, Rho float64
	// Mu is the community-attribute Dirichlet prior used when
	// ModelAttributes is set (default 0.1).
	Mu float64

	// ModelAttributes enables the attribute-profile extension (the paper's
	// future work: profiles over "other types of X" such as user
	// attributes). Each user attribute token gets a latent community
	// assignment — informing detection through π̂ exactly like a document —
	// and every community gains an attribute profile ξ_c (Model.Xi).
	// Requires the graph to carry attributes; incompatible with
	// NoJointModeling (whose two-phase semantics do not define where
	// attribute evidence belongs).
	ModelAttributes bool

	EMIters int // T1 outer EM iterations (default 30)
	NuIters int // T2 gradient steps for nu per M-step (default 40)
	// NuLearningRate for the nu logistic regression (default 0.5).
	NuLearningRate float64
	// NegPerPos is the number of sampled negative (non-)links per observed
	// diffusion link in the nu M-step; the paper uses "the same amount",
	// i.e. 1 (the default).
	NegPerPos int
	// NegFriendPerPos conditions detection on that many sampled negative
	// friendship pairs per observed link (with their own Pólya-Gamma
	// variables). The paper models observed links only (following RTM
	// [5]), but at reproduction scale that likelihood is degenerate — one
	// giant community maximizes every observed-link term — so we sample
	// negatives exactly as the paper already does for ν's logistic
	// regression. Default 1; set -1 to disable (the paper's literal
	// observed-only setting).
	NegFriendPerPos int

	// TimeBuckets discretizes timestamps for the topic-popularity factor
	// n_tz (default 24).
	TimeBuckets int
	// PopScale multiplies the normalized per-bucket topic frequency before
	// it enters Eq. 5. The paper adds the raw count n_tz; at our data
	// scale a raw count saturates the sigmoid, so we add
	// PopScale * n_tz / n_t (README.md design notes). Default 5.
	PopScale float64
	// EtaScale multiplies the diffusion profile inside the bilinear form
	// c̄^T η̄ of Eq. 5. η is a per-community probability distribution over
	// (c', z) cells (Definition 5), so its raw entries are O(1/(|C||Z|));
	// the fixed scale restores a useful logit range without changing the
	// profile itself. Default 10.
	EtaScale float64
	// FriendScale multiplies the membership similarity inside Eq. 3:
	// P(F_uv) = σ(FriendScale · π̂_u^T π̂_v). At the paper's ~290 docs/user
	// the dot product spans most of (0, 1) on its own; at reproduction
	// scale the Dirichlet smoothing compresses it, so the likelihood-ratio
	// coupling that drives detection needs a fixed gain. Monotone, so
	// ranking metrics (AUC) are unaffected; only the training coupling
	// changes. Default 4.
	FriendScale float64

	// WarmStartSweeps runs this many detection-only block-Gibbs sweeps
	// (friendship likelihood + membership prior, whole-user moves) before
	// the joint EM loop, so the per-document sampler starts from an
	// assortative configuration instead of noise. Mixing aid only — the
	// joint model then moves assignments freely. Default 10; ignored under
	// NoJointModeling (which has its own detection phase) and
	// NoFriendship.
	WarmStartSweeps int

	// Workers is the E-step worker-pool size (Sect. 4.3). 0 selects
	// runtime.NumCPU(). Workers is a logical goroutine count, decoupled
	// from the physical core count: training is bit-identical for every
	// value (including Workers = 1 and Workers > NumCPU), because the unit
	// of work is the data segment — fixed segmentation, per-segment RNG
	// streams, snapshot reads across segments — and Workers only controls
	// how segments are packed onto pool goroutines. See Engine.
	//
	// Being a fact about the host rather than the model, Workers is not
	// serialized: a snapshot written with any value has the same bytes, and
	// a legacy file's "Workers" key is ignored on load.
	Workers int `json:"-"`
	// SegmentLDAIters bounds the segmentation LDA's Gibbs sweeps
	// (default 15).
	SegmentLDAIters int

	Seed uint64

	// Ablations (Sect. 6.2 / Fig. 3):

	// NoJointModeling reproduces the "no joint modeling" baseline: detect
	// communities from friendship links alone in a first phase, then
	// freeze the community assignments and learn profiles.
	NoJointModeling bool
	// NoHeterogeneity reproduces "no heterogeneity": diffusion links are
	// modeled with the same community-similarity sigmoid as friendship
	// links (Eq. 3 applied to E) instead of Eq. 5.
	NoHeterogeneity bool
	// NoIndividual drops the individual-preference term nu^T f_uv from
	// Eq. 5 ("no individual & topic" combines it with NoTopicPopularity).
	NoIndividual bool
	// NoTopicPopularity drops the topic-popularity term n_tz from Eq. 5.
	NoTopicPopularity bool
	// NoFriendship removes the friendship likelihood (Eq. 3) from
	// detection entirely. Not an ablation from the paper — it is how the
	// baselines package instantiates COLD [17], which "models neither
	// friendship links in community detection, nor individual factor and
	// topic factor in diffusion prediction".
	NoFriendship bool
}

// WithDefaults returns the configuration with every zero field filled with
// the paper's default. Train applies it automatically; it is exported for
// callers that assemble a Model directly from parameter blocks (the serving
// layer's synthetic benchmark models) and need the prediction gains
// (EtaScale, PopScale, FriendScale) populated.
func (c Config) WithDefaults() Config { return c.withDefaults() }

// withDefaults fills zero values with the paper's settings.
func (c Config) withDefaults() Config {
	if c.Alpha == 0 {
		c.Alpha = 50 / float64(c.NumTopics)
	}
	if c.Beta == 0 {
		c.Beta = 0.1
	}
	if c.Mu == 0 {
		c.Mu = 0.1
	}
	if c.Rho == 0 {
		c.Rho = 50 / float64(c.NumCommunities)
	}
	if c.EMIters == 0 {
		c.EMIters = 30
	}
	if c.NuIters == 0 {
		c.NuIters = 40
	}
	if c.NuLearningRate == 0 {
		c.NuLearningRate = 0.5
	}
	if c.NegPerPos == 0 {
		c.NegPerPos = 1
	}
	if c.NegFriendPerPos == 0 {
		c.NegFriendPerPos = 1
	}
	if c.NegFriendPerPos < 0 {
		c.NegFriendPerPos = 0
	}
	if c.TimeBuckets == 0 {
		c.TimeBuckets = 24
	}
	if c.PopScale == 0 {
		c.PopScale = 5
	}
	if c.EtaScale == 0 {
		c.EtaScale = 10
	}
	if c.FriendScale == 0 {
		c.FriendScale = 4
	}
	if c.WarmStartSweeps == 0 {
		c.WarmStartSweeps = 10
	}
	if c.WarmStartSweeps < 0 {
		c.WarmStartSweeps = 0
	}
	if c.Workers == 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.SegmentLDAIters == 0 {
		c.SegmentLDAIters = 15
	}
	return c
}

// validate rejects impossible configurations.
func (c Config) validate() error {
	if c.NumCommunities <= 0 {
		return fmt.Errorf("core: NumCommunities must be positive, got %d", c.NumCommunities)
	}
	if c.NumTopics <= 0 {
		return fmt.Errorf("core: NumTopics must be positive, got %d", c.NumTopics)
	}
	if c.Workers < 0 {
		return fmt.Errorf("core: Workers must be non-negative, got %d", c.Workers)
	}
	if c.NegPerPos < 0 {
		return fmt.Errorf("core: NegPerPos must be non-negative, got %d", c.NegPerPos)
	}
	if c.ModelAttributes && c.NoJointModeling {
		return fmt.Errorf("core: ModelAttributes is incompatible with NoJointModeling")
	}
	switch c.Sampler {
	case "", SamplerExact, SamplerAlias:
	default:
		return fmt.Errorf("core: unknown Sampler %q (want %q or %q)", c.Sampler, SamplerExact, SamplerAlias)
	}
	return nil
}

// aliasSampling reports whether the configuration selects the alias + MH
// E-step samplers.
func (c Config) aliasSampling() bool { return c.Sampler == SamplerAlias }

// Diagnostics reports timing and balancing information the scalability
// experiments (Figs. 10–11) consume.
type Diagnostics struct {
	// EStepSeconds / MStepSeconds are cumulative over all EM iterations.
	EStepSeconds, MStepSeconds float64
	// SweepSeconds is the per-iteration E-step wall time.
	SweepSeconds []float64
	// WorkerEstimated / WorkerActual are per-worker workload predictions
	// (the loads the last knapsack packing balanced — operation counts
	// initially, measured seconds after a re-pack) and measured E-step
	// seconds for the last recorded sweep.
	WorkerEstimated, WorkerActual []float64
	// Segments is the number of LDA data segments built.
	Segments int
	// Repacks counts how many times the engine re-ran the knapsack packing
	// because the measured worker imbalance drifted past its threshold.
	Repacks int
	// MH counts the alias sampler's Metropolis–Hastings proposals over all
	// E-step sweeps (all zero under the exact sampler): chains that stop
	// accepting have stopped mixing.
	MH MHStats
	// Lazy counts, over all E-step sweeps, the candidates the exact
	// sampler's Gumbel-max draws were offered and the ones they had to
	// evaluate (near zero under the alias sampler, which draws this way
	// only for attribute tokens and detection block moves).
	Lazy LazyDraws
}

// LazyDraws splits the lazy-draw counters by what was drawn: a document's
// topic, or a community (of a document, an attribute token or a detection
// block move). For a topic, evaluated means the candidate's exact log
// conditional — its diffusion kernels — was computed, not only its Gumbel
// value: the count is the work the bound saved. For a community it means
// the Gumbel value was computed over a fully scored candidate. An evaluated
// share near 1 means flat conditionals or loose bounds: they prune nothing
// and a draw costs what the full scan did.
type LazyDraws struct{ Topic, Community rng.LazyStats }

func (s *LazyDraws) add(o LazyDraws) {
	s.Topic.Add(o.Topic)
	s.Community.Add(o.Community)
}

// Total is the two kinds summed.
func (s LazyDraws) Total() rng.LazyStats {
	t := s.Topic
	t.Add(s.Community)
	return t
}

// MHStat counts the proposals of one type that named a value other than
// the current one, and how many of those the exact conditional accepted.
type MHStat struct{ Proposed, Accepted int64 }

// Rate is Accepted/Proposed, 0 before the first proposal.
func (s MHStat) Rate() float64 {
	if s.Proposed == 0 {
		return 0
	}
	return float64(s.Accepted) / float64(s.Proposed)
}

func (s *MHStat) count(accepted bool) {
	s.Proposed++
	if accepted {
		s.Accepted++
	}
}

// MHStats splits the proposals by the table that made them: a topic drawn
// from the document's community (TopicPrior) or from one of its words
// (TopicWord), a community drawn from the user's own tokens
// (CommunityPrior) or from the document's topic (CommunityContent).
type MHStats struct {
	TopicPrior, TopicWord, CommunityPrior, CommunityContent MHStat
}

func (s *MHStat) add(o MHStat) {
	s.Proposed += o.Proposed
	s.Accepted += o.Accepted
}

func (s *MHStats) add(o MHStats) {
	s.TopicPrior.add(o.TopicPrior)
	s.TopicWord.add(o.TopicWord)
	s.CommunityPrior.add(o.CommunityPrior)
	s.CommunityContent.add(o.CommunityContent)
}

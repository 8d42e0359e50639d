package baselines

import (
	"repro/internal/core"
	"repro/internal/socialgraph"
)

// COLD is the COmmunity Level Diffusion model [17]: communities and topics
// are learned jointly from content and diffusion links, but — per Table 4
// — friendship links play no part in detection and the diffusion model has
// neither the individual-preference factor nor the topic-popularity
// factor. It is instantiated as exactly that restriction of the CPD code
// (the paper itself describes COLD as its closest baseline; the remaining
// differences are the features COLD lacks).
type COLD struct {
	Model *core.Model
}

// COLDConfig bundles training knobs.
type COLDConfig struct {
	NumCommunities int
	NumTopics      int
	EMIters        int
	Workers        int
	// Rho is the membership prior; 0 selects 1/|C| (see the experiment
	// harness's scale note in README.md (design notes) — the paper-default 50/|C|
	// over-smooths at reproduction scale, for COLD exactly as for CPD).
	Rho  float64
	Seed uint64
}

// TrainCOLD fits the model on graph g.
func TrainCOLD(g *socialgraph.Graph, cfg COLDConfig) (*COLD, error) {
	rho := cfg.Rho
	if rho == 0 {
		rho = 1 / float64(cfg.NumCommunities)
	}
	m, _, err := core.Train(g, core.Config{
		NumCommunities:    cfg.NumCommunities,
		NumTopics:         cfg.NumTopics,
		EMIters:           cfg.EMIters,
		Workers:           max(cfg.Workers, 1),
		Rho:               rho,
		Seed:              cfg.Seed,
		NoFriendship:      true,
		NoIndividual:      true,
		NoTopicPopularity: true,
	})
	if err != nil {
		return nil, err
	}
	return &COLD{Model: m}, nil
}

// Membership returns user u's community membership.
func (m *COLD) Membership(u int) []float64 { return m.Model.Pi.Row(u) }

// FriendshipScore scores a potential friendship link by membership
// similarity (COLD does not model friendship; this is the standard
// membership-based adaptation used when evaluating it on link prediction).
func (m *COLD) FriendshipScore(u, v int) float64 {
	return m.Model.FriendshipProb(u, v)
}

// DiffusionScore scores doc i diffusing doc j; the wrapped model's config
// already disables the individual and popularity factors.
func (m *COLD) DiffusionScore(g *socialgraph.Graph, i, j int) float64 {
	return m.Model.DiffusionProb(g, int(g.Docs[i].User), j, -1)
}

// RankScores scores communities for a query with the COLD community
// diffusion strengths (Fig. 6 compares COLD on ranking).
func (m *COLD) RankScores(query []int32) []float64 {
	return m.Model.RankCommunities(query)
}

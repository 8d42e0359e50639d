package exp

import (
	"sync"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/lda"
	"repro/internal/mathx"
	"repro/internal/socialgraph"
	"repro/internal/sparse"
)

// Model names used across the figures. The harness trains each only when a
// figure in the requested set needs it.
const (
	MCPD      = "Ours"
	MNoJoint  = "No Joint Modeling"
	MNoHet    = "No Heterogeneity"
	MNoIndTop = "No Individual & Topic"
	MNoTopic  = "No Topic"
	MPMTLM    = "PMTLM"
	MWTM      = "WTM"
	MCRM      = "CRM"
	MCOLD     = "COLD"
	MCRMAgg   = "CRM+Agg"
	MCOLDAgg  = "COLD+Agg"
)

// metrics holds one model's scores on one fold. NaN marks "not
// applicable" (e.g. WTM has no communities, so no conductance).
type metrics struct {
	fAUC, dAUC, cond, perp float64
}

// trained wraps a trained model behind the three capability closures the
// metric code needs; nil closures mark unsupported tasks.
type trained struct {
	membership     func(u int) []float64
	friendScore    func(u, v int) float64
	diffusionScore func(g *socialgraph.Graph, i, j int) float64
	wordProb       func(u int, w int32) float64
}

// cpdConfig builds the CPD-family config for a cell.
func (o Options) cpdConfig(c int, flags core.Config) core.Config {
	flags.NumCommunities = c
	flags.NumTopics = o.Topics
	flags.EMIters = o.EMIters
	flags.Workers = o.Workers
	flags.Rho = o.rhoFor(c)
	if flags.Seed == 0 {
		flags.Seed = o.Seed ^ uint64(c)<<8
	}
	return flags
}

func adaptCPD(m *core.Model) trained {
	var once sync.Once
	var profile *sparse.Dense
	return trained{
		membership:  func(u int) []float64 { return m.Pi.Row(u) },
		friendScore: m.FriendshipProb,
		diffusionScore: func(g *socialgraph.Graph, i, j int) float64 {
			return m.DiffusionProb(g, int(g.Docs[i].User), j, m.DocBucket[i])
		},
		// Fig. 8 evaluates the content profile itself: how well a user's
		// top community's word distribution generates her content.
		wordProb: func(u int, w int32) float64 {
			once.Do(func() { profile = m.ProfileWordProbs() })
			return profile.At(m.TopCommunity(u), int(w))
		},
	}
}

// trainModel trains the named model for a cell (training graph gtr with
// held-out links removed; shared per-fold LDA for the models that need
// one). It returns the adapter or ok=false when the model cannot run on
// this dataset.
func (o Options) trainModel(name string, gtr *socialgraph.Graph, c int, sharedLDA *lda.Model, docTheta [][]float64, seed uint64) (trained, bool) {
	switch name {
	case MCPD, MNoJoint, MNoHet, MNoIndTop, MNoTopic:
		flags := core.Config{Seed: seed}
		switch name {
		case MNoJoint:
			flags.NoJointModeling = true
		case MNoHet:
			flags.NoHeterogeneity = true
		case MNoIndTop:
			flags.NoIndividual = true
			flags.NoTopicPopularity = true
		case MNoTopic:
			flags.NoTopicPopularity = true
		}
		m, _, err := core.Train(gtr, o.cpdConfig(c, flags))
		if err != nil {
			return trained{}, false
		}
		return adaptCPD(m), true

	case MPMTLM:
		m := baselines.TrainPMTLM(gtr, baselines.PMTLMConfig{
			NumTopics: c, LDAIters: 30, Seed: seed,
		})
		return trained{
			membership:     m.Membership,
			friendScore:    m.FriendshipScore,
			diffusionScore: m.DiffusionScore,
		}, true

	case MWTM:
		m := baselines.TrainWTM(gtr, baselines.WTMConfig{
			NumTopics: o.Topics, LDAIters: 30, Seed: seed,
		})
		return trained{diffusionScore: m.DiffusionScore}, true

	case MCRM:
		m := baselines.TrainCRM(gtr, baselines.CRMConfig{
			NumCommunities: c, Iters: o.EMIters * 2, Seed: seed,
		})
		return trained{
			membership:     m.Membership,
			friendScore:    m.FriendshipScore,
			diffusionScore: m.DiffusionScore,
		}, true

	case MCOLD:
		m, err := baselines.TrainCOLD(gtr, baselines.COLDConfig{
			NumCommunities: c, NumTopics: o.Topics, EMIters: o.EMIters,
			Workers: o.Workers, Rho: o.rhoFor(c), Seed: seed,
		})
		if err != nil {
			return trained{}, false
		}
		return trained{
			membership:     m.Membership,
			friendScore:    m.FriendshipScore,
			diffusionScore: m.DiffusionScore,
		}, true

	case MCRMAgg:
		crm := baselines.TrainCRM(gtr, baselines.CRMConfig{
			NumCommunities: c, Iters: o.EMIters * 2, Seed: seed,
		})
		agg := baselines.Aggregate(gtr, crm.Pi, sharedLDA, docTheta)
		return trained{
			membership:     crm.Membership,
			friendScore:    crm.FriendshipScore,
			diffusionScore: agg.DiffusionScore,
			wordProb:       aggProfileWordProb(agg, gtr.NumWords),
		}, true

	case MCOLDAgg:
		cold, err := baselines.TrainCOLD(gtr, baselines.COLDConfig{
			NumCommunities: c, NumTopics: o.Topics, EMIters: o.EMIters,
			Workers: o.Workers, Rho: o.rhoFor(c), Seed: seed,
		})
		if err != nil {
			return trained{}, false
		}
		agg := baselines.Aggregate(gtr, cold.Model.Pi, sharedLDA, docTheta)
		return trained{
			membership:     cold.Membership,
			friendScore:    cold.FriendshipScore,
			diffusionScore: agg.DiffusionScore,
			wordProb:       aggProfileWordProb(agg, gtr.NumWords),
		}, true
	}
	return trained{}, false
}

// aggProfileWordProb builds the Fig. 8 profile-level word probability for
// an aggregation baseline, lazily materialising the profile matrix.
func aggProfileWordProb(agg *baselines.Aggregated, numWords int) func(u int, w int32) float64 {
	var once sync.Once
	var profile *sparse.Dense
	return func(u int, w int32) float64 {
		once.Do(func() { profile = agg.ProfileWordProbs(numWords) })
		return profile.At(agg.TopCommunity(u), int(w))
	}
}

// gridResult indexes per-fold metrics by |C| then model name.
type gridResult map[int]map[string][]metrics

// runGrid executes the cross-validated grid: for every |C| in the sweep
// and every fold, hold out 1/folds of friendship and diffusion links,
// train every requested model on the rest and score the held-out links
// (AUC vs sampled negatives), the detection quality (conductance of top-5
// membership sets over the full friendship graph) and — where supported —
// the content-profile perplexity.
func (o Options) runGrid(ds *Dataset, models []string) gridResult {
	g := ds.Graph
	fFolds := eval.KFold(len(g.Friends), o.Folds, o.Seed^0xF01D)
	eFolds := eval.KFold(len(g.Diffs), o.Folds, o.Seed^0xE01D)

	out := make(gridResult)
	for _, c := range o.CommunitySweep {
		out[c] = make(map[string][]metrics)
	}
	for fold := 0; fold < o.Folds; fold++ {
		fTrain, fTest := eval.SplitByFold(fFolds, fold)
		eTrain, eTest := eval.SplitByFold(eFolds, fold)
		gtr := holdout(g, fTrain, eTrain)
		gtr.BuildIndexes()

		// Shared per-fold LDA for WTM and the +Agg baselines.
		var sharedLDA *lda.Model
		var docTheta [][]float64
		needsLDA := false
		for _, name := range models {
			if name == MCRMAgg || name == MCOLDAgg {
				needsLDA = true
			}
		}
		if needsLDA {
			docs := make([][]int32, len(gtr.Docs))
			for i := range gtr.Docs {
				docs[i] = gtr.Docs[i].Words
			}
			sharedLDA = lda.Train(docs, gtr.NumWords, lda.Config{
				NumTopics: o.Topics, Iters: 30, Seed: o.Seed ^ uint64(fold),
			})
			docTheta = make([][]float64, len(gtr.Docs))
			for i := range gtr.Docs {
				docTheta[i] = sharedLDA.DocTopics(i)
			}
		}

		negUsers := eval.SampleNegativePairs(g, len(fTest), o.Seed^uint64(fold)<<4)
		negDocs := eval.SampleNegativeDocPairs(g, len(eTest), o.Seed^uint64(fold)<<5)

		for _, c := range o.CommunitySweep {
			for _, name := range models {
				seed := o.Seed ^ uint64(fold)<<16 ^ uint64(c)<<2 ^ hashName(name)
				tm, ok := o.trainModel(name, gtr, c, sharedLDA, docTheta, seed)
				if !ok {
					continue
				}
				out[c][name] = append(out[c][name], o.scoreModel(tm, g, fTest, eTest, negUsers, negDocs))
			}
		}
	}
	return out
}

// scoreModel computes the fold metrics for one trained model.
func (o Options) scoreModel(tm trained, g *socialgraph.Graph, fTest, eTest []int, negUsers, negDocs [][2]int) metrics {
	nan := func() float64 { return nanVal }
	m := metrics{fAUC: nan(), dAUC: nan(), cond: nan(), perp: nan()}
	if tm.friendScore != nil {
		pos := make([]float64, 0, len(fTest))
		for _, li := range fTest {
			f := g.Friends[li]
			pos = append(pos, tm.friendScore(int(f.U), int(f.V)))
		}
		neg := make([]float64, 0, len(negUsers))
		for _, p := range negUsers {
			neg = append(neg, tm.friendScore(p[0], p[1]))
		}
		m.fAUC = eval.AUC(pos, neg)
	}
	if tm.diffusionScore != nil {
		pos := make([]float64, 0, len(eTest))
		for _, ei := range eTest {
			e := g.Diffs[ei]
			pos = append(pos, tm.diffusionScore(g, int(e.I), int(e.J)))
		}
		neg := make([]float64, 0, len(negDocs))
		for _, p := range negDocs {
			neg = append(neg, tm.diffusionScore(g, p[0], p[1]))
		}
		m.dAUC = eval.AUC(pos, neg)
	}
	if tm.membership != nil {
		members := topKMembers(tm.membership, g.NumUsers, 5)
		m.cond = eval.Conductance(g, members)
	}
	if tm.wordProb != nil {
		m.perp = eval.Perplexity(tm.wordProb, g.Docs)
	}
	return m
}

var nanVal = func() float64 {
	var z float64
	return 0 / z // NaN without importing math here
}()

// topKMembers builds per-community member sets from a membership function
// using the paper's top-k convention.
func topKMembers(membership func(u int) []float64, numUsers, k int) [][]int {
	var members [][]int
	for u := 0; u < numUsers; u++ {
		row := membership(u)
		if members == nil {
			members = make([][]int, len(row))
		}
		idx := mathx.TopKIndices(row, k)
		for _, c := range idx {
			members[c] = append(members[c], u)
		}
	}
	return members
}

func hashName(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// avg aggregates a metric over folds, skipping NaNs.
func avg(ms []metrics, pick func(metrics) float64) float64 {
	var s float64
	var n int
	for _, m := range ms {
		v := pick(m)
		if v == v { // not NaN
			s += v
			n++
		}
	}
	if n == 0 {
		return nanVal
	}
	return s / float64(n)
}

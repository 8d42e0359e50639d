package baselines

import (
	"math"
	"sort"

	"repro/internal/logreg"
	"repro/internal/rng"
	"repro/internal/socialgraph"
	"repro/internal/sparse"
)

// CRM is the Community Role Model [15]: every user carries a latent
// community and a role; friendship links follow a stochastic blockmodel
// (intra-community links denser than inter), diffusion links follow
// community-pair strengths modulated by the diffusing user's role
// (opinion leaders diffuse more). No content is modeled (Table 4). The
// sampler is collapsed Gibbs over per-user community assignments with the
// blockmodel rates and community-pair diffusion strengths re-estimated
// each sweep, and the soft membership is the occupancy over the final
// sweeps.
type CRM struct {
	C int
	// Pi is |U| x |C| soft membership from sample occupancy.
	Pi *sparse.Dense
	// D[c][c'] is the community-pair diffusion strength.
	D *sparse.Dense
	// role[u] is the multiplicative role factor (opinion leader > 1).
	role []float64
	pIn  float64
	pOut float64
}

// CRMConfig bundles training knobs.
type CRMConfig struct {
	NumCommunities int
	Iters          int // Gibbs sweeps (default 40)
	SoftSweeps     int // final sweeps accumulated into Pi (default 10)
	Seed           uint64
}

// TrainCRM fits the model on graph g.
func TrainCRM(g *socialgraph.Graph, cfg CRMConfig) *CRM {
	if cfg.Iters == 0 {
		cfg.Iters = 40
	}
	if cfg.SoftSweeps == 0 {
		cfg.SoftSweeps = 10
	}
	if cfg.SoftSweeps > cfg.Iters {
		cfg.SoftSweeps = cfg.Iters
	}
	C := cfg.NumCommunities
	r := rng.New(cfg.Seed)
	m := &CRM{C: C, Pi: sparse.NewDense(g.NumUsers, C), D: sparse.NewDense(C, C)}

	// Role assignment: users in the top activeness quintile are opinion
	// leaders with a fixed diffusion boost.
	m.role = make([]float64, g.NumUsers)
	acts := make([]float64, g.NumUsers)
	for u := range acts {
		acts[u] = g.Activeness(u)
		m.role[u] = 1
	}
	sorted := append([]float64(nil), acts...)
	sort.Float64s(sorted)
	cut := sorted[int(float64(len(sorted))*0.8)]
	for u := range acts {
		if acts[u] >= cut && cut > 0 {
			m.role[u] = 1.5
		}
	}

	// User-level diffusion multigraph: u diffuses v (by document links).
	type pair struct{ u, v int32 }
	var diffPairs []pair
	for _, e := range g.Diffs {
		diffPairs = append(diffPairs, pair{g.Docs[e.I].User, g.Docs[e.J].User})
	}
	diffOut := make([][]int32, g.NumUsers) // partner users u diffuses
	diffIn := make([][]int32, g.NumUsers)  // partner users diffusing u
	for _, p := range diffPairs {
		diffOut[p.u] = append(diffOut[p.u], p.v)
		diffIn[p.v] = append(diffIn[p.v], p.u)
	}

	assign := make([]int32, g.NumUsers)
	count := make([]float64, C)
	for u := range assign {
		c := int32(r.Intn(C))
		assign[u] = c
		count[c]++
	}

	logw := make([]float64, C)
	dCount := sparse.NewDense(C, C)
	for iter := 0; iter < cfg.Iters; iter++ {
		// Re-estimate blockmodel rates and diffusion strengths from the
		// current assignment.
		var intra, inter float64
		for _, f := range g.Friends {
			if assign[f.U] == assign[f.V] {
				intra++
			} else {
				inter++
			}
		}
		var intraPairs float64
		for c := 0; c < C; c++ {
			intraPairs += count[c] * (count[c] - 1)
		}
		totalPairs := float64(g.NumUsers) * float64(g.NumUsers-1)
		m.pIn = (intra + 1) / (intraPairs + 2)
		m.pOut = (inter + 1) / (totalPairs - intraPairs + 2)
		if m.pIn <= m.pOut {
			m.pIn = m.pOut * 1.0001 // keep the log-odds defined
		}
		logOdds := math.Log(m.pIn / m.pOut)
		// Bootstrap: from a random start the estimated rates are nearly
		// equal, so the likelihood has no gradient and the size prior
		// collapses everyone into one community. Assume assortativity and
		// ignore the (equally uninformed) diffusion strengths for the first
		// third of the sweeps.
		bootstrap := iter < cfg.Iters/3
		if bootstrap && logOdds < 2 {
			logOdds = 2
		}
		// Non-link term of the Bernoulli blockmodel: being in community c
		// also means NOT linking to its other members, contributing
		// log((1-pIn)/(1-pOut)) per non-neighbour member. This is what
		// keeps communities from snowballing.
		nonLink := math.Log((1 - m.pIn) / (1 - m.pOut))
		if bootstrap && nonLink > -0.05 {
			nonLink = -0.05
		}

		dCount.Fill(0)
		for _, p := range diffPairs {
			dCount.Add(int(assign[p.u]), int(assign[p.v]), 1)
		}
		const dSmooth = 0.1
		for c := 0; c < C; c++ {
			row := dCount.Row(c)
			var tot float64
			for _, v := range row {
				tot += v
			}
			den := tot + dSmooth*float64(C)
			dst := m.D.Row(c)
			for c2 := 0; c2 < C; c2++ {
				dst[c2] = (row[c2] + dSmooth) / den
			}
		}

		// Gibbs sweep over users. The community prior is uniform: a global
		// size prior (CRP-style) is an absorbing attractor at this scale —
		// one giant community swallows everything before the blockmodel
		// likelihood can form structure.
		for u := 0; u < g.NumUsers; u++ {
			cOld := assign[u]
			count[cOld]--
			for c := 0; c < C; c++ {
				logw[c] = count[c] * nonLink
			}
			for _, v := range g.FriendNeighbors(u) {
				cv := assign[v]
				logw[cv] += logOdds - nonLink // a linked member is not a non-link
			}
			if !bootstrap {
				for _, v := range diffOut[u] {
					cv := int(assign[v])
					for c := 0; c < C; c++ {
						logw[c] += math.Log(m.D.At(c, cv)*m.role[u] + 1e-9)
					}
				}
				for _, v := range diffIn[u] {
					cv := int(assign[v])
					for c := 0; c < C; c++ {
						logw[c] += math.Log(m.D.At(cv, c)*m.role[v] + 1e-9)
					}
				}
			}
			cNew := int32(r.CategoricalLog(logw))
			assign[u] = cNew
			count[cNew]++
			if iter >= cfg.Iters-cfg.SoftSweeps {
				m.Pi.Add(u, int(cNew), 1)
			}
		}
	}
	// Occupancy → smoothed soft membership.
	for u := 0; u < g.NumUsers; u++ {
		row := m.Pi.Row(u)
		for c := range row {
			row[c] += 0.1
		}
	}
	m.Pi.NormalizeRows()
	return m
}

// Membership returns user u's soft community membership.
func (m *CRM) Membership(u int) []float64 { return m.Pi.Row(u) }

// FriendshipScore scores a potential friendship link by the blockmodel
// rate expected under the soft memberships.
func (m *CRM) FriendshipScore(u, v int) float64 {
	var same float64
	pu, pv := m.Pi.Row(u), m.Pi.Row(v)
	for c := 0; c < m.C; c++ {
		same += pu[c] * pv[c]
	}
	return same*m.pIn + (1-same)*m.pOut
}

// DiffusionScore scores doc i diffusing doc j via the role-modulated
// community-pair strengths of the two documents' users.
func (m *CRM) DiffusionScore(g *socialgraph.Graph, i, j int) float64 {
	u := int(g.Docs[i].User)
	v := int(g.Docs[j].User)
	pu, pv := m.Pi.Row(u), m.Pi.Row(v)
	var s float64
	for c := 0; c < m.C; c++ {
		if pu[c] < 1e-4 {
			continue
		}
		row := m.D.Row(c)
		var t float64
		for c2 := 0; c2 < m.C; c2++ {
			t += row[c2] * pv[c2]
		}
		s += pu[c] * t
	}
	return s * m.role[u]
}

// trainLogistic is a thin wrapper over logreg for baselines that learn
// pairwise weights.
func trainLogistic(x [][]float64, y []int, iters int) []float64 {
	m, err := logreg.Train(x, nil, y, logreg.Config{Iters: iters})
	if err != nil || m == nil {
		return make([]float64, len(x[0]))
	}
	return m.W
}

// Package apps implements the paper's three community-level applications
// (Sect. 5) on top of a trained CPD model: community-aware diffusion
// prediction (Eq. 18), profile-driven community ranking (Eq. 19) and
// profile-driven community visualization (the Fig. 7 diffusion graphs,
// exported as DOT; the HTTP surface's /api/graph also encodes them as JSON).
package apps

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/socialgraph"
)

// RankedCommunity is one entry of a community ranking.
type RankedCommunity struct {
	Community int
	Score     float64
}

// RankCommunities scores all communities for a query (word ids) with
// Eq. 19 and returns them in descending score order.
func RankCommunities(m *core.Model, query []int32) []RankedCommunity {
	scores := m.RankCommunities(query)
	out := make([]RankedCommunity, len(scores))
	for c, s := range scores {
		out[c] = RankedCommunity{Community: c, Score: s}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	return out
}

// RankCommunitiesText tokenizes a free-text query through the given
// pipeline and vocabulary (unknown words are dropped) and ranks
// communities. It returns an error if no query word is in the vocabulary.
func RankCommunitiesText(m *core.Model, vocab *corpus.Vocabulary, p corpus.Pipeline, query string) ([]RankedCommunity, error) {
	var ids []int32
	for _, tok := range p.Process(query) {
		if id, ok := vocab.ID(tok); ok {
			ids = append(ids, int32(id))
		}
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("apps: no query token of %q is in the vocabulary", query)
	}
	return RankCommunities(m, ids), nil
}

// DiffusionProb predicts whether user u will diffuse document j in time
// bucket b (Eq. 18) — the community-aware diffusion application.
func DiffusionProb(m *core.Model, g *socialgraph.Graph, u, j, b int) float64 {
	return m.DiffusionProb(g, u, j, b)
}

// DiffusionEdge is one community-to-community edge of a visualization.
type DiffusionEdge struct {
	From, To int
	Strength float64
}

// DiffusionGraph is the Fig. 7 visualization payload: one node per
// community (labeled with its top content words when a vocabulary is
// supplied) and the above-average diffusion edges.
type DiffusionGraph struct {
	Topic  int // -1 for topic aggregation
	Labels []string
	Edges  []DiffusionEdge
}

// BuildDiffusionGraph extracts the community diffusion graph for topic z
// (z = -1 aggregates over topics, Fig. 7(a)); edges below the mean
// strength are skipped, exactly as the paper does "for simpler
// visualization". vocab may be nil, in which case nodes are labeled c01,
// c02, ...
func BuildDiffusionGraph(m *core.Model, vocab *corpus.Vocabulary, z int) *DiffusionGraph {
	C := m.Cfg.NumCommunities
	strength := func(a, b int) float64 {
		if z < 0 {
			var s float64
			for zz := 0; zz < m.Cfg.NumTopics; zz++ {
				s += m.Eta.At(a, b, zz)
			}
			return s
		}
		return m.Eta.At(a, b, z)
	}
	var total float64
	for a := 0; a < C; a++ {
		for b := 0; b < C; b++ {
			total += strength(a, b)
		}
	}
	mean := total / float64(C*C)
	dg := &DiffusionGraph{Topic: z, Labels: make([]string, C)}
	for c := 0; c < C; c++ {
		dg.Labels[c] = CommunityLabel(m, vocab, c, 3)
	}
	for a := 0; a < C; a++ {
		for b := 0; b < C; b++ {
			if s := strength(a, b); s > mean {
				dg.Edges = append(dg.Edges, DiffusionEdge{From: a, To: b, Strength: s})
			}
		}
	}
	sort.Slice(dg.Edges, func(i, j int) bool { return dg.Edges[i].Strength > dg.Edges[j].Strength })
	return dg
}

// CommunityLabel names a community by the top words of its dominant topic
// ("data database search" style, as in Sect. 6.3.3), or "cNN" without a
// vocabulary.
func CommunityLabel(m *core.Model, vocab *corpus.Vocabulary, c, words int) string {
	if vocab == nil {
		return fmt.Sprintf("c%02d", c)
	}
	theta := m.Theta.Row(c)
	best := 0
	for z := 1; z < m.Cfg.NumTopics; z++ {
		if theta[z] > theta[best] {
			best = z
		}
	}
	var parts []string
	for _, w := range m.TopWords(best, words) {
		parts = append(parts, vocab.Word(w))
	}
	return strings.Join(parts, " ")
}

// WriteDOT renders the diffusion graph in Graphviz DOT format, with edge
// pen widths proportional to diffusion strength.
func (dg *DiffusionGraph) WriteDOT(w io.Writer) error {
	var maxS float64
	for _, e := range dg.Edges {
		if e.Strength > maxS {
			maxS = e.Strength
		}
	}
	if maxS == 0 {
		maxS = 1
	}
	if _, err := fmt.Fprintln(w, "digraph diffusion {"); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "  node [shape=ellipse fontsize=10];"); err != nil {
		return err
	}
	seen := map[int]bool{}
	for _, e := range dg.Edges {
		seen[e.From] = true
		seen[e.To] = true
	}
	for c, label := range dg.Labels {
		if !seen[c] {
			continue
		}
		if _, err := fmt.Fprintf(w, "  c%02d [label=%q];\n", c, fmt.Sprintf("c%02d: %s", c, label)); err != nil {
			return err
		}
	}
	for _, e := range dg.Edges {
		width := 0.5 + 4*e.Strength/maxS
		if _, err := fmt.Fprintf(w, "  c%02d -> c%02d [penwidth=%.2f label=\"%.4f\" fontsize=8];\n",
			e.From, e.To, width, e.Strength); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}

// Openness returns, per community, the count of above-average edges it
// shares with *other* communities in the aggregated diffusion graph — the
// paper's Sect. 6.3.3 observation that some research communities are more
// "open" than others.
func Openness(m *core.Model) []int {
	dg := BuildDiffusionGraph(m, nil, -1)
	open := make([]int, m.Cfg.NumCommunities)
	for _, e := range dg.Edges {
		if e.From != e.To {
			open[e.From]++
			open[e.To]++
		}
	}
	return open
}

// EtaBase is community c's η base: the smallest cell of its row over
// (c', z). The M-step gives every cell no diffusion link supports exactly
// this value (the smoothing over den_c, core/mstep.go), so a cell
// bit-equal to it records no observed diffusion.
func EtaBase(m *core.Model, c int) float64 {
	n := m.Eta.D2 * m.Eta.D3
	return slices.Min(m.Eta.Data[c*n : (c+1)*n])
}

// EtaBases is every community's EtaBase, indexed by community: what a
// caller listing many pairs computes once and hands TopDiffusionTopicsAbove.
func EtaBases(m *core.Model) []float64 {
	bases := make([]float64, m.Eta.D1)
	for c := range bases {
		bases[c] = EtaBase(m, c)
	}
	return bases
}

// TopDiffusionTopics lists the topics community a diffuses community b on,
// strongest first (ties by topic id), at most k — Fig. 5(c)'s case-study
// table. Cells at a's η base are not listed: a pair no diffusion link
// supports returns nothing.
func TopDiffusionTopics(m *core.Model, a, b, k int) []RankedCommunity {
	return TopDiffusionTopicsAbove(m, EtaBase(m, a), a, b, k)
}

// TopDiffusionTopicsAbove is TopDiffusionTopics with a's η base supplied
// (EtaBase(m, a), e.g. from EtaBases), so listing every pair of a
// community does not rescan a's |C|·|Z| row for each.
func TopDiffusionTopicsAbove(m *core.Model, aBase float64, a, b, k int) []RankedCommunity {
	base := math.Float64bits(aBase)
	var out []RankedCommunity
	for z := 0; z < m.Cfg.NumTopics; z++ {
		if v := m.Eta.At(a, b, z); math.Float64bits(v) != base {
			out = append(out, RankedCommunity{Community: z, Score: v})
		}
	}
	slices.SortStableFunc(out, func(x, y RankedCommunity) int { return cmp.Compare(y.Score, x.Score) })
	return out[:min(k, len(out))]
}

package exp

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"repro/internal/apps"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/lda"
	"repro/internal/mathx"
	"repro/internal/socialgraph"
	"repro/internal/synth"
)

// querySet selects ranking queries per Sect. 6.3.2's guidelines, adapted
// to scale: single words that occur in at least minFreq diffusing
// documents, excluding the most frequent words (noise), capped at maxQ.
func querySet(g *socialgraph.Graph, minFreq, topExcluded, maxQ int) []int32 {
	isDiffusing := make([]bool, len(g.Docs))
	for _, e := range g.Diffs {
		isDiffusing[e.I] = true
	}
	freq := make(map[int32]int)
	totalFreq := make(map[int32]int)
	for i, d := range g.Docs {
		seen := make(map[int32]bool, len(d.Words))
		for _, w := range d.Words {
			if !seen[w] {
				seen[w] = true
				totalFreq[w]++
				if isDiffusing[i] {
					freq[w]++
				}
			}
		}
	}
	// Exclude the overall top-N most frequent words.
	type wc struct {
		w int32
		n int
	}
	var all []wc
	for w, n := range totalFreq {
		all = append(all, wc{w, n})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].n != all[j].n {
			return all[i].n > all[j].n
		}
		return all[i].w < all[j].w
	})
	excluded := make(map[int32]bool)
	for i := 0; i < topExcluded && i < len(all); i++ {
		excluded[all[i].w] = true
	}
	var qs []wc
	for w, n := range freq {
		if n >= minFreq && !excluded[w] {
			qs = append(qs, wc{w, n})
		}
	}
	sort.Slice(qs, func(i, j int) bool {
		if qs[i].n != qs[j].n {
			return qs[i].n > qs[j].n
		}
		return qs[i].w < qs[j].w
	})
	if len(qs) > maxQ {
		qs = qs[:maxQ]
	}
	out := make([]int32, len(qs))
	for i, q := range qs {
		out[i] = q.w
	}
	return out
}

// relevantUsers returns U*_q: users mentioning q in a diffusing document.
func relevantUsers(g *socialgraph.Graph, q int32) map[int]bool {
	isDiffusing := make([]bool, len(g.Docs))
	for _, e := range g.Diffs {
		isDiffusing[e.I] = true
	}
	rel := make(map[int]bool)
	for i, d := range g.Docs {
		if !isDiffusing[i] {
			continue
		}
		for _, w := range d.Words {
			if w == q {
				rel[int(d.User)] = true
				break
			}
		}
	}
	return rel
}

// rankingRunner bundles a trained ranking-capable model.
type rankingRunner struct {
	name    string
	scores  func(query []int32) []float64
	members [][]int
}

// trainRankingModels trains the Fig. 6 model set on the full graph.
func (o Options) trainRankingModels(g *socialgraph.Graph, c int) []rankingRunner {
	var out []rankingRunner
	seedOf := func(s string) uint64 { return o.Seed ^ uint64(c)<<3 ^ hashName(s) }

	cpd, _, err := core.Train(g, o.cpdConfig(c, core.Config{Seed: seedOf(MCPD)}))
	if err == nil {
		out = append(out, rankingRunner{MCPD, cpd.RankCommunities, cpd.CommunityMembers(5)})
	}
	cold, err := baselines.TrainCOLD(g, baselines.COLDConfig{
		NumCommunities: c, NumTopics: o.Topics, EMIters: o.EMIters,
		Workers: o.Workers, Rho: o.rhoFor(c), Seed: seedOf(MCOLD),
	})
	if err == nil {
		out = append(out, rankingRunner{MCOLD, cold.RankScores, cold.Model.CommunityMembers(5)})
	}
	docs := make([][]int32, len(g.Docs))
	for i := range g.Docs {
		docs[i] = g.Docs[i].Words
	}
	sharedLDA := lda.Train(docs, g.NumWords, lda.Config{NumTopics: o.Topics, Iters: 30, Seed: o.Seed ^ 0x5E6})
	docTheta := make([][]float64, len(g.Docs))
	for i := range g.Docs {
		docTheta[i] = sharedLDA.DocTopics(i)
	}
	if err == nil {
		agg := baselines.Aggregate(g, cold.Model.Pi, sharedLDA, docTheta)
		out = append(out, rankingRunner{MCOLDAgg, agg.RankScores, topKMembers(cold.Membership, g.NumUsers, 5)})
	}
	crm := baselines.TrainCRM(g, baselines.CRMConfig{NumCommunities: c, Iters: o.EMIters * 2, Seed: seedOf(MCRM)})
	aggCRM := baselines.Aggregate(g, crm.Pi, sharedLDA, docTheta)
	out = append(out, rankingRunner{MCRMAgg, aggCRM.RankScores, topKMembers(crm.Membership, g.NumUsers, 5)})
	return out
}

// RunFigure6 regenerates the profile-driven community ranking comparison
// (Fig. 6): MAF@K for K = 1..20 on both datasets, for the community
// sweep's middle values (the paper shows |C| = 50 and 100).
func RunFigure6(o Options) []*Table {
	o = o.withDefaults()
	ks := []int{1, 3, 5, 10, 15, 20}
	var tables []*Table
	for _, ds := range []*Dataset{TwitterDataset(o), DBLPDataset(o)} {
		queries := querySet(ds.Graph, 8, 25, 40)
		if len(queries) == 0 {
			continue
		}
		for _, c := range rankingSweep(o) {
			runners := o.trainRankingModels(ds.Graph, c)
			t := &Table{
				Title:  fmt.Sprintf("Fig 6 community ranking MAF@K — %s, |C|=%d (%d queries)", ds.Name, c, len(queries)),
				Header: append([]string{"model \\ K"}, intHeaders(ks)...),
			}
			for _, rr := range runners {
				mafs := o.rankingCurve(ds.Graph, rr, queries, 20)
				row := []string{rr.name}
				for _, k := range ks {
					row = append(row, f3(mafs[k-1]))
				}
				t.AddRow(row...)
			}
			tables = append(tables, t)
		}
	}
	return tables
}

// rankingSweep picks up to two |C| values for the ranking experiments.
func rankingSweep(o Options) []int {
	sw := o.CommunitySweep
	if len(sw) <= 2 {
		return sw
	}
	return []int{sw[1], sw[2]}
}

// rankingCurve computes the MAF@K curve of one model over the query set.
func (o Options) rankingCurve(g *socialgraph.Graph, rr rankingRunner, queries []int32, maxK int) []float64 {
	var perQP, perQR [][]float64
	for _, q := range queries {
		rel := relevantUsers(g, q)
		if len(rel) == 0 {
			continue
		}
		scores := rr.scores([]int32{q})
		order := mathx.TopKIndices(scores, len(scores))
		ranked := make([][]int, len(order))
		for i, c := range order {
			ranked[i] = rr.members[c]
		}
		p, r := eval.PrecisionRecallAtK(ranked, rel, maxK)
		perQP = append(perQP, p)
		perQR = append(perQR, r)
	}
	_, _, mafs := eval.MAFCurve(perQP, perQR, maxK)
	return mafs
}

// RunTable6 regenerates Table 6: the top-3 communities ranked for a single
// query, with AP/AR/AF@K and each community's dominant topics.
func RunTable6(o Options) *Table {
	o = o.withDefaults()
	ds := DBLPDataset(o)
	vocab := synth.BuildVocabulary(synth.DBLPLike(o.Scale.users(), o.Seed+1))
	queries := querySet(ds.Graph, 8, 25, 40)
	t := &Table{
		Title:  "Table 6: top three communities ranked for one query (CPD)",
		Header: []string{"K", "AP@K", "AR@K", "AF@K", "topic distribution (top 3)"},
	}
	if len(queries) == 0 {
		t.Notes = append(t.Notes, "no eligible queries at this scale")
		return t
	}
	q := queries[0]
	c := rankingSweep(o)[0]
	m, _, err := core.Train(ds.Graph, o.cpdConfig(c, core.Config{Seed: o.Seed ^ 0x7AB}))
	if err != nil {
		t.Notes = append(t.Notes, "training failed: "+err.Error())
		return t
	}
	scores := m.RankCommunities([]int32{q})
	order := mathx.TopKIndices(scores, len(scores))
	members := m.CommunityMembers(5)
	ranked := make([][]int, len(order))
	for i, cc := range order {
		ranked[i] = members[cc]
	}
	rel := relevantUsers(ds.Graph, q)
	prec, rec := eval.PrecisionRecallAtK(ranked, rel, 3)
	for k := 1; k <= 3 && k <= len(order); k++ {
		var sp, sr float64
		for i := 0; i < k; i++ {
			sp += prec[i]
			sr += rec[i]
		}
		ap, ar := sp/float64(k), sr/float64(k)
		af := 0.0
		if ap+ar > 0 {
			af = 2 * ap * ar / (ap + ar)
		}
		cc := order[k-1]
		theta := m.Theta.Row(cc)
		tops := mathx.TopKIndices(theta, 3)
		var parts []string
		for _, z := range tops {
			parts = append(parts, fmt.Sprintf("T%d:%.3f", z, theta[z]))
		}
		t.AddRow(fmt.Sprintf("%d", k), f3(ap), f3(ar), f3(af), strings.Join(parts, ", "))
	}
	t.Notes = append(t.Notes, fmt.Sprintf("query = %q, |C| = %d, %d relevant users", vocab.Word(int(q)), c, len(rel)))
	return t
}

// RunTable5 regenerates Table 5: the top words of the most-used topics.
func RunTable5(o Options) *Table {
	o = o.withDefaults()
	cfg := synth.DBLPLike(o.Scale.users(), o.Seed+1)
	ds := DBLPDataset(o)
	vocab := synth.BuildVocabulary(cfg)
	c := rankingSweep(o)[0]
	t := &Table{
		Title:  "Table 5: top four words in each topic (CPD, DBLP-like)",
		Header: []string{"topic", "word distribution (word:probability)"},
	}
	m, _, err := core.Train(ds.Graph, o.cpdConfig(c, core.Config{Seed: o.Seed ^ 0x7AB}))
	if err != nil {
		t.Notes = append(t.Notes, "training failed: "+err.Error())
		return t
	}
	// Topics ordered by usage (documents assigned).
	usage := make([]float64, o.Topics)
	for _, z := range m.DocTopic {
		usage[z]++
	}
	for _, z := range mathx.TopKIndices(usage, min(8, o.Topics)) {
		var parts []string
		for _, w := range m.TopWords(z, 4) {
			parts = append(parts, fmt.Sprintf("%s:%.3f", vocab.Word(w), m.Phi.At(z, w)))
		}
		t.AddRow(fmt.Sprintf("T%d", z), strings.Join(parts, ", "))
	}
	return t
}

// RunFigure5 regenerates the Fig. 5 case study on the DBLP-like data:
// (a) the individual factor — activeness vs papers cited, popularity vs
// citations received; (b) the topic factor — papers vs citations over
// time for one topic; (c) the community factor — top topics two
// communities cite each other on.
func RunFigure5(o Options) []*Table {
	o = o.withDefaults()
	ds := DBLPDataset(o)
	g := ds.Graph
	var tables []*Table

	// (a) individual factor: quintile bins.
	outDiff := make([]int, g.NumUsers)
	inDiff := make([]int, g.NumUsers)
	for _, e := range g.Diffs {
		outDiff[g.Docs[e.I].User]++
		inDiff[g.Docs[e.J].User]++
	}
	ta := &Table{
		Title:  "Fig 5(a) individual factor — user bins (quintiles) vs diffusion activity",
		Header: []string{"quintile", "avg #cited (by activeness bin)", "avg #citations (by popularity bin)"},
	}
	actBins := quintileMeans(g.NumUsers, func(u int) float64 { return g.Activeness(u) }, outDiff)
	popBins := quintileMeans(g.NumUsers, func(u int) float64 { return g.Popularity(u) }, inDiff)
	for q := 0; q < 5; q++ {
		ta.AddRow(fmt.Sprintf("Q%d", q+1), f3(actBins[q]), f3(popBins[q]))
	}
	ta.Notes = append(ta.Notes, "both columns should increase with the bin — active users cite more, popular users are cited more (supports the individual factor)")
	tables = append(tables, ta)

	// Train CPD once for (b) and (c).
	c := rankingSweep(o)[0]
	m, _, err := core.Train(g, o.cpdConfig(c, core.Config{Seed: o.Seed ^ 0x5CA}))
	if err != nil {
		return tables
	}

	// (b) topic factor: docs vs diffusions per time bucket for the most
	// used topic.
	usage := make([]float64, o.Topics)
	for _, z := range m.DocTopic {
		usage[z]++
	}
	zTop := mathx.TopKIndices(usage, 1)[0]
	nb := m.NumBuckets
	docsPerT := make([]int, nb)
	diffPerT := make([]int, nb)
	for i := range g.Docs {
		if int(m.DocTopic[i]) == zTop {
			docsPerT[m.DocBucket[i]]++
		}
	}
	for _, e := range g.Diffs {
		if int(m.DocTopic[e.I]) == zTop {
			diffPerT[m.DocBucket[e.I]]++
		}
	}
	tb := &Table{
		Title:  fmt.Sprintf("Fig 5(b) topic factor — #papers vs #citations over time for topic T%d", zTop),
		Header: []string{"time bucket", "#papers", "#citations"},
	}
	for b := 0; b < nb; b++ {
		if docsPerT[b] == 0 && diffPerT[b] == 0 {
			continue
		}
		tb.AddRow(fmt.Sprintf("%d", b), fmt.Sprintf("%d", docsPerT[b]), fmt.Sprintf("%d", diffPerT[b]))
	}
	tb.Notes = append(tb.Notes, fmt.Sprintf("pearson correlation = %.3f (paper: strongly positive)", pearson(docsPerT, diffPerT)))
	tables = append(tables, tb)

	// (c) community factor: top-2 ranked communities for the top query.
	queries := querySet(g, 8, 25, 40)
	if len(queries) > 0 {
		scores := m.RankCommunities(queries[:1])
		order := mathx.TopKIndices(scores, 2)
		if len(order) == 2 {
			a, b := order[0], order[1]
			tc := &Table{
				Title:  fmt.Sprintf("Fig 5(c) community factor — top topics c%02d and c%02d cite each other on", a, b),
				Header: []string{"direction", "topic", "diffusion strength"},
			}
			for _, dir := range [][2]int{{a, b}, {b, a}} {
				label := fmt.Sprintf("c%02d -> c%02d", dir[0], dir[1])
				tops := apps.TopDiffusionTopics(m, dir[0], dir[1], 5)
				for _, ts := range tops {
					tc.AddRow(label, fmt.Sprintf("T%d", ts.Community), fmt.Sprintf("%.5f", ts.Score))
				}
				if len(tops) == 0 {
					tc.AddRow(label, "(no diffusion observed)", "-")
				}
			}
			tables = append(tables, tc)
		}
	}
	return tables
}

// RunFigure7 regenerates the visualization experiment: the aggregated
// diffusion graph, one general topic and one specialized topic, plus the
// openness observation of Sect. 6.3.3. When writeFile is non-nil, DOT
// renderings are handed to it under dotDir.
func RunFigure7(o Options, dotDir string, writeFile func(name string, render func(w io.Writer) error) error) []*Table {
	o = o.withDefaults()
	cfg := synth.DBLPLike(o.Scale.users(), o.Seed+1)
	ds := DBLPDataset(o)
	vocab := synth.BuildVocabulary(cfg)
	c := rankingSweep(o)[0]
	m, _, err := core.Train(ds.Graph, o.cpdConfig(c, core.Config{Seed: o.Seed ^ 0xF16}))
	if err != nil {
		return nil
	}
	// General topic: discussed by the most communities (theta above the
	// uniform level); specialized: the fewest.
	breadth := make([]float64, o.Topics)
	uniform := 1 / float64(o.Topics)
	for z := 0; z < o.Topics; z++ {
		for cc := 0; cc < c; cc++ {
			if m.Theta.At(cc, z) > uniform {
				breadth[z]++
			}
		}
	}
	zGeneral := mathx.TopKIndices(breadth, 1)[0]
	zSpecial := zGeneral
	for z := range breadth {
		if breadth[z] > 0 && breadth[z] < breadth[zSpecial] {
			zSpecial = z
		}
	}
	var tables []*Table
	for _, spec := range []struct {
		name string
		z    int
	}{
		{"aggregated", -1},
		{fmt.Sprintf("general-topic-T%d", zGeneral), zGeneral},
		{fmt.Sprintf("specialized-topic-T%d", zSpecial), zSpecial},
	} {
		dg := apps.BuildDiffusionGraph(m, vocab, spec.z)
		t := &Table{
			Title:  fmt.Sprintf("Fig 7 diffusion visualization (%s): strongest edges", spec.name),
			Header: []string{"from", "to", "strength"},
		}
		for i, e := range dg.Edges {
			if i >= 10 {
				break
			}
			t.AddRow(fmt.Sprintf("c%02d", e.From), fmt.Sprintf("c%02d", e.To), fmt.Sprintf("%.5f", e.Strength))
		}
		t.Notes = append(t.Notes, fmt.Sprintf("%d above-average edges kept (below-average skipped, as in the paper)", len(dg.Edges)))
		if writeFile != nil && dotDir != "" {
			name := fmt.Sprintf("%s/fig7-%s.dot", dotDir, spec.name)
			if err := writeFile(name, dg.WriteDOT); err == nil {
				t.Notes = append(t.Notes, "DOT written to "+name)
			}
		}
		tables = append(tables, t)
	}
	// Openness.
	open := apps.Openness(m)
	to := &Table{
		Title:  "Fig 7 community openness (above-average inter-community edges touched)",
		Header: []string{"community", "open edges", "label"},
	}
	openF := make([]float64, len(open))
	for i, v := range open {
		openF[i] = float64(v)
	}
	for _, cc := range mathx.TopKIndices(openF, 3) {
		to.AddRow(fmt.Sprintf("c%02d (open)", cc), fmt.Sprintf("%d", open[cc]), apps.CommunityLabel(m, vocab, cc, 3))
	}
	closed := 0
	for cc := range open {
		if open[cc] < open[closed] {
			closed = cc
		}
	}
	to.AddRow(fmt.Sprintf("c%02d (closed)", closed), fmt.Sprintf("%d", open[closed]), apps.CommunityLabel(m, vocab, closed, 3))
	tables = append(tables, to)
	return tables
}

func quintileMeans(n int, key func(int) float64, val []int) [5]float64 {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return key(idx[i]) < key(idx[j]) })
	var out [5]float64
	for q := 0; q < 5; q++ {
		lo, hi := q*n/5, (q+1)*n/5
		var s float64
		for _, u := range idx[lo:hi] {
			s += float64(val[u])
		}
		if hi > lo {
			out[q] = s / float64(hi-lo)
		}
	}
	return out
}

func pearson(a, b []int) float64 {
	n := len(a)
	if n == 0 || n != len(b) {
		return math.NaN()
	}
	var ma, mb float64
	for i := range a {
		ma += float64(a[i])
		mb += float64(b[i])
	}
	ma /= float64(n)
	mb /= float64(n)
	var cov, va, vb float64
	for i := range a {
		da, db := float64(a[i])-ma, float64(b[i])-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

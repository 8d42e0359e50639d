package exp

import (
	"fmt"

	"repro/internal/eval"
)

// RunTable3 regenerates Table 3 (dataset statistics) for the synthetic
// datasets, printing the paper's original numbers alongside for scale
// context.
func RunTable3(o Options) *Table {
	o = o.withDefaults()
	t := &Table{
		Title:  "Table 3: data set statistics (synthetic reproduction; paper's originals in parentheses)",
		Header: []string{"dataset", "#(user)", "#(friend. link)", "#(diff. link)", "#(doc.)", "#(word)"},
	}
	tw := TwitterDataset(o)
	db := DBLPDataset(o)
	st := tw.Graph.Stats()
	t.AddRow("Twitter-like", fmt.Sprintf("%d (137,325)", st.Users),
		fmt.Sprintf("%d (3,589,811)", st.FriendLinks),
		fmt.Sprintf("%d (992,522)", st.DiffLinks),
		fmt.Sprintf("%d (39,952,379)", st.Docs),
		fmt.Sprintf("%d (2,316,020)", st.Words))
	sd := db.Graph.Stats()
	t.AddRow("DBLP-like", fmt.Sprintf("%d (916,907)", sd.Users),
		fmt.Sprintf("%d (3,063,186)", sd.FriendLinks),
		fmt.Sprintf("%d (10,210,652)", sd.DiffLinks),
		fmt.Sprintf("%d (4,121,213)", sd.Docs),
		fmt.Sprintf("%d (330,334)", sd.Words))
	t.Notes = append(t.Notes,
		"shape preserved: Twitter has |E| < |F| and many docs/user; DBLP has |E| > |F| (citations denser than co-authorship)")
	return t
}

// metricSpec names one grid metric.
type metricSpec struct {
	what string
	pick func(metrics) float64
}

var (
	condSpec = metricSpec{"community detection (conductance, lower=better)", func(m metrics) float64 { return m.cond }}
	fAUCSpec = metricSpec{"friendship link prediction (AUC, higher=better)", func(m metrics) float64 { return m.fAUC }}
	dAUCSpec = metricSpec{"diffusion link prediction (AUC, higher=better)", func(m metrics) float64 { return m.dAUC }}
	perpSpec = metricSpec{"content profile perplexity (lower=better)", func(m metrics) float64 { return m.perp }}
)

// gridTable renders one metric for a model subset out of grid results.
func (o Options) gridTable(title string, res gridResult, models []string, spec metricSpec, oneDecimal bool) *Table {
	t := &Table{
		Title:  title,
		Header: append([]string{"model \\ |C|"}, intHeaders(o.CommunitySweep)...),
	}
	fmtF := f3
	if oneDecimal {
		fmtF = f1
	}
	for _, name := range models {
		present := false
		for _, c := range o.CommunitySweep {
			if len(res[c][name]) > 0 {
				present = true
			}
		}
		if !present {
			continue
		}
		row := []string{name}
		for _, c := range o.CommunitySweep {
			row = append(row, fmtF(avg(res[c][name], spec.pick)))
		}
		t.AddRow(row...)
	}
	return t
}

// fig3Models / fig3ncModels / fig4Models / fig8Models / fig9Models are the
// per-figure model subsets.
var (
	fig3Models   = []string{MNoHet, MNoJoint, MCPD}
	fig3ncModels = []string{MNoIndTop, MNoTopic, MCPD}
	fig8Models   = []string{MCOLDAgg, MCRMAgg, MCPD}
	fig9Models   = []string{MPMTLM, MCRM, MCOLD, MCPD}
)

func fig4Models(dataset string) []string {
	models := []string{MWTM, MCRM, MCOLD, MCRMAgg, MCOLDAgg, MCPD}
	if dataset == "DBLP" {
		// PMTLM runs only on the citation-flavoured data, as in the paper
		// (a retweet is near-identical text, which degenerates PMTLM's
		// document-similarity link model).
		models = append([]string{MPMTLM}, models...)
	}
	return models
}

// unionModels is every grid model (for the shared all-figures run).
func unionModels(dataset string) []string {
	return append([]string{MNoHet, MNoJoint, MNoIndTop, MNoTopic, MWTM, MCRM, MCOLD, MCRMAgg, MCOLDAgg}, fig9ExtraFor(dataset)...)
}

func fig9ExtraFor(dataset string) []string {
	// PMTLM participates in Fig. 9 on both datasets for detection but in
	// Fig. 4 only on DBLP; train it everywhere in the union run.
	return []string{MPMTLM, MCPD}
}

// gridTablesFor renders every grid-based figure for one dataset's results.
func (o Options) gridTablesFor(dataset string, res gridResult) []*Table {
	var tables []*Table
	tables = append(tables,
		o.gridTable(fmt.Sprintf("Fig 3 %s — %s", condSpec.what, dataset), res, fig3Models, condSpec, false),
		o.gridTable(fmt.Sprintf("Fig 3 %s — %s", fAUCSpec.what, dataset), res, fig3Models, fAUCSpec, false),
		o.gridTable(fmt.Sprintf("Fig 3 %s — %s", dAUCSpec.what, dataset), res, fig3Models, dAUCSpec, false),
		o.gridTable(fmt.Sprintf("Fig 3(g,h) diffusion AUC with nonconformity ablations — %s", dataset), res, fig3ncModels, dAUCSpec, false),
	)
	f4 := o.gridTable(fmt.Sprintf("Fig 4 community-aware diffusion (AUC) — %s", dataset), res, fig4Models(dataset), dAUCSpec, false)
	if p, ok := significance(res, o.CommunitySweep, MCPD, fig4Models(dataset), dAUCSpec.pick); ok {
		f4.Notes = append(f4.Notes, p)
	}
	tables = append(tables, f4,
		o.gridTable(fmt.Sprintf("Fig 8 %s — %s", perpSpec.what, dataset), res, fig8Models, perpSpec, true),
		o.gridTable(fmt.Sprintf("Fig 9 %s — %s", condSpec.what, dataset), res, fig9Models, condSpec, false),
		o.gridTable(fmt.Sprintf("Fig 9 %s — %s", fAUCSpec.what, dataset), res, fig9Models, fAUCSpec, false),
	)
	return tables
}

// RunGridFigures trains the union model grid ONCE per dataset and emits
// Figs. 3, 3(g,h), 4, 8 and 9 — the efficient path cmd/cpd-experiments
// uses for -exp all.
func RunGridFigures(o Options) []*Table {
	o = o.withDefaults()
	var tables []*Table
	for _, ds := range []*Dataset{TwitterDataset(o), DBLPDataset(o)} {
		res := o.runGrid(ds, unionModels(ds.Name))
		tables = append(tables, o.gridTablesFor(ds.Name, res)...)
	}
	return tables
}

// RunFigure3 regenerates the model-design study, Fig. 3(a)-(f): community
// detection conductance, friendship link prediction AUC and diffusion link
// prediction AUC versus |C| for full CPD against the "no joint modeling"
// and "no heterogeneity" ablations, on both datasets.
func RunFigure3(o Options) []*Table {
	o = o.withDefaults()
	var tables []*Table
	for _, ds := range []*Dataset{TwitterDataset(o), DBLPDataset(o)} {
		res := o.runGrid(ds, fig3Models)
		tables = append(tables,
			o.gridTable(fmt.Sprintf("Fig 3 %s — %s", condSpec.what, ds.Name), res, fig3Models, condSpec, false),
			o.gridTable(fmt.Sprintf("Fig 3 %s — %s", fAUCSpec.what, ds.Name), res, fig3Models, fAUCSpec, false),
			o.gridTable(fmt.Sprintf("Fig 3 %s — %s", dAUCSpec.what, ds.Name), res, fig3Models, dAUCSpec, false),
		)
	}
	return tables
}

// RunFigure3Nonconformity regenerates Fig. 3(g)-(h): diffusion AUC for the
// nonconformity ablations ("no individual & topic", "no topic") against
// full CPD.
func RunFigure3Nonconformity(o Options) []*Table {
	o = o.withDefaults()
	var tables []*Table
	for _, ds := range []*Dataset{TwitterDataset(o), DBLPDataset(o)} {
		res := o.runGrid(ds, fig3ncModels)
		tables = append(tables,
			o.gridTable(fmt.Sprintf("Fig 3(g,h) diffusion AUC with nonconformity ablations — %s", ds.Name), res, fig3ncModels, dAUCSpec, false))
	}
	return tables
}

// RunFigure4 regenerates the community-aware diffusion comparison, Fig. 4:
// diffusion AUC versus |C| for CPD against the published baselines and the
// two aggregation baselines.
func RunFigure4(o Options) []*Table {
	o = o.withDefaults()
	var tables []*Table
	for _, ds := range []*Dataset{TwitterDataset(o), DBLPDataset(o)} {
		models := fig4Models(ds.Name)
		res := o.runGrid(ds, models)
		t := o.gridTable(fmt.Sprintf("Fig 4 community-aware diffusion (AUC) — %s", ds.Name), res, models, dAUCSpec, false)
		if p, ok := significance(res, o.CommunitySweep, MCPD, models, dAUCSpec.pick); ok {
			t.Notes = append(t.Notes, p)
		}
		tables = append(tables, t)
	}
	return tables
}

// RunFigure8 regenerates the perplexity comparison (Fig. 8's table): CPD's
// content profiles versus the aggregated profiles of COLD+Agg and CRM+Agg,
// per |C|. Lower is better.
func RunFigure8(o Options) []*Table {
	o = o.withDefaults()
	var tables []*Table
	for _, ds := range []*Dataset{TwitterDataset(o), DBLPDataset(o)} {
		res := o.runGrid(ds, fig8Models)
		tables = append(tables,
			o.gridTable(fmt.Sprintf("Fig 8 %s — %s", perpSpec.what, ds.Name), res, fig8Models, perpSpec, true))
	}
	return tables
}

// RunFigure9 regenerates the community detection comparison, Fig. 9:
// conductance and friendship link prediction AUC versus |C| for CPD
// against PMTLM, CRM and COLD.
func RunFigure9(o Options) []*Table {
	o = o.withDefaults()
	var tables []*Table
	for _, ds := range []*Dataset{TwitterDataset(o), DBLPDataset(o)} {
		res := o.runGrid(ds, fig9Models)
		tables = append(tables,
			o.gridTable(fmt.Sprintf("Fig 9 %s — %s", condSpec.what, ds.Name), res, fig9Models, condSpec, false),
			o.gridTable(fmt.Sprintf("Fig 9 %s — %s", fAUCSpec.what, ds.Name), res, fig9Models, fAUCSpec, false),
		)
	}
	return tables
}

func intHeaders(xs []int) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%d", x)
	}
	return out
}

// significance runs the paired one-tailed t-test of CPD against each
// baseline over folds at the largest |C| and reports the worst (largest)
// p-value.
func significance(res gridResult, sweep []int, ours string, models []string, pick func(metrics) float64) (string, bool) {
	if len(sweep) == 0 {
		return "", false
	}
	c := sweep[len(sweep)-1]
	cell := res[c]
	oursVals := foldVals(cell[ours], pick)
	worst := -1.0
	for _, name := range models {
		if name == ours {
			continue
		}
		vals := foldVals(cell[name], pick)
		if len(vals) != len(oursVals) || len(vals) < 2 {
			continue
		}
		p, err := eval.PairedTTest(oursVals, vals)
		if err == nil && p > worst {
			worst = p
		}
	}
	if worst < 0 {
		return "", false
	}
	return fmt.Sprintf("paired one-tailed t-test of Ours vs each baseline at |C|=%d: worst p = %.4f", c, worst), true
}

func foldVals(ms []metrics, pick func(metrics) float64) []float64 {
	var out []float64
	for _, m := range ms {
		v := pick(m)
		if v == v {
			out = append(out, v)
		}
	}
	return out
}

package repro

// End-to-end integration tests: the full pipeline the cmd/ tools wire
// together — generate → serialize → reload → train → save → load → predict
// → rank → visualize — exercised through the library so every seam between
// packages is covered, including the failure paths.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/eval"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/socialgraph"
	"repro/internal/store"
	"repro/internal/synth"
)

func TestFullPipeline(t *testing.T) {
	dir := t.TempDir()

	// 1. Generate and persist a dataset + vocabulary (cpd-synth).
	cfg := synth.DBLPLike(250, 123)
	cfg.AttrVocab = 40
	cfg.AttrsPerUserMean = 2
	g, _ := synth.Generate(cfg)
	vocab := synth.BuildVocabulary(cfg)

	graphPath := filepath.Join(dir, "g.graph")
	f, err := os.Create(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	vocabPath := filepath.Join(dir, "g.vocab")
	vf, err := os.Create(vocabPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vocab.WriteTo(vf); err != nil {
		t.Fatal(err)
	}
	vf.Close()

	// 2. Reload from disk (cpd-train's input path) and check fidelity.
	rf, err := os.Open(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := socialgraph.Read(rf)
	rf.Close()
	if err != nil {
		t.Fatal(err)
	}
	if g2.Stats() != g.Stats() {
		t.Fatalf("reloaded stats %+v != original %+v", g2.Stats(), g.Stats())
	}
	if g2.NumAttrs != g.NumAttrs {
		t.Fatalf("attributes lost: %d != %d", g2.NumAttrs, g.NumAttrs)
	}

	// 3. Train with the attribute extension and persist the model.
	model, diag, err := core.Train(g2, core.Config{
		NumCommunities: 15, NumTopics: 20, EMIters: 12, Workers: 2,
		Rho: 1.0 / 15, Seed: 9, ModelAttributes: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if diag.EStepSeconds <= 0 || len(diag.SweepSeconds) == 0 {
		t.Fatalf("diagnostics empty: %+v", diag)
	}
	modelPath := filepath.Join(dir, "model.v2.snap")
	if err := store.SaveV2(modelPath, model); err != nil {
		t.Fatal(err)
	}

	// 4. Reload the model (cpd-rank / cpd-serve path).
	loaded, err := store.LoadFile(modelPath)
	if err != nil {
		t.Fatal(err)
	}

	// 5. Diffusion prediction quality survives the round trip.
	var pos, neg []float64
	for k, e := range g2.Diffs {
		if k%4 == 0 {
			pos = append(pos, loaded.DiffusionProb(g2, int(g2.Docs[e.I].User), int(e.J), loaded.DocBucket[e.I]))
		}
	}
	for _, p := range eval.SampleNegativeDocPairs(g2, len(pos), 5) {
		neg = append(neg, loaded.DiffusionProb(g2, int(g2.Docs[p[0]].User), p[1], loaded.DocBucket[p[0]]))
	}
	if auc := eval.AUC(pos, neg); auc < 0.62 {
		t.Fatalf("end-to-end diffusion AUC = %v", auc)
	}

	// 6. Text-query ranking through the vocabulary (cpd-rank).
	pipeline := corpus.Pipeline{MinDocTokens: 1}
	ranked, err := apps.RankCommunitiesText(loaded, vocab, pipeline, vocab.Word(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 15 {
		t.Fatalf("ranking returned %d communities", len(ranked))
	}

	// 7. Visualization export (what GET /api/graph serves).
	dg := apps.BuildDiffusionGraph(loaded, vocab, -1)
	var dot bytes.Buffer
	if err := dg.WriteDOT(&dot); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dot.String(), "digraph diffusion") {
		t.Fatal("DOT export malformed")
	}
	if _, err := json.Marshal(dg); err != nil {
		t.Fatal(err)
	}

	// 8. Attribute profiles made it through everything.
	if loaded.Xi == nil {
		t.Fatal("attribute profiles lost through the pipeline")
	}
	if tops := loaded.TopAttributes(0, 3); len(tops) != 3 {
		t.Fatalf("TopAttributes = %v", tops)
	}
}

// TestServingPipeline covers the online read path the serving cmds wire
// together: train → v2 snapshot (cpd-train) → serve.Engine (cpd-serve) →
// rank/membership/fold-in queries → hot-swap reload from a legacy JSON
// model file (old files keep loading).
func TestServingPipeline(t *testing.T) {
	dir := t.TempDir()
	cfg := synth.TwitterLike(120, 31)
	g, _ := synth.Generate(cfg)
	vocab := synth.BuildVocabulary(cfg)
	model, _, err := core.Train(g, core.Config{
		NumCommunities: 8, NumTopics: 10, EMIters: 6, Workers: 2, Seed: 4, Rho: 0.125,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Snapshot to disk, reload, serve.
	snapPath := filepath.Join(dir, "model.v2.snap")
	if err := store.SaveV2(snapPath, model); err != nil {
		t.Fatal(err)
	}
	loaded, err := store.LoadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	engine := serve.New(loaded, vocab, serve.Options{})
	defer engine.Close()

	res, err := engine.RankTextIn(serve.DefaultSnapshot, vocab.Word(5), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 4 || res.Version != 1 {
		t.Fatalf("rank result %+v", res)
	}
	mem, err := engine.MembershipIn(serve.DefaultSnapshot, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	if mem.Communities[0].Community != model.TopCommunity(7) {
		t.Fatalf("served membership disagrees with the trained model")
	}
	fold, err := engine.FoldInNamed(serve.DefaultSnapshot, &serve.FoldInRequest{
		Docs: [][]int32{g.Docs[0].Words, g.Docs[1].Words}, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(fold.Pi) != 8 {
		t.Fatalf("fold-in pi %v", fold.Pi)
	}

	// Hot-swap to a JSON-format model of a different shape.
	model2, _, err := core.Train(g, core.Config{
		NumCommunities: 6, NumTopics: 8, EMIters: 4, Workers: 1, Seed: 5, Rho: 0.125,
	})
	if err != nil {
		t.Fatal(err)
	}
	jsonPath := filepath.Join(dir, "model2.json")
	js, err := json.Marshal(model2)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jsonPath, js, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := engine.LoadGeneration(serve.DefaultSnapshot, jsonPath, vocab, 0); err != nil {
		t.Fatal(err)
	}
	v, release, err := engine.AcquireNamed(serve.DefaultSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if v.Version != 2 || v.Model.Cfg.NumCommunities != 6 {
		t.Fatalf("hot-swap failed: version %d |C|=%d", v.Version, v.Model.Cfg.NumCommunities)
	}
	if cs, err := engine.CommunitiesIn(serve.DefaultSnapshot); err != nil || len(cs) != 6 {
		t.Fatalf("served %d communities after swap, err %v", len(cs), err)
	}
}

func TestPipelineFailureInjection(t *testing.T) {
	// Corrupt graph file.
	if _, err := socialgraph.Read(strings.NewReader("graph 2 5\ndoc 0 1 99\n")); err == nil {
		t.Fatal("out-of-range word accepted")
	}
	// Model file truncation.
	g, _ := synth.Generate(synth.TwitterLike(80, 7))
	m, _, err := core.Train(g, core.Config{
		NumCommunities: 5, NumTopics: 6, EMIters: 3, Workers: 1, Seed: 1, Rho: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := store.EncodeV2(&buf, m); err != nil {
		t.Fatal(err)
	}
	truncated := buf.Bytes()[:buf.Len()/2]
	if _, err := store.LoadBytes(truncated); err == nil {
		t.Fatal("truncated model accepted")
	}
	// Inconsistent graph caught before training.
	bad := &socialgraph.Graph{NumUsers: 2, NumWords: 3,
		Docs:  []socialgraph.Doc{{User: 0, Words: []int32{0}}},
		Diffs: []socialgraph.DiffLink{{I: 0, J: 5}},
	}
	if _, _, err := core.Train(bad, core.Config{NumCommunities: 2, NumTopics: 2}); err == nil {
		t.Fatal("dangling diffusion link accepted")
	}
}

func TestSubsampledTrainingStillWorks(t *testing.T) {
	// The Fig. 10 path: training must stay healthy on subsampled graphs.
	g, _ := synth.Generate(synth.TwitterLike(300, 55))
	sub := socialgraph.Subsample(g, 0.4, 9)
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
	_, diag, err := core.Train(sub, core.Config{
		NumCommunities: 10, NumTopics: 10, EMIters: 4, Workers: 2, Seed: 3, Rho: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(diag.WorkerActual) != 2 {
		t.Fatalf("parallel diagnostics missing: %+v", diag)
	}
}

// TestScenarioHarnessPipeline exercises the workload harness through its
// public seam the way CI's scenario job does: one preset runs the full
// train→snapshot→serve→query regression (with the HTTP pass), its metrics
// match the committed golden file, and the load generator then replays a
// mixed closed-loop workload against a served model without errors.
func TestScenarioHarnessPipeline(t *testing.T) {
	p, err := scenario.Lookup("citation-web")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := scenario.Run(p, scenario.RunOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	golden, err := scenario.ReadGolden(filepath.Join("internal", "scenario", scenario.GoldenPath(p.Name)))
	if err != nil {
		t.Fatal(err)
	}
	if err := scenario.CompareGolden(metrics, golden); err != nil {
		t.Fatal(err)
	}

	// Load-generate against a model trained on the same bundle.
	b, err := scenario.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	model, _, err := core.Train(b.Graph, p.Train)
	if err != nil {
		t.Fatal(err)
	}
	engine := serve.New(model, b.Vocab, serve.Options{})
	defer engine.Close()
	rep, err := scenario.RunLoad(scenario.EngineTarget{Engine: engine}, scenario.LoadOptions{
		Space: scenario.SpaceFromModel(model), Requests: 500, Concurrency: 4, Seed: 13,
		FoldInSweeps: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 500 || rep.Errors != 0 {
		t.Fatalf("load run: %d requests, %d errors", rep.Requests, rep.Errors)
	}
	if rep.QPS <= 0 {
		t.Fatalf("no throughput measured: %+v", rep)
	}
	for op, s := range rep.Ops {
		if s.P50 > s.P99 || s.P99 > s.Max {
			t.Fatalf("%s latency percentiles not monotone: %+v", op, s)
		}
	}
}

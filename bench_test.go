package repro

// One benchmark per table and figure of the paper's evaluation section
// (Sect. 6), each driving the same harness code cmd/cpd-experiments runs at
// full scale — plus micro-benchmarks for the performance-critical pieces
// the figures depend on (the Gibbs sweep, the Pólya-Gamma sampler, the
// sparse bilinear forms, prediction). Benchmark scale is deliberately small
// (Tiny preset, 2 folds) so `go test -bench=. -benchmem` finishes in
// minutes; run cmd/cpd-experiments at -scale medium for full-scale runs.

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/synth"
)

func benchOptions() exp.Options {
	return exp.Options{
		Scale:          exp.Tiny,
		Folds:          2,
		EMIters:        8,
		Workers:        1,
		CommunitySweep: []int{8, 12},
		Topics:         12,
		Seed:           2017,
	}
}

func drainTables(b *testing.B, tabs []*exp.Table) {
	b.Helper()
	if len(tabs) == 0 {
		b.Fatal("experiment produced no tables")
	}
	for _, t := range tabs {
		t.Fprint(io.Discard)
	}
}

// BenchmarkTable3DatasetStats regenerates Table 3 (dataset statistics).
func BenchmarkTable3DatasetStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		drainTables(b, []*exp.Table{exp.RunTable3(benchOptions())})
	}
}

// BenchmarkFigure3ModelDesign regenerates Fig. 3(a)-(f): the joint-modeling
// and heterogeneity ablation study.
func BenchmarkFigure3ModelDesign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		drainTables(b, exp.RunFigure3(benchOptions()))
	}
}

// BenchmarkFigure3Nonconformity regenerates Fig. 3(g)-(h): the diffusion
// factor ablations.
func BenchmarkFigure3Nonconformity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		drainTables(b, exp.RunFigure3Nonconformity(benchOptions()))
	}
}

// BenchmarkFigure4Diffusion regenerates Fig. 4: community-aware diffusion
// AUC against all baselines.
func BenchmarkFigure4Diffusion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		drainTables(b, exp.RunFigure4(benchOptions()))
	}
}

// BenchmarkFigure5CaseStudy regenerates Fig. 5: the three diffusion-factor
// case studies on the DBLP-like data.
func BenchmarkFigure5CaseStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		drainTables(b, exp.RunFigure5(benchOptions()))
	}
}

// BenchmarkTable5TopicWords regenerates Table 5: top words per topic.
func BenchmarkTable5TopicWords(b *testing.B) {
	for i := 0; i < b.N; i++ {
		drainTables(b, []*exp.Table{exp.RunTable5(benchOptions())})
	}
}

// BenchmarkFigure6Ranking regenerates Fig. 6: profile-driven community
// ranking MAF@K against the community baselines.
func BenchmarkFigure6Ranking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		drainTables(b, exp.RunFigure6(benchOptions()))
	}
}

// BenchmarkTable6QueryRanking regenerates Table 6: top communities for one
// query.
func BenchmarkTable6QueryRanking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		drainTables(b, []*exp.Table{exp.RunTable6(benchOptions())})
	}
}

// BenchmarkFigure7Visualization regenerates Fig. 7: the community diffusion
// visualizations.
func BenchmarkFigure7Visualization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		drainTables(b, exp.RunFigure7(benchOptions(), "", nil))
	}
}

// BenchmarkFigure8Perplexity regenerates Fig. 8: content profile perplexity
// against the aggregation baselines.
func BenchmarkFigure8Perplexity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		drainTables(b, exp.RunFigure8(benchOptions()))
	}
}

// BenchmarkFigure9Detection regenerates Fig. 9: community detection quality
// against the baselines.
func BenchmarkFigure9Detection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		drainTables(b, exp.RunFigure9(benchOptions()))
	}
}

// BenchmarkFigure10Scalability regenerates Fig. 10: training time vs data
// size and parallel speedup vs cores.
func BenchmarkFigure10Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		drainTables(b, exp.RunFigure10(benchOptions()))
	}
}

// BenchmarkFigure11WorkloadBalance regenerates Fig. 11: estimated vs actual
// per-worker workload under the knapsack allocation.
func BenchmarkFigure11WorkloadBalance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := exp.RunFigure11(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		drainTables(b, tables)
	}
}

// --- micro-benchmarks ----------------------------------------------------

// BenchmarkEngineSweep measures one E-step sweep of the persistent
// worker-pool engine (the unit Fig. 10 times) on the full synthetic
// Twitter graph, across logical worker counts. Results are bit-identical
// across the sub-benchmarks; only the schedule differs.
func BenchmarkEngineSweep(b *testing.B) {
	cfg := synth.TwitterLike(300, 99)
	g, _ := synth.Generate(cfg)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			eng, err := core.NewEngine(g, core.Config{
				NumCommunities: 15, NumTopics: 15, Workers: w,
				Rho: 1.0 / 15, Seed: 42,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			eng.Sweep() // warm-up
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Sweep()
			}
		})
	}
}

// BenchmarkEStep compares the E-step samplers at large K (the regime the
// alias + Metropolis–Hastings sampler targets — sub-linear in |Z| and |C|
// per draw, where the exact sampler scores every candidate's cheap terms
// and computes the full conditional only where its bounds cannot rule the
// candidate out). One op is one full sweep over the same graph, so the
// exact/alias ns/op ratio IS the per-token speedup; tokens/s makes the
// throughput comparison explicit. topic-eval-% and community-eval-% are
// Diagnostics.Lazy's evaluated shares over the engine's sweeps, warm-up
// included (zero for the alias sampler, whose document draws are
// Metropolis–Hastings steps, not Gumbel-max draws).
func BenchmarkEStep(b *testing.B) {
	g, _ := synth.Generate(synth.TwitterLike(300, 99))
	var tokens int
	for i := range g.Docs {
		tokens += len(g.Docs[i].Words)
	}
	const k = 128 // large-K regime: |C| = |Z| = 128
	for _, sampler := range []string{core.SamplerExact, core.SamplerAlias} {
		b.Run(sampler, func(b *testing.B) {
			eng, err := core.NewEngine(g, core.Config{
				NumCommunities: k, NumTopics: k, Workers: 2,
				Rho: 1.0 / k, Seed: 42, Sampler: sampler,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			eng.Sweep() // warm-up
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Sweep()
			}
			b.ReportMetric(float64(tokens)*float64(b.N)/b.Elapsed().Seconds(), "tokens/s")
			lazy := eng.Diagnostics().Lazy
			b.ReportMetric(100*lazy.Topic.Share(), "topic-eval-%")
			b.ReportMetric(100*lazy.Community.Share(), "community-eval-%")
		})
	}
}

// BenchmarkCPDTrainSerial measures one full serial training run (the unit
// of every grid cell in Figs. 3/4/8/9).
func BenchmarkCPDTrainSerial(b *testing.B) {
	cfg := synth.TwitterLike(300, 99)
	g, _ := synth.Generate(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, err := core.Train(g, core.Config{
			NumCommunities: 15, NumTopics: 15, EMIters: 8, Workers: 1,
			Rho: 1.0 / 15, Seed: uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCPDTrainParallel is the same run on all cores (Fig. 10's
// speedup numerator/denominator pair with BenchmarkCPDTrainSerial).
func BenchmarkCPDTrainParallel(b *testing.B) {
	cfg := synth.TwitterLike(300, 99)
	g, _ := synth.Generate(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, err := core.Train(g, core.Config{
			NumCommunities: 15, NumTopics: 15, EMIters: 8, Workers: 0,
			Rho: 1.0 / 15, Seed: uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiffusionPrediction measures Eq. 18 per document pair.
func BenchmarkDiffusionPrediction(b *testing.B) {
	cfg := synth.TwitterLike(300, 99)
	g, _ := synth.Generate(cfg)
	m, _, err := core.Train(g, core.Config{
		NumCommunities: 15, NumTopics: 15, EMIters: 8, Workers: 1,
		Rho: 1.0 / 15, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.DiffusionProb(g, i%g.NumUsers, i%len(g.Docs), m.DocBucket[i%len(g.Docs)])
	}
}

// BenchmarkRankCommunities measures Eq. 19 per query.
func BenchmarkRankCommunities(b *testing.B) {
	cfg := synth.TwitterLike(300, 99)
	g, _ := synth.Generate(cfg)
	m, _, err := core.Train(g, core.Config{
		NumCommunities: 15, NumTopics: 15, EMIters: 8, Workers: 1,
		Rho: 1.0 / 15, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	query := []int32{0, 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.RankCommunities(query)
	}
}

// BenchmarkBuildDiffusionGraph measures the Fig. 7 export.
func BenchmarkBuildDiffusionGraph(b *testing.B) {
	cfg := synth.TwitterLike(300, 99)
	g, _ := synth.Generate(cfg)
	m, _, err := core.Train(g, core.Config{
		NumCommunities: 15, NumTopics: 15, EMIters: 8, Workers: 1,
		Rho: 1.0 / 15, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		apps.BuildDiffusionGraph(m, nil, -1)
	}
}

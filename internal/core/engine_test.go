package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/rng"
	"repro/internal/synth"
)

// stateDiff compares the complete sampler state of two runs and returns a
// description of the first divergence, or "" when they are bit-identical.
func stateDiff(a, b *state) string {
	cmpI32 := func(name string, x, y []int32) string {
		if len(x) != len(y) {
			return fmt.Sprintf("%s: length %d vs %d", name, len(x), len(y))
		}
		for i := range x {
			if x[i] != y[i] {
				return fmt.Sprintf("%s[%d]: %d vs %d", name, i, x[i], y[i])
			}
		}
		return ""
	}
	cmpI64 := func(name string, x, y []int64) string {
		if len(x) != len(y) {
			return fmt.Sprintf("%s: length %d vs %d", name, len(x), len(y))
		}
		for i := range x {
			if x[i] != y[i] {
				return fmt.Sprintf("%s[%d]: %d vs %d", name, i, x[i], y[i])
			}
		}
		return ""
	}
	cmpU64 := func(name string, x, y []uint64) string {
		if len(x) != len(y) {
			return fmt.Sprintf("%s: length %d vs %d", name, len(x), len(y))
		}
		for i := range x {
			if x[i] != y[i] {
				return fmt.Sprintf("%s[%d]: %x vs %x", name, i, x[i], y[i])
			}
		}
		return ""
	}
	checks := []string{
		cmpI32("docC", a.docC, b.docC),
		cmpI32("docZ", a.docZ, b.docZ),
		cmpI64("nCZ", a.nCZ.data, b.nCZ.data),
		cmpI64("nCT", a.nCT.data, b.nCT.data),
		cmpI64("nZW", a.nZW.data, b.nZW.data),
		cmpI64("nZT", a.nZT.data, b.nZT.data),
		cmpI64("nTZ", a.nTZ.data, b.nTZ.data),
		cmpI64("nTT", a.nTT.data, b.nTT.data),
		cmpU64("lambda", a.lambda.bits, b.lambda.bits),
		cmpU64("lambdaNeg", a.lambdaNeg.bits, b.lambdaNeg.bits),
		cmpU64("delta", a.delta.bits, b.delta.bits),
	}
	if a.attrOn && b.attrOn {
		checks = append(checks,
			cmpI64("nCA", a.nCA.data, b.nCA.data),
			cmpI64("nCATot", a.nCATot.data, b.nCATot.data))
		for u := range a.attrC {
			if d := cmpI32(fmt.Sprintf("attrC[%d]", u), a.attrC[u], b.attrC[u]); d != "" {
				checks = append(checks, d)
				break
			}
		}
	}
	for _, d := range checks {
		if d != "" {
			return d
		}
	}
	return ""
}

// workerSweepVariants is the determinism matrix of the issue: a single
// worker, a small pool, and more goroutines than physical cores.
func workerSweepVariants() []int {
	return []int{1, 2, runtime.NumCPU() + 2}
}

// TestEngineSweepBitIdenticalAcrossWorkers asserts the engine's core
// guarantee: after any number of sweeps from the same seed, the complete
// sampler state is bit-identical for every Workers value.
func TestEngineSweepBitIdenticalAcrossWorkers(t *testing.T) {
	var ref *state
	var refLazy LazyDraws
	var refWorkers int
	for _, workers := range workerSweepVariants() {
		g := testGraph(80, 21)
		cfg := testConfig()
		cfg.Workers = workers
		e, err := NewEngine(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		const sweeps = 3
		for i := 0; i < sweeps; i++ {
			e.Sweep()
		}
		lazy := e.Diagnostics().Lazy
		if ref == nil {
			ref, refLazy, refWorkers = e.st, lazy, workers
			// One topic and one community draw per document and sweep, each
			// offered every candidate and evaluating at least one of them.
			draws := uint64(sweeps * len(g.Docs))
			for _, k := range []struct {
				name string
				got  rng.LazyStats
				dim  int
			}{{"topic", lazy.Topic, cfg.NumTopics}, {"community", lazy.Community, cfg.NumCommunities}} {
				if k.got.Considered != draws*uint64(k.dim) || k.got.Evaluated < draws || k.got.Evaluated >= k.got.Considered {
					t.Fatalf("%s draws: %+v, want %d considered and between %d and that evaluated", k.name, k.got, draws*uint64(k.dim), draws)
				}
			}
		} else {
			if d := stateDiff(ref, e.st); d != "" {
				t.Fatalf("Workers=%d diverges from Workers=%d: %s", workers, refWorkers, d)
			}
			if lazy != refLazy {
				t.Fatalf("Workers=%d counted lazy draws %+v, Workers=%d counted %+v", workers, lazy, refWorkers, refLazy)
			}
		}
		e.Close()
	}
}

// TestEngineRepackDoesNotChangeResults pins the property that makes lazy
// knapsack re-segmentation safe: packing decides only which goroutine runs
// a segment, never the sweep's outcome.
func TestEngineRepackDoesNotChangeResults(t *testing.T) {
	build := func() *Engine {
		cfg := testConfig()
		cfg.Workers = 2
		e, err := NewEngine(testGraph(80, 22), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	e1 := build()
	defer e1.Close()
	e2 := build()
	defer e2.Close()
	e1.Sweep()
	// Degenerate packing on e2: every segment on the second worker.
	var all []int
	for s := range e2.segs {
		all = append(all, s)
	}
	e2.assign = [][]int{nil, all}
	e2.Sweep()
	if d := stateDiff(e1.st, e2.st); d != "" {
		t.Fatalf("repacking changed the sweep result: %s", d)
	}
}

// TestTrainBitIdenticalAcrossWorkers runs full training — warm start,
// E-steps, both M-steps — and asserts the models match exactly, which
// implies identical log-likelihood trajectories.
func TestTrainBitIdenticalAcrossWorkers(t *testing.T) {
	var ref *Model
	var refWorkers int
	for _, workers := range workerSweepVariants() {
		g := testGraph(100, 23)
		cfg := Config{
			NumCommunities: 8, NumTopics: 10, EMIters: 4, WarmStartSweeps: 2,
			Workers: workers, Seed: 9, Rho: 0.125,
		}
		m, diag, err := Train(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if diag.Segments == 0 || len(diag.WorkerActual) != workers {
			t.Fatalf("Workers=%d: bad diagnostics %+v", workers, diag)
		}
		if ref == nil {
			ref, refWorkers = m, workers
			continue
		}
		for i := range m.DocCommunity {
			if m.DocCommunity[i] != ref.DocCommunity[i] || m.DocTopic[i] != ref.DocTopic[i] {
				t.Fatalf("Workers=%d vs %d: assignment differs at doc %d", workers, refWorkers, i)
			}
		}
		for i := range m.Nu {
			if m.Nu[i] != ref.Nu[i] {
				t.Fatalf("Workers=%d vs %d: Nu[%d] %v != %v", workers, refWorkers, i, m.Nu[i], ref.Nu[i])
			}
		}
		for u := 0; u < m.NumUsers; u += 13 {
			pr, rr := m.Pi.Row(u), ref.Pi.Row(u)
			for c := range pr {
				if pr[c] != rr[c] {
					t.Fatalf("Workers=%d vs %d: Pi[%d][%d] differs", workers, refWorkers, u, c)
				}
			}
		}
	}
}

// TestTrainDeterministicWithAttributesAndAblations covers the remaining
// sweep kinds: the attribute-extension sampler and the no-joint two-phase
// schedule must also be Workers-independent.
func TestTrainDeterministicWithAttributesAndAblations(t *testing.T) {
	attrGraph := func() *synth.Config {
		cfg := synth.TwitterLike(60, 31)
		cfg.AttrVocab = 30
		cfg.AttrsPerUserMean = 2
		return &cfg
	}
	cases := []struct {
		name string
		mod  func(*Config)
	}{
		{"attributes", func(c *Config) { c.ModelAttributes = true }},
		{"nojoint", func(c *Config) { c.NoJointModeling = true; c.EMIters = 2 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var ref *Model
			for _, workers := range []int{1, 3} {
				var g = testGraph(60, 31)
				if tc.name == "attributes" {
					g, _ = synth.Generate(*attrGraph())
				}
				cfg := Config{
					NumCommunities: 6, NumTopics: 8, EMIters: 3, WarmStartSweeps: 2,
					Workers: workers, Seed: 11, Rho: 0.2,
				}
				tc.mod(&cfg)
				m, _, err := Train(g, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if ref == nil {
					ref = m
					continue
				}
				for i := range m.DocCommunity {
					if m.DocCommunity[i] != ref.DocCommunity[i] || m.DocTopic[i] != ref.DocTopic[i] {
						t.Fatalf("workers=%d: assignment differs at doc %d", workers, i)
					}
				}
			}
		})
	}
}

// TestEngineCountersConsistentAfterParallelSweeps verifies the overlay
// flush path preserves the Gibbs counter invariant (counts == recount from
// assignments) under a multi-worker pool.
func TestEngineCountersConsistentAfterParallelSweeps(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 3
	e, err := NewEngine(testGraph(80, 24), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 3; i++ {
		e.Sweep()
	}
	checkCounters(t, e.st)
	d := e.Diagnostics()
	if len(d.SweepSeconds) != 3 || d.Segments != cfg.NumTopics {
		t.Fatalf("bad diagnostics: %+v", d)
	}
}

// TestEngineSweepUnderGOMAXPROCS1 pins the single-core regression class:
// a multi-worker pool must keep working (and stay deterministic) when the
// runtime is limited to one OS thread.
func TestEngineSweepUnderGOMAXPROCS1(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	g := testGraph(80, 21)
	cfg := testConfig()
	cfg.Workers = 4
	e, err := NewEngine(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 3; i++ {
		e.Sweep()
	}
	// Same seed as TestEngineSweepBitIdenticalAcrossWorkers' runs: a
	// single-thread schedule is just another schedule.
	cfg1 := testConfig()
	cfg1.Workers = 1
	e1, err := NewEngine(testGraph(80, 21), cfg1)
	if err != nil {
		t.Fatal(err)
	}
	defer e1.Close()
	for i := 0; i < 3; i++ {
		e1.Sweep()
	}
	if d := stateDiff(e1.st, e.st); d != "" {
		t.Fatalf("GOMAXPROCS=1 pool diverges: %s", d)
	}
}

// --- persistent pool vs per-sweep spawning ------------------------------

// sweepSpawnPerSweep reproduces the seed implementation's cost model for
// benchmarking: fresh goroutines AND fresh per-worker scratch/overlay
// allocations on every sweep.
func (e *Engine) sweepSpawnPerSweep() {
	st := e.st
	st.refreshCaches()
	e.snap.capture(st)
	var wg sync.WaitGroup
	for w := range e.assign {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ov := newOverlay(st, &e.snap)
			sc := newScratch(e.cfg, nil)
			sc.ov = ov
			for _, s := range e.assign[w] {
				sc.r = e.segs[s].r
				e.runSegment(e.segs[s], sc)
				ov.flush()
			}
		}(w)
	}
	wg.Wait()
}

func benchEngine(b *testing.B, workers int, spawn bool) {
	b.Helper()
	g, _ := synth.Generate(synth.TwitterLike(300, 99))
	e, err := NewEngine(g, Config{
		NumCommunities: 15, NumTopics: 15, Workers: workers,
		Rho: 1.0 / 15, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	e.Sweep() // warm-up: caches, overlay buffers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if spawn {
			e.sweepSpawnPerSweep()
		} else {
			e.Sweep()
		}
	}
}

// BenchmarkEStepPooled measures one E-step sweep on the persistent pool.
func BenchmarkEStepPooled(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) { benchEngine(b, w, false) })
	}
}

// BenchmarkEStepSpawnPerSweep is the seed's cost model (per-sweep goroutine
// spawning and worker-buffer allocation) on identical work, for comparison
// against BenchmarkEStepPooled.
func BenchmarkEStepSpawnPerSweep(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) { benchEngine(b, w, true) })
	}
}

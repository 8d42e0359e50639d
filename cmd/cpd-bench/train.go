package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/alias"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/rng"
	"repro/internal/socialgraph"
	"repro/internal/synth"
)

// trainScale sizes the train workload. The NMI floors are against the
// planted home communities; 0 disables them (smoke runs are too short to
// recover anything).
type trainScale struct {
	users, dims            int
	exactIters, aliasIters int
	exactNMI, aliasNMI     float64
}

const (
	graphSeed = 99
	trainSeed = 42
)

type samplerRun struct {
	name  string
	iters int
	floor float64
}

func (ts trainScale) samplers() []samplerRun {
	return []samplerRun{
		{core.SamplerExact, ts.exactIters, ts.exactNMI},
		{core.SamplerAlias, ts.aliasIters, ts.aliasNMI},
	}
}

func (ts trainScale) config(s samplerRun, workers int) core.Config {
	return core.Config{
		NumCommunities: ts.dims, NumTopics: ts.dims, Workers: workers,
		Seed: trainSeed, Sampler: s.name, EMIters: s.iters,
	}
}

// trainWorkers is the E-step pool size of every engine the workload
// builds: the process has one processor (benchProcs), and training is
// bit-identical for every pool size.
const trainWorkers = benchProcs

// modelDigest is an FNV-64 over the bits of Π, Θ, Φ and η: training with
// one seed must land on the same model every time.
func modelDigest(m *core.Model) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, block := range [][]float64{m.Pi.Data, m.Theta.Data, m.Phi.Data, m.Eta.Data} {
		for _, v := range block {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

func homeNMI(m *core.Model, gt *synth.GroundTruth) float64 {
	labels := make([]int32, m.NumUsers)
	for u := range labels {
		labels[u] = int32(m.TopCommunity(u))
	}
	return eval.NMI(labels, gt.HomeCommunity)
}

// runTrain is the train workload: core.Train on a fixed synthetic graph,
// alternating the exact and the alias sampler for as many whole calls as
// fit the run, cold start included in every one. A call is timed on the
// busy clock: it computes from start to end, so that is its wall time less
// what the hypervisor stole.
func runTrain(rc *runCtx) *result {
	res := newResult()
	ts := rc.sc.train

	var g *socialgraph.Graph
	var gt *synth.GroundTruth
	var setups []float64
	// Generating the graph takes 20 ms, so it is repeated far more often
	// than the serving set-ups to keep its median steady.
	for rep := 0; rep < 15*rc.sc.setupReps; rep++ {
		t0 := busyClock()
		g, gt = synth.Generate(synth.TwitterLike(ts.users, graphSeed))
		g.BuildIndexes()
		setups = append(setups, (busyClock() - t0).Seconds())
	}
	res.set("setup_s", "s", bestOf(setups, false), len(setups))
	tokens := 0
	for _, d := range g.Docs {
		tokens += len(d.Words)
	}
	res.Counts["users"], res.Counts["docs"], res.Counts["tokens"] = g.NumUsers, len(g.Docs), tokens

	// The samplers alternate, each call a whole core.Train, until the next
	// call would not fit the run. A traced run trains once per sampler, for
	// the quality figures and the process counters.
	samplers := ts.samplers()
	wall := make([][]float64, len(samplers))
	longest := make([]time.Duration, len(samplers))
	digests := make([]uint64, len(samplers))
	meter := startProcMeter()
	began := time.Now()
	budget := rc.duration(1)
	for call := 0; ; call++ {
		i := call % len(samplers)
		s := samplers[i]
		if call >= len(samplers) && (rc.trace || time.Since(began)+longest[i] > budget) {
			break
		}
		res.Attempted++
		runtime.GC() // every call starts from a collected heap
		t0, busy0 := time.Now(), busyClock()
		m, _, err := core.Train(g, ts.config(s, trainWorkers))
		busy := busyClock() - busy0
		d := time.Since(t0)
		if err != nil {
			res.Failed++
			res.fail("core.Train (%s): %v", s.name, err)
			return res
		}
		wall[i] = append(wall[i], busy.Seconds())
		longest[i] = max(longest[i], d)
		digest := modelDigest(m)
		if len(wall[i]) == 1 {
			digests[i] = digest
			nmi := homeNMI(m, gt)
			res.setLayer("core."+s.name+"_nmi", nmi, 0)
			fmt.Fprintf(rc.log, "train %s: digest %016x nmi %.3f\n", s.name, digest, nmi)
			if nmi < s.floor {
				res.Failed++
				res.fail("%s sampler NMI %.3f against the planted communities is below %.2f", s.name, nmi, s.floor)
			}
		} else if digest != digests[i] {
			res.Failed++
			res.fail("%s sampler digest %016x differs from the first call's %016x", s.name, digest, digests[i])
		}
	}
	meter.report(res, len(wall[0])+len(wall[1]))
	res.set("peak_rss_mb", "MB", peakRSSMB(), 0)
	res.Counts["train_calls"] = len(wall[0]) + len(wall[1])

	// One core.Train call is one segment; with a handful of calls per
	// sampler the best-segment statistic is the fastest call.
	var trained, spent float64
	for i, s := range samplers {
		w := bestOf(wall[i], false)
		work := float64(tokens * s.iters)
		res.set(s.name+"_tokens_per_s", "1/s", work/w, len(wall[i]))
		res.set(s.name+"_iter_us", "us", w/float64(s.iters)*1e6, len(wall[i]))
		trained += work
		spent += w
	}
	res.set("tokens_per_s", "1/s", trained/spent, len(wall[0]))

	if rc.trace {
		traceTrain(rc, g, res)
	}
	return res
}

// traceTrain times the training engine's public steps one by one:
// NewEngine, three RunEM(1), three Sweep() and one RunEM(0) per sampler.
// The M-step time is the engine's own Diagnostics figure for the call.
func traceTrain(rc *runCtx, g *socialgraph.Graph, res *result) {
	tr := newTracer()
	ts := rc.sc.train
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	step := 0
	timed := func(name string, fn func()) time.Duration {
		tr.trace.Store(int64(step))
		step++
		s := tr.begin(0, "core", name)
		fn()
		return tr.end(s)
	}
	var newEngine []float64
	for _, s := range ts.samplers() {
		var e *core.Engine
		var err error
		d := timed("NewEngine "+s.name, func() { e, err = core.NewEngine(g, ts.config(s, trainWorkers)) })
		if err != nil {
			res.fail("core.NewEngine (%s): %v", s.name, err)
			return
		}
		newEngine = append(newEngine, d.Seconds())
		var sweep, mstep []float64
		for i := 0; i < 3; i++ {
			var diag *core.Diagnostics
			timed("RunEM(1) "+s.name, func() { _, diag, err = e.RunEM(1) })
			if err != nil {
				e.Close()
				res.fail("RunEM (%s): %v", s.name, err)
				return
			}
			mstep = append(mstep, diag.MStepSeconds*1e3)
		}
		for i := 0; i < 3; i++ {
			sweep = append(sweep, ms(timed("Sweep "+s.name, e.Sweep)))
		}
		res.setLayer("core."+s.name+"_sweep_ms", median(sweep), len(sweep))
		res.setLayer("core."+s.name+"_mstep_ms", median(mstep), len(mstep))
		if s.name == core.SamplerExact {
			var diag *core.Diagnostics
			d := timed("RunEM(0) "+s.name, func() { _, diag, err = e.RunEM(0) })
			if err != nil {
				e.Close()
				res.fail("RunEM(0): %v", err)
				return
			}
			res.setLayer("core.refresh_build_ms", ms(d), 1)
			res.setLayer("core.segments", float64(diag.Segments), 0)
			res.setLayer("core.repacks", float64(diag.Repacks), 0)
			var maxW, sumW float64
			for _, w := range diag.WorkerActual {
				sumW += w
				maxW = math.Max(maxW, w)
			}
			if sumW > 0 {
				res.setLayer("core.worker_imbalance", maxW/(sumW/float64(len(diag.WorkerActual))), 0)
			}
		}
		e.Close()
	}
	res.setLayer("core.new_engine_s", median(newEngine), len(newEngine))

	// alias.New on 128 weights, the table size class the sampler rebuilds
	// every sweep.
	const weights, rounds = 128, 2000
	r := rng.New(rc.seed)
	ws := make([]float64, weights)
	for i := range ws {
		ws[i] = r.Float64() + 1e-3
	}
	var per []float64
	for round := 0; round < 5; round++ {
		t0 := time.Now()
		for i := 0; i < rounds; i++ {
			_ = alias.New(ws)
		}
		per = append(per, float64(time.Since(t0))/rounds/weights)
	}
	res.setLayer("alias.build_ns_per_weight", median(per), len(per))
	if err := writeSpans(filepath.Join(rc.outDir, "trace-train.jsonl"), tr.take()); err != nil {
		res.fail("writing the trace: %v", err)
	}
}

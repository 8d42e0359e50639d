package core

import (
	"reflect"
	"testing"
)

// aliasConfig is testConfig with the alias sampler selected.
func aliasConfig() Config {
	cfg := testConfig()
	cfg.Sampler = SamplerAlias
	return cfg
}

// TestExactSamplerUnchangedByAliasPlumbing is the differential test of the
// issue: with the sampler plumbing in place, Sampler "" and "exact" must
// both take the untouched exact code path and produce bit-identical
// models — which is what keeps every pre-Sampler golden fixture valid.
func TestExactSamplerUnchangedByAliasPlumbing(t *testing.T) {
	g1 := testGraph(60, 17)
	cfgDefault := testConfig()
	m1, _, err := Train(g1, cfgDefault)
	if err != nil {
		t.Fatal(err)
	}
	g2 := testGraph(60, 17)
	cfgExact := testConfig()
	cfgExact.Sampler = SamplerExact
	m2, _, err := Train(g2, cfgExact)
	if err != nil {
		t.Fatal(err)
	}
	// The Cfg block records the requested sampler string; everything the
	// sampler produced must match exactly.
	m2.Cfg.Sampler = ""
	if !reflect.DeepEqual(m1, m2) {
		t.Fatal("Sampler=\"exact\" diverges from the default exact path")
	}
}

// TestAliasTrainingDeterministicPerSeed pins MH acceptance determinism:
// the alias sampler's proposal draws and accept tests consume only the
// per-segment RNG streams, so identical seeds give identical models.
func TestAliasTrainingDeterministicPerSeed(t *testing.T) {
	m1, _, err := Train(testGraph(60, 17), aliasConfig())
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := Train(testGraph(60, 17), aliasConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m1, m2) {
		t.Fatal("alias training is not deterministic per seed")
	}
	cfg3 := aliasConfig()
	cfg3.Seed = 99
	m3, _, err := Train(testGraph(60, 17), cfg3)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(m1.DocTopic, m3.DocTopic) && reflect.DeepEqual(m1.DocCommunity, m3.DocCommunity) {
		t.Fatal("alias training ignored the seed")
	}
}

// TestAliasSweepBitIdenticalAcrossWorkers extends the engine's worker-
// count invariance to the alias sampler: proposal tables are built from
// the sweep-start snapshot and draws from per-segment streams, so packing
// must not change anything.
func TestAliasSweepBitIdenticalAcrossWorkers(t *testing.T) {
	var ref *state
	var refWorkers int
	for _, workers := range workerSweepVariants() {
		g := testGraph(80, 21)
		cfg := aliasConfig()
		cfg.Workers = workers
		e, err := NewEngine(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			e.Sweep()
		}
		if ref == nil {
			ref, refWorkers = e.st, workers
		} else if d := stateDiff(ref, e.st); d != "" {
			t.Fatalf("alias Workers=%d diverges from Workers=%d: %s", workers, refWorkers, d)
		}
		e.Close()
	}
}

// TestAliasSamplerCountersConsistent verifies the Gibbs counter invariant
// after parallel alias sweeps: every counter table must equal a recount
// from the raw assignments (the MH moves add/remove documents through the
// same overlay accessors as the exact sampler).
func TestAliasSamplerCountersConsistent(t *testing.T) {
	cfg := aliasConfig()
	cfg.Workers = 3
	e, err := NewEngine(testGraph(80, 23), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 4; i++ {
		e.Sweep()
	}
	checkCounters(t, e.st)
}

// TestAliasInvalidSamplerRejected pins Config validation.
func TestAliasInvalidSamplerRejected(t *testing.T) {
	cfg := testConfig()
	cfg.Sampler = "turbo"
	if _, err := NewEngine(testGraph(20, 3), cfg); err == nil {
		t.Fatal("unknown Sampler value accepted")
	}
}

// TestAliasResumeContinuesChain checks the resume path builds the alias
// structures: a model trained with the alias sampler resumes and keeps
// training without falling back to exact (the Cfg carries the sampler).
func TestAliasResumeContinuesChain(t *testing.T) {
	cfg := aliasConfig()
	cfg.EMIters = 3
	g := testGraph(40, 5)
	m, _, err := Train(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngineFromModel(testGraph(40, 5), m, ResumeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.st.als == nil {
		t.Fatal("resumed alias model lost its alias sampler")
	}
	if _, _, err := e.RunEM(2); err != nil {
		t.Fatal(err)
	}
	checkCounters(t, e.st)
}

// TestAliasMHStatsEqualAcrossWorkers pins the acceptance counters: each
// worker counts in its own scratch and the engine sums at the sweep
// barrier, so the totals are a property of the chain, not of the packing —
// and every proposal type is in use and accepts no more than it proposes.
func TestAliasMHStatsEqualAcrossWorkers(t *testing.T) {
	var ref MHStats
	for i, workers := range workerSweepVariants() {
		cfg := aliasConfig()
		cfg.Workers = workers
		e, err := NewEngine(testGraph(150, 99), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 3; s++ {
			e.Sweep()
		}
		got := e.Diagnostics().MH
		e.Close()
		if i == 0 {
			ref = got
			for name, s := range map[string]MHStat{
				"topic-prior": got.TopicPrior, "topic-word": got.TopicWord,
				"community-prior": got.CommunityPrior, "community-content": got.CommunityContent,
			} {
				if s.Proposed == 0 || s.Accepted > s.Proposed || s.Accepted < 0 {
					t.Fatalf("%s: %d accepted of %d proposed", name, s.Accepted, s.Proposed)
				}
				if r := s.Rate(); r < 0 || r > 1 {
					t.Fatalf("%s: rate %v", name, r)
				}
			}
		} else if got != ref {
			t.Fatalf("Workers=%d counted %+v, Workers=%d counted %+v", workers, got, workerSweepVariants()[0], ref)
		}
	}
	// The exact sampler proposes nothing.
	e, err := NewEngine(testGraph(60, 99), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.Sweep()
	if got := e.Diagnostics().MH; got != (MHStats{}) {
		t.Fatalf("exact sampler counted MH proposals: %+v", got)
	}
}

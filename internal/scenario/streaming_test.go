package scenario

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/stream"
)

// trainBundle trains a bundle's graph with the given config.
func trainBundle(b *Bundle, cfg core.Config) (*core.Model, *core.Diagnostics, error) {
	return core.Train(b.Graph, cfg)
}

// newStreamTarget stands up an engine + journal + updater over a model.
func newStreamTarget(t *testing.T, model *core.Model) (*serve.Engine, *stream.Journal, *stream.Updater) {
	t.Helper()
	engine := serve.New(model, nil, serve.Options{})
	j, err := stream.OpenJournal(filepath.Join(t.TempDir(), "events.wal"), stream.JournalOptions{})
	if err != nil {
		engine.Close()
		t.Fatal(err)
	}
	u, err := stream.NewUpdater(j, stream.Options{Engine: engine, Base: model, FoldSweeps: 5})
	if err != nil {
		j.Close()
		engine.Close()
		t.Fatal(err)
	}
	return engine, j, u
}

func TestStreamPresetRegistry(t *testing.T) {
	ps := StreamPresets()
	if len(ps) != 3 {
		t.Fatalf("expected 3 streaming presets, have %d", len(ps))
	}
	seen := map[string]bool{}
	var hasGibbs, hasFoldOnly bool
	for _, p := range ps {
		if p.Name == "" || p.Description == "" || p.Base.Name == "" {
			t.Fatalf("preset %+v incomplete", p)
		}
		if seen[p.Name] {
			t.Fatalf("duplicate streaming preset %q", p.Name)
		}
		seen[p.Name] = true
		if p.GibbsEvery > 0 {
			hasGibbs = true
		} else {
			hasFoldOnly = true
		}
		got, err := LookupStream(p.Name)
		if err != nil || got.Name != p.Name {
			t.Fatalf("LookupStream(%q) = %+v, %v", p.Name, got, err)
		}
	}
	if !hasGibbs || !hasFoldOnly {
		t.Fatal("the registry must cover both the fold-in-only and the delta-Gibbs regime")
	}
	if _, err := LookupStream("nope"); err == nil {
		t.Fatal("LookupStream accepted an unknown name")
	}
}

// TestStreamScenario drives every streaming preset end to end: journal →
// updater → publish cycles under a concurrent read hammer, checking
// freshness, replay-equals-batch (fold-in presets), the delta-Gibbs
// cadence and the full-population NMI floor.
func TestStreamScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("streaming scenarios train models; skipped in -short")
	}
	for _, p := range StreamPresets() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			start := time.Now()
			m, err := RunStream(p, RunOptions{Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: %d events over %d publishes (%d gibbs) in %v; NMI %.3f; %d reads (%d errors)",
				p.Name, m.Events, m.Publishes, m.GibbsPasses, time.Since(start).Round(time.Millisecond),
				m.NMI, m.ReadQueries, m.ReadErrors)
			if m.Events == 0 || m.Publishes == 0 {
				t.Fatalf("degenerate run: %+v", m)
			}
			if m.ReadQueries == 0 {
				t.Fatal("the concurrent read hammer never ran")
			}
		})
	}
}

// TestLoadGenIngestMix exercises the write mix end to end: a loadgen run
// with ingest ops against an engine+updater target must complete without
// errors and leave the updater with applied events.
func TestLoadGenIngestMix(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a base model; skipped in -short")
	}
	p, err := LookupStream("steady-drip")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(p.Base)
	if err != nil {
		t.Fatal(err)
	}
	// Reuse the scenario's own trained base via RunStream's pieces is
	// overkill here: a small direct training run suffices.
	base := p.Base
	base.Train.EMIters = 4
	model, _, err := trainBundle(b, base.Train)
	if err != nil {
		t.Fatal(err)
	}
	engine, j, u := newStreamTarget(t, model)
	defer engine.Close()
	defer j.Close()
	defer u.Close()

	mix, err := ParseMix("rank=3,membership=3,ingest=2,foldin=1")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunLoad(EngineTarget{Engine: engine, Updater: u}, LoadOptions{
		Mix:      mix,
		Space:    SpaceFromModel(model),
		Requests: 400,
		Seed:     11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("load run had %d errors:\n%s", rep.Errors, rep)
	}
	ing, ok := rep.Ops[OpIngest.String()]
	if !ok || ing.Count == 0 {
		t.Fatalf("no ingest ops ran: %+v", rep.Ops)
	}
	if u.Status().AppliedEvents == 0 {
		t.Fatal("updater saw no events")
	}
	// Publishing after the run folds the written docs in cleanly.
	if _, err := u.Publish(); err != nil {
		t.Fatal(err)
	}
	// A publish has now drained lag samples: a follow-up write run's
	// report must carry the publish-lag percentiles, not just counts.
	rep2, err := RunLoad(EngineTarget{Engine: engine, Updater: u}, LoadOptions{
		Mix:      mix,
		Space:    SpaceFromModel(model),
		Requests: 40,
		Seed:     12,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.PublishLag == nil || rep2.PublishLag.Count == 0 {
		t.Fatalf("write-mix report lacks publish-lag percentiles: %+v", rep2)
	}
	if !strings.Contains(rep2.String(), "publish lag") {
		t.Fatalf("report table does not render publish lag:\n%s", rep2)
	}
	if rep2.Publishes == 0 {
		t.Fatalf("report missed the publish count: %+v", rep2)
	}
}

// TestServedDiffFailsClosed: the incremental-versus-full shadow check must
// not call two engines equal when neither serves anything, and must call
// two engines serving the same model equal.
func TestServedDiffFailsClosed(t *testing.T) {
	a, b := serve.NewMulti(serve.Options{}), serve.NewMulti(serve.Options{})
	defer a.Close()
	defer b.Close()
	if diff := servedDiff(a, b, 4, 8); diff == "" {
		t.Fatal("two engines with no snapshot compared bit-identical")
	}
	m := serve.SyntheticModel(12, 4, 3, 20, 1)
	c, d := serve.New(m, nil, serve.Options{}), serve.New(m, nil, serve.Options{})
	defer c.Close()
	defer d.Close()
	if diff := servedDiff(c, d, 12, 20); diff != "" {
		t.Fatalf("one model served twice diverged: %s", diff)
	}
	if diff := servedDiff(a, c, 12, 20); diff == "" {
		t.Fatal("an empty engine compared bit-identical to a serving one")
	}
}

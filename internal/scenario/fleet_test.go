package scenario

import (
	"testing"
	"time"
)

func TestFleetPresetRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range FleetPresets() {
		if p.Name == "" || p.Description == "" || p.Base.Name == "" || p.Shards < 1 || p.Replicas < 1 || p.Shards*p.Replicas < 2 {
			t.Fatalf("preset %+v incomplete", p)
		}
		if seen[p.Name] {
			t.Fatalf("duplicate fleet preset %q", p.Name)
		}
		seen[p.Name] = true
		got, err := LookupFleet(p.Name)
		if err != nil || got.Name != p.Name {
			t.Fatalf("LookupFleet(%q) = %+v, %v", p.Name, got, err)
		}
	}
	// CI and the verify skill run these by name: full replication, N
	// shards, and N shards × R replicas.
	for _, name := range []string{"tri-replica", "sharded-fleet", "replicated-shards"} {
		if !seen[name] {
			t.Errorf("fleet preset %q is missing", name)
		}
	}
	if _, err := LookupFleet("nope"); err == nil {
		t.Fatal("LookupFleet accepted an unknown name")
	}
}

// fullyReplicated and sharded split the one fleet registry by topology:
// every replica holds the full file, or the users are cut into shards.
func fullyReplicated(p FleetPreset) bool { return p.Shards == 1 }
func sharded(p FleetPreset) bool         { return p.Shards > 1 }

// checkPresetClass holds the registry to at least one preset of a
// topology class, each of which keeps its shape through LookupFleet,
// and to the names listed.
func checkPresetClass(t *testing.T, class string, keep func(FleetPreset) bool, names ...string) {
	t.Helper()
	seen := map[string]bool{}
	for _, p := range FleetPresets() {
		if !keep(p) {
			continue
		}
		seen[p.Name] = true
		got, err := LookupFleet(p.Name)
		if err != nil || got.Name != p.Name || got.Shards != p.Shards || got.Replicas != p.Replicas {
			t.Fatalf("LookupFleet(%q) = %+v, %v", p.Name, got, err)
		}
	}
	if len(seen) == 0 {
		t.Fatalf("no %s presets", class)
	}
	for _, name := range names {
		if !seen[name] {
			t.Errorf("%s preset %q is missing", class, name)
		}
	}
}

func TestDistPresetRegistry(t *testing.T) {
	checkPresetClass(t, "fully replicated", fullyReplicated, "tri-replica")
	for _, p := range FleetPresets() {
		if fullyReplicated(p) && p.Replicas < 2 {
			t.Fatalf("fully replicated preset %+v has one replica", p)
		}
	}
}

func TestShardPresetRegistry(t *testing.T) {
	checkPresetClass(t, "sharded", sharded, "sharded-fleet", "replicated-shards")
}

// TestFleetScenario drives every fleet preset end to end: train →
// publish → fetch (full file or global + own shard) → router → queries,
// with bit-equality against a single full node on both sides of a live
// generation rollout, zero routed read errors during it, the per-replica
// mapped-bytes budget (~full/N + global) on sharded fleets, and the same
// bit-equality again with one replica down where shards have several.
func TestFleetScenario(t *testing.T) {
	runFleetPresets(t, func(FleetPreset) bool { return true })
}

// TestDistributedScenario runs the fully replicated presets: every
// replica fetches the full file and the router spreads reads over them.
func TestDistributedScenario(t *testing.T) {
	runFleetPresets(t, fullyReplicated)
}

// TestShardedScenario runs the sharded presets: each replica fetches the
// global section plus its own shard, and the router sends each read to
// the shard that owns the user.
func TestShardedScenario(t *testing.T) {
	runFleetPresets(t, sharded)
}

func runFleetPresets(t *testing.T, keep func(FleetPreset) bool) {
	if testing.Short() {
		t.Skip("fleet scenarios train models; skipped in -short")
	}
	for _, p := range FleetPresets() {
		if !keep(p) {
			continue
		}
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			start := time.Now()
			m, err := RunFleet(p, RunOptions{Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: %d shards × %d replicas, %d generations, %d equality checks, %d routed reads (%d errors), "+
				"%d misroutes, mapped ≤ %d of %d full bytes in %v",
				p.Name, m.Shards, m.Replicas, m.Generations, m.EqualityChecks, m.ReadQueries, m.ReadErrors,
				m.Misroutes, m.MaxReplicaMappedBytes, m.FullBytes, time.Since(start).Round(time.Millisecond))
			if m.EqualityChecks == 0 {
				t.Fatal("no bit-equality checks ran")
			}
			if m.ReadQueries == 0 {
				t.Fatal("the rollout read hammer never ran")
			}
			if m.Generations != 2 {
				t.Fatalf("fleet ended on generation %d, want 2", m.Generations)
			}
			if p.Shards > 1 && (m.MaxReplicaMappedBytes == 0 || m.FullBytes == 0) {
				t.Fatal("mapped-bytes accounting never ran")
			}
		})
	}
}

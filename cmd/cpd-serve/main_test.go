package main

import "testing"

func TestCheckFlags(t *testing.T) {
	def := modelFlags{{name: "default", path: "m.v2.snap"}}
	named := modelFlags{{name: "eu", path: "eu.v2.snap"}}
	for _, tc := range []struct {
		name          string
		models        modelFlags
		demo, quality bool
		fetch, ingest string
		fetchSlot     string
		ok            bool
	}{
		{name: "model", models: def, ok: true},
		{name: "demo", demo: true, ok: true},
		{name: "demo beside a named model", models: named, demo: true, ok: true},
		{name: "demo quality", demo: true, quality: true, ok: true},
		{name: "model quality", models: def, quality: true, ok: true},
		{name: "replica", fetch: "snaps", ok: true},
		{name: "replica and publisher on two slots", models: def, fetch: "snaps", ingest: "ev.wal", fetchSlot: "fetched", ok: true},
		{name: "nothing to serve"},
		{name: "demo over a default-slot model", models: def, demo: true},
		{name: "demo quality over a default-slot model", models: def, demo: true, quality: true},
		{name: "quality without a model", quality: true},
		{name: "quality of a replica", fetch: "snaps", quality: true},
		{name: "quality without a default slot", models: named, quality: true},
		{name: "fetch and ingest share a slot", models: def, fetch: "snaps", ingest: "ev.wal"},
	} {
		fetchSlot := tc.fetchSlot
		if fetchSlot == "" {
			fetchSlot = "default"
		}
		err := checkFlags(tc.models, tc.demo, tc.quality, tc.fetch, tc.ingest, fetchSlot, "default")
		if (err == nil) != tc.ok {
			t.Errorf("%s: checkFlags = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

package serve

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/store"
)

// TestCommunityMembers holds every member-list answer — Snapshot.Members,
// CommunityDetail.MemberSample and CommunitySummary.Members — to the
// model's own CommunityMembers scan, on a full snapshot, on a patched one
// (dirty and appended users) and on each shard of a split generation,
// where the lists cover the owned user range in global ids.
func TestCommunityMembers(t *testing.T) {
	const users, C, Z, V = 90, 8, 4, 120
	base := SyntheticModel(users, C, Z, V, 17)
	r := rand.New(rand.NewSource(4))
	grown := growPatchModel(base, 7, r)
	var dirty []int32
	for _, u := range []int{0, 13, 40, users - 1} {
		randomizePiRow(grown.Pi.Row(u), r)
		dirty = append(dirty, int32(u))
	}
	grown.Rehydrate()

	type view struct {
		name   string
		snap   *Snapshot
		lo, hi int // owned global user range
	}
	cases := []struct {
		name  string
		model *core.Model // the full model the views answer for
		views func(t *testing.T) []view
	}{
		{"full", base, func(t *testing.T) []view {
			e := New(base, nil, Options{})
			t.Cleanup(e.Close)
			return []view{{"full", acquireView(t, e), 0, users}}
		}},
		{"patched", grown, func(t *testing.T) []view {
			e := New(base, nil, Options{})
			t.Cleanup(e.Close)
			s := e.buildSnapshot(DefaultSnapshot, grown, nil, &Delta{Users: dirty}, nil)
			if b := s.Build(); b.Kind != BuildPatched {
				t.Fatalf("successor built %+v, want a patch", b)
			}
			e.publish(s)
			return []view{{"patched", acquireView(t, e), 0, grown.NumUsers}}
		}},
		{"sharded", base, func(t *testing.T) []view {
			dir := t.TempDir()
			src := filepath.Join(dir, "full.v2.snap")
			if err := store.SaveV2(src, base); err != nil {
				t.Fatal(err)
			}
			man, err := shard.Split(src, dir, 1, shard.SplitOptions{Shards: 3})
			if err != nil {
				t.Fatal(err)
			}
			var out []view
			for i, rg := range man.Ranges {
				g, err := shard.OpenGroup(dir, man, i)
				if err != nil {
					t.Fatal(err)
				}
				e := NewMulti(Options{})
				t.Cleanup(e.Close)
				e.PromoteGroup(DefaultSnapshot, g, nil, 1, nil)
				out = append(out, view{fmt.Sprintf("shard %d", i), acquireView(t, e), rg.UserLo, rg.UserHi})
			}
			return out
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, v := range tc.views(t) {
				want := tc.model.CommunityMembers(memberTopK)
				summaries := v.snap.Communities()
				for c := 0; c < C; c++ {
					var owned []int
					for _, u := range want[c] {
						if u >= v.lo && u < v.hi {
							owned = append(owned, u)
						}
					}
					if got := v.snap.Members(c); !slices.Equal(got, owned) {
						t.Fatalf("%s: Members(%d) = %v, want %v", v.name, c, got, owned)
					}
					d, err := v.snap.Community(c)
					if err != nil {
						t.Fatal(err)
					}
					if sample := owned[:min(10, len(owned))]; !slices.Equal(d.MemberSample, sample) {
						t.Fatalf("%s: community %d sample %v, want %v", v.name, c, d.MemberSample, sample)
					}
					if summaries[c].Members != len(owned) || d.Members != len(owned) {
						t.Fatalf("%s: community %d counts %d members (detail %d), want %d", v.name, c, summaries[c].Members, d.Members, len(owned))
					}
				}
			}
		})
	}
}

// acquireView pins e's default snapshot until the test ends.
func acquireView(t *testing.T, e *Engine) *Snapshot {
	t.Helper()
	s, release, err := e.AcquireNamed(DefaultSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(release)
	return s
}

package serve

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/shard"
	"repro/internal/sparse"
)

// clonePatchModel deep-copies the blocks snapshot construction reads, so
// a mutated successor never aliases its predecessor (the adversarial
// case for copy-on-write: sharing must come from the patch logic, not
// from accidental aliasing).
func clonePatchModel(m *core.Model) *core.Model {
	cloneDense := func(d *sparse.Dense) *sparse.Dense {
		cp := sparse.NewDense(d.Rows, d.Cols)
		copy(cp.Data, d.Data)
		return cp
	}
	cp := &core.Model{
		Cfg:        m.Cfg,
		NumUsers:   m.NumUsers,
		NumWords:   m.NumWords,
		NumBuckets: m.NumBuckets,
		Pi:         cloneDense(m.Pi),
		Theta:      cloneDense(m.Theta),
		Phi:        cloneDense(m.Phi),
		Eta:        sparse.NewTensor3(m.Eta.D1, m.Eta.D2, m.Eta.D3),
		Nu:         append([]float64(nil), m.Nu...),
		PopFreq:    cloneDense(m.PopFreq),
	}
	copy(cp.Eta.Data, m.Eta.Data)
	cp.Rehydrate()
	return cp
}

// growPatchModel returns a clone of m with extra appended users carrying
// fresh random membership rows.
func growPatchModel(m *core.Model, extra int, r *rand.Rand) *core.Model {
	cp := clonePatchModel(m)
	C := m.Cfg.NumCommunities
	pi := sparse.NewDense(m.NumUsers+extra, C)
	copy(pi.Data, cp.Pi.Data)
	for u := m.NumUsers; u < m.NumUsers+extra; u++ {
		randomizePiRow(pi.Row(u), r)
	}
	cp.Pi = pi
	cp.NumUsers += extra
	cp.Rehydrate()
	return cp
}

func randomizePiRow(row []float64, r *rand.Rand) {
	var sum float64
	for i := range row {
		row[i] = 1e-4
		sum += row[i]
	}
	for k := 0; k < 3; k++ {
		c := r.Intn(len(row))
		v := r.Float64()
		row[c] += v
		sum += v
	}
	for i := range row {
		row[i] /= sum
	}
}

func requireSameUserIndex(t *testing.T, got, want *userIndex) {
	t.Helper()
	if got.topK != want.topK || got.users != want.users {
		t.Fatalf("shape (%d,%d) != (%d,%d)", got.topK, got.users, want.topK, want.users)
	}
	if !reflect.DeepEqual(got.comms, want.comms) {
		t.Fatalf("top-K tables differ")
	}
	if !reflect.DeepEqual(got.counts, want.counts) {
		t.Fatalf("member counts %v != %v", got.counts, want.counts)
	}
}

// TestPatchFromDifferential drives a chain of randomized deltas — user
// churn, user growth, and both at once — through patchFrom, asserting
// after every step that the patched snapshot's derived state is
// bit-identical to a from-scratch build of the same model, and that the
// log Φ table rank and fold-in read is the predecessor's own. The patched
// chain never rebuilds, so sharing bugs accumulate and surface.
func TestPatchFromDifferential(t *testing.T) {
	const (
		users, C, Z, V = 120, 12, 6, 400
		rounds         = 24
	)
	r := rand.New(rand.NewSource(42))
	m := SyntheticModel(users, C, Z, V, 99)
	opts := Options{}.withDefaults()
	snap := newSnapshot(m, nil, DefaultSnapshot, 0, opts)
	for round := 0; round < rounds; round++ {
		var next *core.Model
		var delta Delta
		switch round % 4 {
		case 0: // membership churn on existing users
			next = clonePatchModel(m)
			for i := 0; i < 1+r.Intn(8); i++ {
				u := r.Intn(next.NumUsers)
				randomizePiRow(next.Pi.Row(u), r)
				delta.Users = append(delta.Users, int32(u))
			}
			next.Rehydrate()
		case 1: // user growth only (implicit delta)
			next = growPatchModel(m, 1+r.Intn(10), r)
		case 2: // churn + growth at once
			next = growPatchModel(m, 1+r.Intn(5), r)
			for i := 0; i < 1+r.Intn(8); i++ {
				u := r.Intn(m.NumUsers)
				randomizePiRow(next.Pi.Row(u), r)
				delta.Users = append(delta.Users, int32(u))
			}
			next.Rehydrate()
		default: // churn + growth, with duplicate and appended ids listed
			next = growPatchModel(m, 1+r.Intn(5), r)
			for i := 0; i < 1+r.Intn(5); i++ {
				u := r.Intn(m.NumUsers)
				randomizePiRow(next.Pi.Row(u), r)
				delta.Users = append(delta.Users, int32(u), int32(u))
			}
			delta.Users = append(delta.Users, int32(m.NumUsers))
			next.Rehydrate()
		}
		patched := patchFrom(snap, next, nil, delta)
		scratch := newSnapshot(next, nil, DefaultSnapshot, 0, opts)
		requireSameSnapshot(t, patched, scratch)
		if &patched.logPhi[0] != &snap.logPhi[0] {
			t.Fatalf("round %d: a membership patch rebuilt the log Φ table", round)
		}
		snap.Release()
		scratch.Release()
		snap, m = patched, next
	}
	snap.Release()
}

// TestPatchFromSharing asserts the point of the patch path: with an empty
// delta the log tables are shared by pointer with the predecessor.
func TestPatchFromSharing(t *testing.T) {
	m := SyntheticModel(64, 8, 4, 200, 7)
	opts := Options{}.withDefaults()
	snap := newSnapshot(m, nil, DefaultSnapshot, 0, opts)
	defer snap.Release()

	empty := patchFrom(snap, m, nil, Delta{})
	defer empty.Release()
	if &empty.logPhi[0] != &snap.logPhi[0] || &empty.logTheta[0] != &snap.logTheta[0] {
		t.Fatal("log tables not shared under an empty delta")
	}
}

// TestPatchFromFallbacks: models the patch path must refuse — a user
// shrink, shape changes — still produce correct (fully rebuilt)
// snapshots, and out-of-range delta ids are ignored.
func TestPatchFromFallbacks(t *testing.T) {
	m := SyntheticModel(50, 6, 4, 120, 11)
	opts := Options{}.withDefaults()
	snap := newSnapshot(m, nil, DefaultSnapshot, 0, opts)
	defer snap.Release()

	r := rand.New(rand.NewSource(5))
	next := clonePatchModel(m)
	randomizePiRow(next.Pi.Row(3), r)
	next.Rehydrate()

	// A shrunken user set forces a full rebuild even with no listed users.
	shrunk := SyntheticModel(40, 6, 4, 120, 11)
	full := patchFrom(snap, shrunk, nil, Delta{})
	scratch := newSnapshot(shrunk, nil, DefaultSnapshot, 0, opts)
	requireSameSnapshot(t, full, scratch)
	if b := full.Build(); b.Kind != BuildFull || b.Reason != reasonShape {
		t.Fatalf("patch onto fewer users: %+v, want a full build for %q", b, reasonShape)
	}
	full.Release()
	scratch.Release()

	// Out-of-range ids in the delta are ignored, not fatal.
	ok := patchFrom(snap, next, nil, Delta{Users: []int32{-1, 3, 9999}})
	scratch = newSnapshot(next, nil, DefaultSnapshot, 0, opts)
	requireSameSnapshot(t, ok, scratch)
	ok.Release()
	scratch.Release()
}

// TestSwapPatchedMatchesSwapNamed drives the engine-level API: a chain
// of delta-carrying buildSnapshot+publish installs must serve results
// deep-equal to an engine fully rebuilt at each step (modulo the version
// counter).
func TestSwapPatchedMatchesSwapNamed(t *testing.T) {
	const users, C, Z, V = 80, 10, 5, 300
	m := SyntheticModel(users, C, Z, V, 21)
	inc := New(m, nil, Options{})
	defer inc.Close()
	ref := New(m, nil, Options{})
	defer ref.Close()

	r := rand.New(rand.NewSource(77))
	for round := 0; round < 6; round++ {
		next := growPatchModel(m, 1+r.Intn(4), r)
		var dirty []int32
		for i := 0; i < 3; i++ {
			u := r.Intn(m.NumUsers)
			randomizePiRow(next.Pi.Row(u), r)
			dirty = append(dirty, int32(u))
		}
		next.Rehydrate()
		inc.publish(inc.buildSnapshot(DefaultSnapshot, next, nil, &Delta{Users: dirty}, nil))
		ref.SwapNamed(DefaultSnapshot, next, nil)
		m = next

		for u := 0; u < next.NumUsers; u += 7 {
			a, err := inc.MembershipIn(DefaultSnapshot, u, 5)
			if err != nil {
				t.Fatal(err)
			}
			b, err := ref.MembershipIn(DefaultSnapshot, u, 5)
			if err != nil {
				t.Fatal(err)
			}
			a.Version, b.Version = 0, 0
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("round %d: membership(%d) diverged:\n%+v\n%+v", round, u, a, b)
			}
		}
		for q := 0; q < V; q += 17 {
			a, err := inc.RankIn(DefaultSnapshot, []int32{int32(q), int32((q * 3) % V)}, 5)
			if err != nil {
				t.Fatal(err)
			}
			b, err := ref.RankIn(DefaultSnapshot, []int32{int32(q), int32((q * 3) % V)}, 5)
			if err != nil {
				t.Fatal(err)
			}
			a.Version, b.Version = 0, 0
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("round %d: rank(%d) diverged:\n%+v\n%+v", round, q, a, b)
			}
		}
		ac, err1 := inc.CommunitiesIn(DefaultSnapshot)
		bc, err2 := ref.CommunitiesIn(DefaultSnapshot)
		if err1 != nil || err2 != nil {
			t.Fatalf("round %d: communities: %v / %v", round, err1, err2)
		}
		if !reflect.DeepEqual(ac, bc) {
			t.Fatalf("round %d: communities diverged", round)
		}
	}
}

// requireSameSnapshot compares every derived field of two snapshots of
// the same model: the user index, labels, openness, and the η bases and
// the log Θ and log Φ tables bit for bit.
func requireSameSnapshot(t *testing.T, got, want *Snapshot) {
	t.Helper()
	requireSameUserIndex(t, got.users, want.users)
	if !reflect.DeepEqual(got.labels, want.labels) {
		t.Fatalf("labels %v, want %v", got.labels, want.labels)
	}
	if !reflect.DeepEqual(got.openness, want.openness) {
		t.Fatalf("openness %v, want %v", got.openness, want.openness)
	}
	for _, tb := range []struct {
		name      string
		got, want []float64
	}{{"η base", got.etaBase, want.etaBase}, {"log Θ", got.logTheta, want.logTheta}, {"log Φ", got.logPhi, want.logPhi}} {
		if len(tb.got) != len(tb.want) {
			t.Fatalf("%s has %d entries, want %d", tb.name, len(tb.got), len(tb.want))
		}
		for i := range tb.want {
			if math.Float64bits(tb.got[i]) != math.Float64bits(tb.want[i]) {
				t.Fatalf("%s entry %d: bits %x, want %x", tb.name, i, math.Float64bits(tb.got[i]), math.Float64bits(tb.want[i]))
			}
		}
	}
	if got.heapBytes != want.heapBytes {
		t.Fatalf("heap accounting %d, want %d", got.heapBytes, want.heapBytes)
	}
}

func testVocabulary(words int, prefix string) *corpus.Vocabulary {
	v := corpus.NewVocabulary()
	for w := 0; w < words; w++ {
		v.Add(fmt.Sprintf("%s%d", prefix, w))
	}
	return v
}

// TestBuildSnapshotDerivedDelta is the differential test of the derived
// delta: for each kind of (previous, next) pair BuildSnapshot — handed no
// delta — must produce a snapshot equal field for field to a from-scratch
// build of next, and report the expected kind, reason and re-indexed row
// count. A Φ difference of any size is a full build. Every next model is a
// deep copy, so nothing is equal by aliasing.
func TestBuildSnapshotDerivedDelta(t *testing.T) {
	const users, C, Z, V = 90, 10, 5, 240
	opts := Options{}
	vocab := testVocabulary(V, "w")
	negZero := math.Copysign(0, -1)
	type want struct {
		kind, reason string
		users        int // re-indexed; checked for patched builds
	}
	cases := []struct {
		name string
		prep func(prev *core.Model)                                                 // adjusts the predecessor before it is served
		next func(prev *core.Model, r *rand.Rand) (*core.Model, *corpus.Vocabulary) // nil vocabulary keeps the slot's
		want want
	}{
		{"nothing changed", nil, func(prev *core.Model, _ *rand.Rand) (*core.Model, *corpus.Vocabulary) {
			return clonePatchModel(prev), nil
		}, want{BuildPatched, "", 0}},
		{"rows changed", nil, func(prev *core.Model, r *rand.Rand) (*core.Model, *corpus.Vocabulary) {
			next := clonePatchModel(prev)
			for _, u := range []int{0, 7, 8, users - 1} {
				randomizePiRow(next.Pi.Row(u), r)
			}
			return next, nil
		}, want{BuildPatched, "", 4}},
		{"users appended", nil, func(prev *core.Model, r *rand.Rand) (*core.Model, *corpus.Vocabulary) {
			return growPatchModel(prev, 9, r), nil
		}, want{BuildPatched, "", 9}},
		{"rows changed and users appended", nil, func(prev *core.Model, r *rand.Rand) (*core.Model, *corpus.Vocabulary) {
			next := growPatchModel(prev, 3, r)
			randomizePiRow(next.Pi.Row(11), r)
			return next, nil
		}, want{BuildPatched, "", 4}},
		{"one phi column changed", nil, func(prev *core.Model, r *rand.Rand) (*core.Model, *corpus.Vocabulary) {
			next := clonePatchModel(prev)
			for z := 0; z < Z; z++ {
				next.Phi.Row(z)[17] *= 0.25 + r.Float64()
			}
			return next, nil
		}, want{kind: BuildFull, reason: reasonGlobals}},
		{"one phi entry and one row", nil, func(prev *core.Model, r *rand.Rand) (*core.Model, *corpus.Vocabulary) {
			next := clonePatchModel(prev)
			next.Phi.Row(2)[V-1] *= 3
			randomizePiRow(next.Pi.Row(40), r)
			return next, nil
		}, want{kind: BuildFull, reason: reasonGlobals}},
		{"zero changes sign", func(prev *core.Model) { prev.Pi.Row(5)[2] = 0 },
			func(prev *core.Model, _ *rand.Rand) (*core.Model, *corpus.Vocabulary) {
				next := clonePatchModel(prev)
				next.Pi.Row(5)[2] = negZero
				return next, nil
			}, want{BuildPatched, "", 1}},
		{"NaN changes payload", func(prev *core.Model) { prev.Pi.Row(6)[1] = math.Float64frombits(0x7ff8000000000001) },
			func(prev *core.Model, _ *rand.Rand) (*core.Model, *corpus.Vocabulary) {
				next := clonePatchModel(prev)
				next.Pi.Row(6)[1] = math.Float64frombits(0x7ff8000000000002)
				return next, nil
			}, want{BuildPatched, "", 1}},
		{"phi zero changes sign", func(prev *core.Model) { prev.Phi.Row(1)[30] = 0 },
			func(prev *core.Model, _ *rand.Rand) (*core.Model, *corpus.Vocabulary) {
				next := clonePatchModel(prev)
				next.Phi.Row(1)[30] = negZero
				return next, nil
			}, want{kind: BuildFull, reason: reasonGlobals}},
		{"eta changed", nil, func(prev *core.Model, _ *rand.Rand) (*core.Model, *corpus.Vocabulary) {
			next := clonePatchModel(prev)
			next.Eta.Data[3] *= 2
			next.Rehydrate()
			return next, nil
		}, want{kind: BuildFull, reason: reasonGlobals}},
		{"theta changed", nil, func(prev *core.Model, _ *rand.Rand) (*core.Model, *corpus.Vocabulary) {
			next := clonePatchModel(prev)
			next.Theta.Row(2)[1] *= 2
			next.Rehydrate()
			return next, nil
		}, want{kind: BuildFull, reason: reasonGlobals}},
		{"nu changed", nil, func(prev *core.Model, _ *rand.Rand) (*core.Model, *corpus.Vocabulary) {
			next := clonePatchModel(prev)
			next.Nu[0] += 1
			return next, nil
		}, want{kind: BuildFull, reason: reasonGlobals}},
		{"popularity changed", nil, func(prev *core.Model, _ *rand.Rand) (*core.Model, *corpus.Vocabulary) {
			next := clonePatchModel(prev)
			next.PopFreq.Row(0)[0] += 0.5
			return next, nil
		}, want{kind: BuildFull, reason: reasonGlobals}},
		{"attribute profiles appear", nil, func(prev *core.Model, _ *rand.Rand) (*core.Model, *corpus.Vocabulary) {
			next := clonePatchModel(prev)
			next.Xi, next.NumAttrs = sparse.NewDense(C, 3), 3
			return next, nil
		}, want{kind: BuildFull, reason: reasonGlobals}},
		{"other config", nil, func(prev *core.Model, _ *rand.Rand) (*core.Model, *corpus.Vocabulary) {
			next := clonePatchModel(prev)
			next.Cfg.EtaScale *= 2
			next.Rehydrate()
			return next, nil
		}, want{kind: BuildFull, reason: reasonGlobals}},
		{"fewer users", nil, func(prev *core.Model, _ *rand.Rand) (*core.Model, *corpus.Vocabulary) {
			next := clonePatchModel(prev)
			next.NumUsers -= 5
			next.Pi = sparse.NewDenseView(next.NumUsers, C, next.Pi.Data[:next.NumUsers*C])
			return next, nil
		}, want{kind: BuildFull, reason: reasonShape}},
		{"other shape", nil, func(*core.Model, *rand.Rand) (*core.Model, *corpus.Vocabulary) {
			return SyntheticModel(users, C, Z+1, V, 4), nil
		}, want{kind: BuildFull, reason: reasonShape}},
		{"another vocabulary", nil, func(prev *core.Model, _ *rand.Rand) (*core.Model, *corpus.Vocabulary) {
			return clonePatchModel(prev), testVocabulary(V, "term")
		}, want{kind: BuildFull, reason: reasonVocabulary}},
		{"equal vocabulary in other memory", nil, func(prev *core.Model, r *rand.Rand) (*core.Model, *corpus.Vocabulary) {
			next := clonePatchModel(prev)
			randomizePiRow(next.Pi.Row(1), r)
			return next, testVocabulary(V, "w")
		}, want{BuildPatched, "", 1}},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(100 + i)))
			prev := SyntheticModel(users, C, Z, V, uint64(30+i))
			if tc.prep != nil {
				tc.prep(prev)
			}
			e := NewMulti(opts)
			defer e.Close()
			first := e.buildSnapshot(DefaultSnapshot, prev, vocab, nil, nil)
			if b := first.Build(); b.Kind != BuildFull || b.Reason != reasonNoPredecessor || b.Users != users {
				t.Fatalf("first build into an empty slot reports %+v", b)
			}
			e.publish(first)
			next, nextVocab := tc.next(prev, r)
			if nextVocab == nil {
				nextVocab = vocab
			}
			got := e.buildSnapshot(DefaultSnapshot, next, nextVocab, nil, nil)
			defer got.Release()
			scratch := newSnapshot(next, nextVocab, DefaultSnapshot, 0, e.opts)
			defer scratch.Release()
			requireSameSnapshot(t, got, scratch)
			b := got.Build()
			if b.Kind != tc.want.kind || b.Reason != tc.want.reason || !b.Derived {
				t.Fatalf("build %+v, want kind %q reason %q derived", b, tc.want.kind, tc.want.reason)
			}
			if b.Kind == BuildPatched && b.Users != tc.want.users {
				t.Fatalf("re-indexed %d users, want %d", b.Users, tc.want.users)
			}
			if b.Kind == BuildFull && b.Users != next.NumUsers {
				t.Fatalf("full build reports %d users re-indexed, model has %d", b.Users, next.NumUsers)
			}
		})
	}
}

// TestBuildSnapshotDerivedChain adopts a random chain of successors with
// no delta, so a row the derivation missed would stay wrong and surface in
// a later comparison. A successor whose Φ moved is built in full.
func TestBuildSnapshotDerivedChain(t *testing.T) {
	const users, C, Z, V = 100, 9, 4, 180
	r := rand.New(rand.NewSource(8))
	m := SyntheticModel(users, C, Z, V, 12)
	e := New(m, nil, Options{})
	defer e.Close()
	for round := 0; round < 30; round++ {
		next := clonePatchModel(m)
		if r.Intn(3) == 0 {
			next = growPatchModel(m, 1+r.Intn(6), r)
		}
		wantUsers, phiMoved := next.NumUsers-m.NumUsers, false
		for _, u := range r.Perm(m.NumUsers)[:r.Intn(7)] {
			randomizePiRow(next.Pi.Row(u), r)
			wantUsers++
		}
		for _, w := range r.Perm(V)[:r.Intn(4)] {
			next.Phi.Row(r.Intn(Z))[w] *= 1.5
			phiMoved = true
		}
		got := e.buildSnapshot(DefaultSnapshot, next, nil, nil, nil)
		scratch := newSnapshot(next, nil, DefaultSnapshot, 0, e.opts)
		requireSameSnapshot(t, got, scratch)
		scratch.Release()
		b := got.Build()
		if phiMoved && (b.Kind != BuildFull || b.Reason != reasonGlobals) {
			t.Fatalf("round %d: Φ moved, build %+v, want a full build for %q", round, b, reasonGlobals)
		}
		if !phiMoved && (b.Kind != BuildPatched || b.Users != wantUsers) {
			t.Fatalf("round %d: build %+v, want %d users patched", round, b, wantUsers)
		}
		e.publish(got)
		m = next
	}
}

// TestBuildSnapshotExplicitDelta: a caller's delta is taken as given while
// the slot holds the snapshot it names, dropped for a derived one after an
// external swap, and cannot carry a model of another shape past the full
// build.
func TestBuildSnapshotExplicitDelta(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	m := SyntheticModel(60, 8, 4, 150, 5)
	e := New(m, nil, Options{})
	defer e.Close()
	base := acquireView(t, e).Version

	next := clonePatchModel(m)
	randomizePiRow(next.Pi.Row(9), r)
	s := e.buildSnapshot(DefaultSnapshot, next, nil, &Delta{Users: []int32{9}, Base: base}, nil)
	if b := s.Build(); b.Kind != BuildPatched || b.Derived || b.Users != 1 {
		t.Fatalf("explicit delta against the live snapshot: %+v", b)
	}
	s.Release()

	// Someone else swaps the slot: the delta no longer describes the
	// distance to what is served. Here it even misses a row (3).
	other := clonePatchModel(m)
	randomizePiRow(other.Pi.Row(3), r)
	e.SwapNamed(DefaultSnapshot, other, nil)
	s = e.buildSnapshot(DefaultSnapshot, next, nil, &Delta{Users: []int32{9}, Base: base}, nil)
	scratch := newSnapshot(next, nil, DefaultSnapshot, 0, e.opts)
	requireSameSnapshot(t, s, scratch)
	if b := s.Build(); b.Kind != BuildPatched || !b.Derived || b.Users != 2 {
		t.Fatalf("stale explicit delta: %+v, want a derived patch of rows 3 and 9", b)
	}
	s.Release()

	scratch.Release()

	shrunk := SyntheticModel(40, 8, 4, 150, 5)
	s = e.buildSnapshot(DefaultSnapshot, shrunk, nil, &Delta{Users: []int32{9}}, nil)
	scratch = newSnapshot(shrunk, nil, DefaultSnapshot, 0, e.opts)
	requireSameSnapshot(t, s, scratch)
	if b := s.Build(); b.Kind != BuildFull || b.Reason != reasonShape || b.Derived {
		t.Fatalf("explicit delta onto fewer users: %+v", b)
	}
	s.Release()
	scratch.Release()

	// Every build is counted, promoted or not: New's, the patch, the
	// external swap's derived patch, the re-derived patch and the
	// shrunken model's rebuild.
	var buf bytes.Buffer
	e.WriteMetrics(&buf)
	for _, line := range []string{
		`cpd_snapshot_builds_total{kind="patched"} 3`,
		`cpd_snapshot_builds_total{kind="full"} 2`,
		`cpd_snapshot_build_seconds_count 5`,
	} {
		if !strings.Contains(buf.String(), line+"\n") {
			t.Fatalf("/metrics lacks %q", line)
		}
	}
	// /api/stats says how the live snapshot (the external swap's) was built.
	if b := e.StatsReport().Snapshots[0].Build; b.Kind != BuildPatched || !b.Derived || b.Users != 1 {
		t.Fatalf("/api/stats reports the live snapshot built as %+v", b)
	}
}

// TestBuildSnapshotShardIdentity: the same shard of the same split patches
// (its last user may move out), anything else about the shard identity
// rebuilds — local row u is another user once UserLo moves.
func TestBuildSnapshotShardIdentity(t *testing.T) {
	m := SyntheticModel(40, 6, 3, 90, 9)
	e := NewMulti(Options{})
	defer e.Close()
	info := shard.Info{Index: 1, Count: 3, UserLo: 40, UserHi: 80, TotalUsers: 120}
	e.publish(e.buildSnapshot(DefaultSnapshot, m, nil, nil, &info))
	for _, tc := range []struct {
		name   string
		next   *shard.Info
		reason string
	}{
		{"same shard", &shard.Info{Index: 1, Count: 3, UserLo: 40, UserHi: 80, TotalUsers: 130}, ""},
		{"first user moved", &shard.Info{Index: 1, Count: 3, UserLo: 41, UserHi: 81, TotalUsers: 120}, reasonShard},
		{"other index", &shard.Info{Index: 2, Count: 3, UserLo: 40, UserHi: 80, TotalUsers: 120}, reasonShard},
		{"other split", &shard.Info{Index: 1, Count: 4, UserLo: 40, UserHi: 80, TotalUsers: 120}, reasonShard},
		{"whole model", nil, reasonShard},
	} {
		s := e.buildSnapshot(DefaultSnapshot, clonePatchModel(m), nil, nil, tc.next)
		if b := s.Build(); b.Reason != tc.reason || (b.Kind == BuildPatched) != (tc.reason == "") {
			t.Fatalf("%s: build %+v, want reason %q", tc.name, b, tc.reason)
		}
		if (s.Shard == nil) != (tc.next == nil) || s.Shard != nil && *s.Shard != *tc.next {
			t.Fatalf("%s: snapshot carries shard %+v, want %+v", tc.name, s.Shard, tc.next)
		}
		// A caller's delta is no more trusted across a shard move.
		d := e.buildSnapshot(DefaultSnapshot, clonePatchModel(m), nil, &Delta{}, tc.next)
		if b := d.Build(); b.Reason != tc.reason {
			t.Fatalf("%s with an explicit delta: build %+v, want reason %q", tc.name, b, tc.reason)
		}
		s.Release()
		d.Release()
	}
}

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

func requireSameRankIndex(t *testing.T, got, want *RankIndex) {
	t.Helper()
	if got.numWords != want.numWords {
		t.Fatalf("numWords %d != %d", got.numWords, want.numWords)
	}
	for w := 0; w < want.numWords; w++ {
		gc, gs := got.Postings(int32(w))
		wc, ws := want.Postings(int32(w))
		if len(gc) != len(wc) {
			t.Fatalf("word %d: %d postings, want %d", w, len(gc), len(wc))
		}
		for i := range wc {
			if gc[i] != wc[i] {
				t.Fatalf("word %d entry %d: community %d, want %d", w, i, gc[i], wc[i])
			}
			if math.Float64bits(gs[i]) != math.Float64bits(ws[i]) {
				t.Fatalf("word %d entry %d: score bits %x, want %x", w, i,
					math.Float64bits(gs[i]), math.Float64bits(ws[i]))
			}
		}
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
// churn, user growth, vocabulary-touching φ-column changes, and mixes —
// through PatchFrom, asserting after every step that the patched
// snapshot's rank index and user index are bit-identical to from-scratch
// builds of the same model. The patched chain never rebuilds, so sharing
// bugs accumulate and surface.
func TestPatchFromDifferential(t *testing.T) {
	const (
		users, C, Z, V = 120, 12, 6, 400
		rounds         = 24
	)
	r := rand.New(rand.NewSource(42))
	m := SyntheticModel(users, C, Z, V, 99)
	opts := Options{PostingsPerWord: 8}.withDefaults()
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
		case 2: // vocabulary-touching delta: rescale φ columns
			next = clonePatchModel(m)
			for i := 0; i < 1+r.Intn(6); i++ {
				w := r.Intn(V)
				for z := 0; z < Z; z++ {
					next.Phi.Row(z)[w] *= 0.25 + r.Float64()
				}
				delta.Words = append(delta.Words, int32(w))
			}
			next.Rehydrate()
		default: // churn + growth + words at once, with duplicate ids
			next = growPatchModel(m, 1+r.Intn(5), r)
			for i := 0; i < 1+r.Intn(5); i++ {
				u := r.Intn(m.NumUsers)
				randomizePiRow(next.Pi.Row(u), r)
				delta.Users = append(delta.Users, int32(u), int32(u))
			}
			for i := 0; i < 1+r.Intn(3); i++ {
				w := r.Intn(V)
				for z := 0; z < Z; z++ {
					next.Phi.Row(z)[w] *= 0.25 + r.Float64()
				}
				delta.Words = append(delta.Words, int32(w))
			}
			next.Rehydrate()
		}
		patched := PatchFrom(snap, next, nil, delta)
		scratch := newSnapshot(next, nil, DefaultSnapshot, 0, opts)
		requireSameRankIndex(t, patched.index, scratch.index)
		requireSameUserIndex(t, patched.users, scratch.users)
		if !reflect.DeepEqual(patched.labels, scratch.labels) && len(delta.Words) > 0 {
			t.Fatalf("round %d: labels diverged after vocabulary delta", round)
		}
		snap.Release()
		scratch.Release()
		snap, m = patched, next
	}
	snap.Release()
}

// TestPatchFromSharing asserts the point of the rank-index patch path:
// with an empty delta every posting list is shared (aliased) with the
// predecessor, and a small delta shares all untouched words.
func TestPatchFromSharing(t *testing.T) {
	m := SyntheticModel(64, 8, 4, 200, 7)
	opts := Options{}.withDefaults()
	snap := newSnapshot(m, nil, DefaultSnapshot, 0, opts)
	defer snap.Release()

	same := func(a, b []int32) bool {
		return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
	}

	empty := PatchFrom(snap, m, nil, Delta{})
	defer empty.Release()
	for w := range snap.index.lists {
		if !same(empty.index.lists[w].comms, snap.index.lists[w].comms) {
			t.Fatalf("word %d list not shared under empty delta", w)
		}
	}

	// One dirty user (id 5) and one dirty word (id 9).
	next := clonePatchModel(m)
	r := rand.New(rand.NewSource(3))
	randomizePiRow(next.Pi.Row(5), r)
	for z := 0; z < m.Cfg.NumTopics; z++ {
		next.Phi.Row(z)[9] *= 2
	}
	next.Rehydrate()
	patched := PatchFrom(snap, next, nil, Delta{Users: []int32{5}, Words: []int32{9}})
	defer patched.Release()
	for w := range snap.index.lists {
		shared := same(patched.index.lists[w].comms, snap.index.lists[w].comms)
		if w == 9 && shared && len(snap.index.lists[w].comms) > 0 {
			t.Fatalf("dirty word 9 still shares its predecessor's list")
		}
		if w != 9 && !shared {
			t.Fatalf("clean word %d was copied", w)
		}
	}
}

// TestPatchFromFallbacks: deltas the patch path must refuse — Globals,
// user shrink, shape changes — still produce correct (fully rebuilt)
// snapshots.
func TestPatchFromFallbacks(t *testing.T) {
	m := SyntheticModel(50, 6, 4, 120, 11)
	opts := Options{}.withDefaults()
	snap := newSnapshot(m, nil, DefaultSnapshot, 0, opts)
	defer snap.Release()

	r := rand.New(rand.NewSource(5))
	next := clonePatchModel(m)
	randomizePiRow(next.Pi.Row(3), r)
	next.Rehydrate()

	// Globals forces a full rebuild even with no listed users/words.
	full := PatchFrom(snap, next, nil, Delta{Globals: true})
	scratch := newSnapshot(next, nil, DefaultSnapshot, 0, opts)
	requireSameRankIndex(t, full.index, scratch.index)
	requireSameUserIndex(t, full.users, scratch.users)
	full.Release()
	scratch.Release()

	// Out-of-range ids in the delta are ignored, not fatal.
	ok := PatchFrom(snap, next, nil, Delta{Users: []int32{-1, 3, 9999}, Words: []int32{-2, 100000}})
	scratch = newSnapshot(next, nil, DefaultSnapshot, 0, opts)
	requireSameRankIndex(t, ok.index, scratch.index)
	requireSameUserIndex(t, ok.users, scratch.users)
	ok.Release()
	scratch.Release()
}

// TestSwapPatchedMatchesSwapNamed drives the engine-level API: a chain
// of delta-carrying BuildSnapshot+Promote publishes must serve results
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
		inc.Promote(inc.BuildSnapshot(DefaultSnapshot, next, nil, &Delta{Users: dirty}))
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
// the same model: rank index and user index bit for bit, labels, openness
// and the log Θ table.
func requireSameSnapshot(t *testing.T, got, want *Snapshot) {
	t.Helper()
	requireSameRankIndex(t, got.index, want.index)
	requireSameUserIndex(t, got.users, want.users)
	if !reflect.DeepEqual(got.labels, want.labels) {
		t.Fatalf("labels %v, want %v", got.labels, want.labels)
	}
	if !reflect.DeepEqual(got.openness, want.openness) {
		t.Fatalf("openness %v, want %v", got.openness, want.openness)
	}
	if len(got.logTheta) != len(want.logTheta) {
		t.Fatalf("log Θ has %d entries, want %d", len(got.logTheta), len(want.logTheta))
	}
	for i := range want.logTheta {
		if math.Float64bits(got.logTheta[i]) != math.Float64bits(want.logTheta[i]) {
			t.Fatalf("log Θ entry %d: bits %x, want %x", i, math.Float64bits(got.logTheta[i]), math.Float64bits(want.logTheta[i]))
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
// build of next, and report the expected kind, reason and re-indexed
// counts. Every next model is a deep copy, so nothing is equal by aliasing.
func TestBuildSnapshotDerivedDelta(t *testing.T) {
	const users, C, Z, V = 90, 10, 5, 240
	opts := Options{PostingsPerWord: 6}
	vocab := testVocabulary(V, "w")
	negZero := math.Copysign(0, -1)
	type want struct {
		kind, reason string
		users, words int // re-indexed; checked for patched builds
	}
	cases := []struct {
		name string
		prep func(prev *core.Model)                                                 // adjusts the predecessor before it is served
		next func(prev *core.Model, r *rand.Rand) (*core.Model, *corpus.Vocabulary) // nil vocabulary keeps the slot's
		want want
	}{
		{"nothing changed", nil, func(prev *core.Model, _ *rand.Rand) (*core.Model, *corpus.Vocabulary) {
			return clonePatchModel(prev), nil
		}, want{BuildPatched, "", 0, 0}},
		{"rows changed", nil, func(prev *core.Model, r *rand.Rand) (*core.Model, *corpus.Vocabulary) {
			next := clonePatchModel(prev)
			for _, u := range []int{0, 7, 8, users - 1} {
				randomizePiRow(next.Pi.Row(u), r)
			}
			return next, nil
		}, want{BuildPatched, "", 4, 0}},
		{"users appended", nil, func(prev *core.Model, r *rand.Rand) (*core.Model, *corpus.Vocabulary) {
			return growPatchModel(prev, 9, r), nil
		}, want{BuildPatched, "", 9, 0}},
		{"rows changed and users appended", nil, func(prev *core.Model, r *rand.Rand) (*core.Model, *corpus.Vocabulary) {
			next := growPatchModel(prev, 3, r)
			randomizePiRow(next.Pi.Row(11), r)
			return next, nil
		}, want{BuildPatched, "", 4, 0}},
		{"one phi column changed", nil, func(prev *core.Model, r *rand.Rand) (*core.Model, *corpus.Vocabulary) {
			next := clonePatchModel(prev)
			for z := 0; z < Z; z++ {
				next.Phi.Row(z)[17] *= 0.25 + r.Float64()
			}
			return next, nil
		}, want{BuildPatched, "", 0, 1}},
		{"one phi entry and one row", nil, func(prev *core.Model, r *rand.Rand) (*core.Model, *corpus.Vocabulary) {
			next := clonePatchModel(prev)
			next.Phi.Row(2)[V-1] *= 3
			randomizePiRow(next.Pi.Row(40), r)
			return next, nil
		}, want{BuildPatched, "", 1, 1}},
		{"zero changes sign", func(prev *core.Model) { prev.Pi.Row(5)[2] = 0 },
			func(prev *core.Model, _ *rand.Rand) (*core.Model, *corpus.Vocabulary) {
				next := clonePatchModel(prev)
				next.Pi.Row(5)[2] = negZero
				return next, nil
			}, want{BuildPatched, "", 1, 0}},
		{"NaN changes payload", func(prev *core.Model) { prev.Pi.Row(6)[1] = math.Float64frombits(0x7ff8000000000001) },
			func(prev *core.Model, _ *rand.Rand) (*core.Model, *corpus.Vocabulary) {
				next := clonePatchModel(prev)
				next.Pi.Row(6)[1] = math.Float64frombits(0x7ff8000000000002)
				return next, nil
			}, want{BuildPatched, "", 1, 0}},
		{"phi zero changes sign", func(prev *core.Model) { prev.Phi.Row(1)[30] = 0 },
			func(prev *core.Model, _ *rand.Rand) (*core.Model, *corpus.Vocabulary) {
				next := clonePatchModel(prev)
				next.Phi.Row(1)[30] = negZero
				return next, nil
			}, want{BuildPatched, "", 0, 1}},
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
		}, want{BuildPatched, "", 1, 0}},
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
			first := e.BuildSnapshot(DefaultSnapshot, prev, vocab, nil)
			if b := first.Build(); b.Kind != BuildFull || b.Reason != reasonNoPredecessor || b.Users != users || b.Words != V {
				t.Fatalf("first build into an empty slot reports %+v", b)
			}
			e.Promote(first)
			next, nextVocab := tc.next(prev, r)
			if nextVocab == nil {
				nextVocab = vocab
			}
			got := e.BuildSnapshot(DefaultSnapshot, next, nextVocab, nil)
			defer got.Release()
			scratch := newSnapshot(next, nextVocab, DefaultSnapshot, 0, e.opts)
			defer scratch.Release()
			requireSameSnapshot(t, got, scratch)
			b := got.Build()
			if b.Kind != tc.want.kind || b.Reason != tc.want.reason || !b.Derived {
				t.Fatalf("build %+v, want kind %q reason %q derived", b, tc.want.kind, tc.want.reason)
			}
			if b.Kind == BuildPatched && (b.Users != tc.want.users || b.Words != tc.want.words) {
				t.Fatalf("re-indexed %d users and %d words, want %d and %d", b.Users, b.Words, tc.want.users, tc.want.words)
			}
			if b.Kind == BuildFull && (b.Users != next.NumUsers || b.Words != next.NumWords) {
				t.Fatalf("full build reports %d users and %d words re-indexed, model has %d and %d", b.Users, b.Words, next.NumUsers, next.NumWords)
			}
		})
	}
}

// TestBuildSnapshotDerivedChain adopts a random chain of successors with
// no delta and never rebuilds in between, so a row or column the
// derivation missed would stay wrong and surface in a later comparison.
func TestBuildSnapshotDerivedChain(t *testing.T) {
	const users, C, Z, V = 100, 9, 4, 180
	r := rand.New(rand.NewSource(8))
	m := SyntheticModel(users, C, Z, V, 12)
	e := New(m, nil, Options{PostingsPerWord: 5})
	defer e.Close()
	for round := 0; round < 30; round++ {
		next := clonePatchModel(m)
		if r.Intn(3) == 0 {
			next = growPatchModel(m, 1+r.Intn(6), r)
		}
		wantUsers, wantWords := next.NumUsers-m.NumUsers, 0
		for _, u := range r.Perm(m.NumUsers)[:r.Intn(7)] {
			randomizePiRow(next.Pi.Row(u), r)
			wantUsers++
		}
		for _, w := range r.Perm(V)[:r.Intn(4)] {
			next.Phi.Row(r.Intn(Z))[w] *= 1.5
			wantWords++
		}
		got := e.BuildSnapshot(DefaultSnapshot, next, nil, nil)
		scratch := newSnapshot(next, nil, DefaultSnapshot, 0, e.opts)
		requireSameSnapshot(t, got, scratch)
		scratch.Release()
		if b := got.Build(); b.Kind != BuildPatched || b.Users != wantUsers || b.Words != wantWords {
			t.Fatalf("round %d: build %+v, want %d users and %d words patched", round, b, wantUsers, wantWords)
		}
		e.Promote(got)
		m = next
	}
}

// TestBuildSnapshotExplicitDelta: a caller's delta is taken as given while
// the slot holds the snapshot it names, dropped for a derived one after an
// external swap, and Globals forces the full build whatever the bytes say.
func TestBuildSnapshotExplicitDelta(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	m := SyntheticModel(60, 8, 4, 150, 5)
	e := New(m, nil, Options{})
	defer e.Close()
	base := acquireView(t, e).Version

	next := clonePatchModel(m)
	randomizePiRow(next.Pi.Row(9), r)
	s := e.BuildSnapshot(DefaultSnapshot, next, nil, &Delta{Users: []int32{9}, Base: base})
	if b := s.Build(); b.Kind != BuildPatched || b.Derived || b.Users != 1 {
		t.Fatalf("explicit delta against the live snapshot: %+v", b)
	}
	s.Release()

	// Someone else swaps the slot: the delta no longer describes the
	// distance to what is served. Here it even misses a row (3).
	other := clonePatchModel(m)
	randomizePiRow(other.Pi.Row(3), r)
	e.SwapNamed(DefaultSnapshot, other, nil)
	s = e.BuildSnapshot(DefaultSnapshot, next, nil, &Delta{Users: []int32{9}, Base: base})
	scratch := newSnapshot(next, nil, DefaultSnapshot, 0, e.opts)
	requireSameSnapshot(t, s, scratch)
	if b := s.Build(); b.Kind != BuildPatched || !b.Derived || b.Users != 2 {
		t.Fatalf("stale explicit delta: %+v, want a derived patch of rows 3 and 9", b)
	}
	s.Release()

	s = e.BuildSnapshot(DefaultSnapshot, next, nil, &Delta{Globals: true})
	requireSameSnapshot(t, s, scratch)
	if b := s.Build(); b.Kind != BuildFull || b.Reason != reasonGlobals || b.Derived {
		t.Fatalf("Globals delta: %+v", b)
	}
	s.Release()
	scratch.Release()

	// Every build is counted, promoted or not: New's, the patch, the
	// external swap's derived patch, the re-derived patch and the Globals
	// rebuild.
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
	e.Promote(e.buildSnapshot(DefaultSnapshot, m, nil, nil, &info))
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

// scoreWordBlockOracle is the block scorer's accumulation as it stood
// before it was register-blocked: one topic at a time, each product added
// straight into the destination.
func scoreWordBlockOracle(m *core.Model, rt *sparse.Dense, w0, n int, emit func(j int, sel []float64, empty bool)) {
	Z, C := m.Cfg.NumTopics, m.Cfg.NumCommunities
	pz := make([]float64, Z*n)
	colSum := make([]float64, n)
	for z := 0; z < Z; z++ {
		for j, v := range m.Phi.Row(z)[w0 : w0+n] {
			pz[z*n+j] = v
			colSum[j] += v
		}
	}
	for z := 0; z < Z; z++ {
		for j := 0; j < n; j++ {
			if colSum[j] > 0 {
				pz[z*n+j] /= colSum[j]
			}
		}
	}
	wordSc := make([]float64, C*n)
	for c := 0; c < C; c++ {
		dst := wordSc[c*n : (c+1)*n]
		row := rt.Row(c)
		for z := 0; z < Z; z++ {
			rv := row[z]
			if rv == 0 {
				continue
			}
			for j, v := range pz[z*n : (z+1)*n] {
				dst[j] += rv * v
			}
		}
	}
	sel := make([]float64, C)
	for j := 0; j < n; j++ {
		if colSum[j] <= 0 {
			emit(j, nil, true)
			continue
		}
		for c := 0; c < C; c++ {
			sel[c] = wordSc[c*n+j]
		}
		emit(j, sel, false)
	}
}

// TestScoreWordBlockMatchesOracle holds the register-blocked scorer to the
// one-topic-at-a-time accumulation bit for bit, over topic counts on both
// sides of the block width and rank tables with zero, negative and
// negative-zero entries (the skipped topics and the sign of a zero sum).
func TestScoreWordBlockMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for _, Z := range []int{1, 3, 4, 5, 8, 11, 32} {
		const C, V = 7, 300 // more than one word block
		m := SyntheticModel(10, C, Z, V, uint64(Z))
		for i := range m.Eta.Data {
			switch r.Intn(5) {
			case 0:
				m.Eta.Data[i] = 0
			case 1:
				m.Eta.Data[i] = -m.Eta.Data[i]
			}
		}
		for z := 0; z < Z; z++ { // community 2 scores nothing, word 9 never occurs
			for c2 := 0; c2 < C; c2++ {
				m.Eta.Set(2, c2, z, 0)
			}
			m.Phi.Row(z)[9] = 0
		}
		m.Rehydrate()
		rt := m.RankTable()
		rt.Row(4)[0] = math.Copysign(0, -1)
		sc := newRankScratch(C, Z)
		for w0 := 0; w0 < V; w0 += rankBlockLen {
			n := min(rankBlockLen, V-w0)
			var want [][]float64
			scoreWordBlockOracle(m, rt, w0, n, func(_ int, sel []float64, empty bool) {
				if empty {
					sel = nil
				}
				want = append(want, append([]float64(nil), sel...))
			})
			scoreWordBlock(m, rt, w0, n, sc, func(j int, sel []float64, empty bool) {
				if empty != (want[j] == nil) {
					t.Fatalf("Z=%d word %d: empty=%v, oracle %v", Z, w0+j, empty, want[j] == nil)
				}
				for c := range sel {
					if !empty && math.Float64bits(sel[c]) != math.Float64bits(want[j][c]) {
						t.Fatalf("Z=%d word %d community %d: bits %x, oracle %x", Z, w0+j, c, math.Float64bits(sel[c]), math.Float64bits(want[j][c]))
					}
				}
			})
		}
	}
}

package core

import (
	"math"
	"slices"
	"testing"

	"repro/internal/mathx"
	"repro/internal/rng"
	"repro/internal/sparse"
)

// cachedDecomposition is the per-user cache Rehydrate used to build — one
// smoothing base and one heap-allocated sparse residual (indices and
// values) per user — kept as the reference the on-demand decomposition must
// reproduce bit for bit.
func cachedDecomposition(m *Model) (base []float64, idx [][]int32, val [][]float64) {
	base = make([]float64, m.NumUsers)
	idx = make([][]int32, m.NumUsers)
	val = make([][]float64, m.NumUsers)
	for u := 0; u < m.NumUsers; u++ {
		row := m.Pi.Row(u)
		b := row[0]
		for _, v := range row {
			if v < b {
				b = v
			}
		}
		base[u] = b
		for c, v := range row {
			if v-b > 1e-12 {
				idx[u] = append(idx[u], int32(c))
				val[u] = append(val[u], v-b)
			}
		}
	}
	return base, idx, val
}

// decomposeModel is a model with random global blocks and membership rows
// of every shape the decomposition has to get right: trained-looking rows
// (a floor plus a few documents' mass), ties at the floor, entries within
// the 1e-12 residual threshold of it, all-equal rows, one-spike rows and
// dense rows with no repeated value.
func decomposeModel(users, C, Z int, seed uint64) *Model {
	r := rng.New(seed)
	m := &Model{
		Cfg:        Config{NumCommunities: C, NumTopics: Z}.WithDefaults(),
		NumUsers:   users,
		NumWords:   3,
		NumBuckets: 4,
		Pi:         sparse.NewDense(users, C),
		Theta:      sparse.NewDense(C, Z),
		Phi:        sparse.NewDense(Z, 3),
		Eta:        sparse.NewTensor3(C, C, Z),
		Nu:         make([]float64, 5),
		PopFreq:    sparse.NewDense(4, Z),
	}
	for _, block := range [][]float64{m.Theta.Data, m.Phi.Data, m.Eta.Data, m.Nu, m.PopFreq.Data} {
		for i := range block {
			block[i] = r.Float64()
		}
	}
	for u := 0; u < users; u++ {
		row := m.Pi.Row(u)
		floor := (0.01 + r.Float64()) / float64(4*C)
		for c := range row {
			row[c] = floor
		}
		switch u % 6 {
		case 0: // trained shape: a handful of documents above the floor
			for k := 0; k < 1+r.Intn(4); k++ {
				row[r.Intn(C)] += 1 / float64(3+r.Intn(20))
			}
		case 1: // ties at the floor on both sides of the residual threshold
			row[r.Intn(C)] += 1e-12
			row[r.Intn(C)] += 2e-12
			row[r.Intn(C)] += 0.5e-12
			row[r.Intn(C)] += 0.25
		case 2: // all equal: no residual at all
		case 3: // one spike
			row[r.Intn(C)] = 1 - float64(C-1)*floor
		case 4: // dense: every entry its own value, the minimum anywhere
			for c := range row {
				row[c] = r.Float64()
			}
		case 5: // the minimum is not the first entry, and repeats
			row[0] += 0.5
			row[C-1] = floor
		}
	}
	m.Rehydrate()
	return m
}

func requireVecEqual(t *testing.T, what string, got *sparse.SmoothedVec, dim int, base float64, idx []int32, val []float64) {
	t.Helper()
	if got.Dim != dim || math.Float64bits(got.Base) != math.Float64bits(base) || !slices.Equal(got.Idx, idx) {
		t.Fatalf("%s: decomposed to dim %d base %x idx %v, cached dim %d base %x idx %v",
			what, got.Dim, math.Float64bits(got.Base), got.Idx, dim, math.Float64bits(base), idx)
	}
	if len(got.Val) != len(val) {
		t.Fatalf("%s: %d residual values, cached %d", what, len(got.Val), len(val))
	}
	for k := range val {
		if math.Float64bits(got.Val[k]) != math.Float64bits(val[k]) {
			t.Fatalf("%s: residual %d is %x, cached %x", what, k, math.Float64bits(got.Val[k]), math.Float64bits(val[k]))
		}
	}
}

// TestOnDemandDecompositionMatchesCache: SmoothedVecFromRow on a row —
// into nil storage, into a stack buffer, and into storage too small
// for the residual — gives exactly the vector the per-user cache held.
func TestOnDemandDecompositionMatchesCache(t *testing.T) {
	for _, shape := range []struct{ users, C, Z int }{{90, 7, 3}, {60, 64, 5}, {30, 100, 2}, {12, 1, 2}} {
		m := decomposeModel(shape.users, shape.C, shape.Z, uint64(shape.C)*31+1)
		base, idx, val := cachedDecomposition(m)
		for u := 0; u < m.NumUsers; u++ {
			fresh := SmoothedVecFromRow(m.Pi.Row(u), nil, nil)
			requireVecEqual(t, "nil storage", &fresh, shape.C, base[u], idx[u], val[u])
			var buf residBuf
			onStack := buf.decompose(m.Pi.Row(u))
			requireVecEqual(t, "stack buffer", &onStack, shape.C, base[u], idx[u], val[u])
			small := SmoothedVecFromRow(m.Pi.Row(u), make([]int32, 0, 1), make([]float64, 0, 2))
			requireVecEqual(t, "undersized storage", &small, shape.C, base[u], idx[u], val[u])
		}
	}
	empty := SmoothedVecFromRow(nil, nil, nil)
	requireVecEqual(t, "empty row", &empty, 0, 0, nil, nil)
}

// TestDiffusionScoresMatchCachedDecomposition: every score that reads a
// membership vector — friendship, the per-topic diffusion logit by user id
// and by explicit rows — equals, bit for bit, the one computed from the
// cached vectors.
func TestDiffusionScoresMatchCachedDecomposition(t *testing.T) {
	m := decomposeModel(48, 9, 4, 5)
	C := m.Cfg.NumCommunities
	base, idx, val := cachedDecomposition(m)
	cached := func(u int) *sparse.SmoothedVec {
		return &sparse.SmoothedVec{Dim: C, Base: base[u], Idx: idx[u], Val: val[u]}
	}
	r := rng.New(77)
	feats := make([]float64, len(m.Nu))
	for trial := 0; trial < 2000; trial++ {
		u, v := r.Intn(m.NumUsers), r.Intn(m.NumUsers)
		z, b := r.Intn(m.Cfg.NumTopics), r.Intn(m.NumBuckets+2)-1
		var f []float64
		if trial%3 == 0 {
			for i := range feats {
				feats[i] = r.Float64()
			}
			f = feats
		}
		want := m.DiffusionLogitTopicVec(cached(u), cached(v), z, b, f)
		if got := m.DiffusionLogitTopic(u, v, z, b, f); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("DiffusionLogitTopic(%d,%d,%d,%d) = %x, from cached vectors %x", u, v, z, b, math.Float64bits(got), math.Float64bits(want))
		}
		urow, vrow := slices.Clone(m.Pi.Row(u)), slices.Clone(m.Pi.Row(v))
		if got := m.DiffusionLogitTopicRows(urow, vrow, z, b, f); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("DiffusionLogitTopicRows(%d,%d,%d,%d) = %x, from cached vectors %x", u, v, z, b, math.Float64bits(got), math.Float64bits(want))
		}
		wantF := mathx.Sigmoid(m.Cfg.FriendScale * cached(u).Dot(cached(v)))
		if got := m.FriendshipProb(u, v); math.Float64bits(got) != math.Float64bits(wantF) {
			t.Fatalf("FriendshipProb(%d,%d) = %x, from cached vectors %x", u, v, math.Float64bits(got), math.Float64bits(wantF))
		}
	}
}

// TestRehydrateIsIndependentOfUsers: the prediction caches hold nothing per
// user — their size and the allocations that build them are the same at 50
// users and at 5 000.
func TestRehydrateIsIndependentOfUsers(t *testing.T) {
	small, large := decomposeModel(50, 8, 4, 3), decomposeModel(5000, 8, 4, 3)
	if small.CacheBytes() != large.CacheBytes() {
		t.Fatalf("CacheBytes grows with users: %d at 50, %d at 5000", small.CacheBytes(), large.CacheBytes())
	}
	a := testing.AllocsPerRun(10, small.Rehydrate)
	b := testing.AllocsPerRun(10, large.Rehydrate)
	if a != b {
		t.Fatalf("Rehydrate allocates %.0f times at 50 users and %.0f at 5000", a, b)
	}
}

// TestPairScoresDoNotAllocate: a pair's rows decompose into stack storage,
// so the link-prediction loops and the diffusion endpoint allocate nothing
// per pair — dense 64-community rows included.
func TestPairScoresDoNotAllocate(t *testing.T) {
	m := decomposeModel(40, 64, 4, 9)
	if n := testing.AllocsPerRun(100, func() {
		m.FriendshipProb(1, 2)
		m.FriendshipProb(4, 10) // dense rows
		m.DiffusionLogitTopic(4, 10, 2, 1, nil)
	}); n != 0 {
		t.Fatalf("two friendship scores and a diffusion logit allocate %.0f times", n)
	}
}

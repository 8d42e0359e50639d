package core

import (
	"math"
	"slices"
	"testing"

	"repro/internal/rng"
	"repro/internal/sparse"
)

// requireClearTable holds a friendship table to the state it must be in
// between users: no user, no rows, and every dense entry +0 — the
// invariant that lets the next build write only its rows' supports.
func requireClearTable(t *testing.T, ft *friendTable) {
	t.Helper()
	if ft.user != -1 || len(ft.rows) != 0 {
		t.Fatalf("cleared table holds user %d with %d rows", ft.user, len(ft.rows))
	}
	for i, v := range ft.resid {
		if math.Float64bits(v) != 0 {
			t.Fatalf("cleared table: entry %d (row %d, community %d) is %v", i, i/ft.dim, i%ft.dim, v)
		}
	}
}

// randomSupport draws a sorted support over [0, dim) in which each
// community is present with probability p, with residuals count/den; a
// present residual is an explicit zero with probability pZero.
func randomSupport(r *rng.RNG, dim int, p, pZero, den float64) ([]int32, []float64) {
	var idx []int32
	var val []float64
	for c := 0; c < dim; c++ {
		if r.Float64() >= p {
			continue
		}
		v := float64(1+r.Intn(9)) / den
		if r.Float64() < pZero {
			v = 0
		}
		idx = append(idx, int32(c))
		val = append(val, v)
	}
	return idx, val
}

// TestFriendTableGatherEqualsMerge holds the table's two reads to the
// paths they replace, over random supports and the edge cases: a row's
// dot with π̂_u has SmoothedVec.DotSums' bits, and its entry at every
// community is residualAt on the counterparty's snapshot. The rows are
// added to one table, so a row that writes outside its own span shows too,
// and the table must be all zero once cleared. Then the same on a real
// state: buildFriendTable's rows are u's links in userFriendLinks /
// userNegFriendLinks order with their λ and their counterparty's snapshot.
func TestFriendTableGatherEqualsMerge(t *testing.T) {
	const dim = 24
	r := rng.New(11)
	full := func() ([]int32, []float64) { return randomSupport(r, dim, 1, 0, 37) }
	empty := func() ([]int32, []float64) { return nil, nil }
	sparseSup := func() ([]int32, []float64) { return randomSupport(r, dim, 0.3, 0, 23) }
	zeros := func() ([]int32, []float64) { return randomSupport(r, dim, 0.5, 0.4, 19) }
	type pair struct {
		name string
		u, v func() ([]int32, []float64)
	}
	pairs := []pair{
		{"empty-empty", empty, empty},
		{"empty-sparse", empty, sparseSup},
		{"sparse-empty", sparseSup, empty},
		{"full-full", full, full},
		{"full-sparse", full, sparseSup},
		{"sparse-full", sparseSup, full},
		{"explicit-zeros", zeros, zeros},
		{"disjoint", nil, nil},
		{"identical", nil, nil},
	}
	for i := 0; i < 40; i++ {
		pairs = append(pairs, pair{"random", sparseSup, sparseSup})
	}

	// A state with one snapshot per pair: all the table reads of it.
	n := len(pairs)
	st := &state{
		cfg:       Config{NumCommunities: dim, Rho: 0.05},
		nDoc:      make([]int, n+1),
		nAttr:     make([]int, n+1),
		piSnapIdx: make([][]int32, n+1),
		piSnapVal: make([][]float64, n+1),
		piSnapSum: make([]float64, n+1),
	}
	pus := make([]sparse.SmoothedVec, n)
	for i, p := range pairs {
		var ui, vi []int32
		var uv, vv []float64
		switch p.name {
		case "disjoint":
			ui, uv = randomSupport(r, dim, 0.5, 0, 29)
			for c := 0; c < dim; c++ {
				if !slices.Contains(ui, int32(c)) {
					vi = append(vi, int32(c))
					vv = append(vv, float64(c+1)/31)
				}
			}
		case "identical":
			ui, uv = randomSupport(r, dim, 0.5, 0.2, 29)
			vi = ui
			vv = append([]float64(nil), uv...)
			if len(vv) > 0 {
				vv[len(vv)/2] *= 3
			}
		default:
			ui, uv = p.u()
			vi, vv = p.v()
		}
		v := int32(i + 1)
		st.nDoc[v] = 5 + i
		st.piSnapIdx[v], st.piSnapVal[v] = vi, vv
		for _, x := range vv {
			st.piSnapSum[v] += x
		}
		pus[i] = sparse.SmoothedVec{Dim: dim, Base: 0.05 / 17.2, Idx: ui, Val: uv}
	}

	ft := friendTable{dim: dim, resid: make([]float64, n*dim)} // user 0's turn
	for i := range pairs {
		ft.add(st, int32(i+1), float64(i), i%2 == 0)
	}
	for i, p := range pairs {
		v := int32(i + 1)
		var pv sparse.SmoothedVec
		st.piSnap(v, &pv)
		pu := &pus[i]
		sumU := pu.ResidualSum()
		got, want := ft.dot(i, pu, sumU), pu.DotSums(&pv, sumU, st.piSnapSum[v])
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s (row %d): table dot %v (%#x), DotSums %v (%#x)", p.name, i, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		if ft.rows[i].base != pv.Base {
			t.Fatalf("%s: row base %v, snapshot base %v", p.name, ft.rows[i].base, pv.Base)
		}
		for c := 0; c < dim; c++ {
			got, want := ft.at(i, c), residualAt(pv.Idx, pv.Val, c)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s (row %d), community %d: table %v, residualAt %v", p.name, i, c, got, want)
			}
		}
	}
	ft.clear()
	requireClearTable(t, &ft)

	for _, sampler := range []string{SamplerExact, SamplerAlias} {
		cfg := testConfig().withDefaults()
		cfg.Sampler = sampler
		st := newState(testGraph(60, 4), cfg)
		sc := newScratch(cfg, rng.New(3))
		st.refreshCaches()
		st.sweepSerial(sc)
		st.refreshCaches()
		rows := 0
		for u := int32(0); u < int32(st.g.NumUsers); u++ {
			st.buildFriendTable(u, sc)
			type link struct {
				lam      float64
				other    int32
				positive bool
			}
			var want []link
			for _, li := range st.userFriendLinks[u] {
				want = append(want, link{st.lambda.get(int(li)), counterparty(st.g.Friends[li], u), true})
			}
			for _, li := range st.userNegFriendLinks[u] {
				want = append(want, link{st.lambdaNeg.get(int(li)), counterparty(st.negFriends[li], u), false})
			}
			if len(sc.ft.rows) != len(want) {
				t.Fatalf("%s: user %d has %d links, table %d rows", sampler, u, len(want), len(sc.ft.rows))
			}
			for i, w := range want {
				got := sc.ft.rows[i]
				var pv sparse.SmoothedVec
				st.piSnap(w.other, &pv)
				if got.lam != w.lam || got.positive != w.positive || got.base != pv.Base || got.sum != st.piSnapSum[w.other] {
					t.Fatalf("%s: user %d row %d is (λ %v, positive %v, base %v, sum %v), link to %d is (λ %v, positive %v, base %v, sum %v)",
						sampler, u, i, got.lam, got.positive, got.base, got.sum, w.other, w.lam, w.positive, pv.Base, st.piSnapSum[w.other])
				}
				idx, val := pv.Idx, pv.Val
				for c := 0; c < cfg.NumCommunities; c++ {
					if g, r := sc.ft.at(i, c), residualAt(idx, val, c); math.Float64bits(g) != math.Float64bits(r) {
						t.Fatalf("%s: user %d row %d, community %d: table %v, snapshot %v", sampler, u, i, c, g, r)
					}
				}
			}
			rows += len(want)
			sc.ft.clear()
			requireClearTable(t, &sc.ft)
		}
		if rows == 0 {
			t.Fatalf("%s: no user has a friendship link", sampler)
		}
		if len(sc.ft.resid) != st.maxFriendRows*cfg.NumCommunities {
			t.Fatalf("%s: table holds %d entries, want %d rows of %d", sampler, len(sc.ft.resid), st.maxFriendRows, cfg.NumCommunities)
		}
	}
}

// TestFriendTableClearAfterEveryUser runs production sampleUser user by
// user through serial sweeps of both samplers, the attribute extension
// included, and requires the scratch's table to be all zero after each:
// a table that kept anything would hand the next user, or the same user's
// next turn, rows it did not build.
func TestFriendTableClearAfterEveryUser(t *testing.T) {
	for _, sampler := range []string{SamplerExact, SamplerAlias} {
		cfg := testConfig().withDefaults()
		cfg.Sampler = sampler
		cfg.ModelAttributes = true
		st := newState(attrGraph(), cfg)
		sc := newScratch(cfg, rng.New(9))
		for s := 0; s < 3; s++ {
			st.refreshCaches()
			if st.als != nil {
				st.als.refresh(st, nil)
			}
			for u := int32(0); u < int32(st.g.NumUsers); u++ {
				st.sampleUser(u, sc)
				requireClearTable(t, &sc.ft)
			}
		}
		if len(sc.ft.resid) == 0 {
			t.Fatalf("%s: no table was ever built", sampler)
		}
	}
}

package serve

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/mathx"
	"repro/internal/rng"
	"repro/internal/shard"
	"repro/internal/sparse"
)

// categoricalLogScan is rng.CategoricalLog as it was before the draw
// became lazy: every candidate's Gumbel value in one ascending scan.
func categoricalLogScan(r *rng.RNG, logits []float64) int {
	best, bestV := -1, math.Inf(-1)
	for i, l := range logits {
		if math.IsNaN(l) {
			panic("NaN logit")
		}
		v := l - math.Log(r.Exp())
		if v > bestV {
			best, bestV = i, v
		}
	}
	if best < 0 {
		panic("empty logits")
	}
	return best
}

// foldInLogReference is the fold-in Gibbs kernel with nothing tabulated,
// bounded or skipped: every logarithm is taken where it is needed, per
// document and sweep, every candidate's friend terms are computed, and
// both draws scan every candidate. friendPi holds the friends' membership
// rows in request order. The production kernel must reproduce its draws,
// and so its result, bit for bit.
func foldInLogReference(m *core.Model, version uint64, docs [][]int32, friendPi [][]float64, seed uint64, sweeps, topK int) *FoldInResult {
	C, Z := m.Cfg.NumCommunities, m.Cfg.NumTopics
	rho := m.Cfg.Rho
	n := len(docs)
	den := float64(n) + float64(C)*rho
	cnt := make([]float64, C)
	docC := make([]int32, n)
	docZ := make([]int32, n)
	r := rng.New(seed)
	wordLL := make([][]float64, n)
	for i, doc := range docs {
		ll := make([]float64, Z)
		for z := 0; z < Z; z++ {
			phi := m.Phi.Row(z)
			var lw float64
			for _, w := range doc {
				lw += math.Log(phi[w] + 1e-300)
			}
			ll[z] = lw
		}
		wordLL[i] = ll
	}
	for i := range docC {
		docC[i] = int32(r.Intn(C))
		docZ[i] = int32(r.Intn(Z))
		cnt[docC[i]]++
	}
	logw := make([]float64, max(C, Z))
	fs := m.Cfg.FriendScale
	for sweep := 0; sweep < sweeps; sweep++ {
		for i := 0; i < n; i++ {
			c := int(docC[i])
			lw := logw[:Z]
			theta := m.Theta.Row(c)
			for z := 0; z < Z; z++ {
				lw[z] = math.Log(theta[z]+1e-300) + wordLL[i][z]
			}
			z := categoricalLogScan(r, lw)
			docZ[i] = int32(z)

			cnt[c]--
			lw = logw[:C]
			for cc := 0; cc < C; cc++ {
				lw[cc] = math.Log(cnt[cc]+rho) + math.Log(m.Theta.At(cc, z)+1e-300)
			}
			for _, piV := range friendPi {
				var s0 float64
				for cc := 0; cc < C; cc++ {
					s0 += (cnt[cc] + rho) * piV[cc]
				}
				s0 /= den
				for cc := 0; cc < C; cc++ {
					lw[cc] += mathx.LogSigmoid(fs * (s0 + piV[cc]/den))
				}
			}
			cNew := categoricalLogScan(r, lw)
			docC[i] = int32(cNew)
			cnt[cNew]++
		}
	}
	res := &FoldInResult{
		Version:      version,
		Pi:           make([]float64, C),
		TopicMixture: make([]float64, Z),
		DocCommunity: docC,
		DocTopic:     docZ,
	}
	for c := 0; c < C; c++ {
		res.Pi[c] = (cnt[c] + rho) / den
	}
	for c := 0; c < C; c++ {
		pc := res.Pi[c]
		if pc == 0 {
			continue
		}
		theta := m.Theta.Row(c)
		for z := 0; z < Z; z++ {
			res.TopicMixture[z] += pc * theta[z]
		}
	}
	for _, c := range mathx.TopKIndices(res.Pi, topK) {
		res.Top = append(res.Top, CommunityWeight{Community: c, Weight: res.Pi[c]})
	}
	return res
}

// TestFoldInTablesMatchLogKernel drives random requests (1–6 documents,
// 0–6 friends) through a full snapshot, through a shard snapshot that owns
// a third of the users and is handed the other friends' rows, through a
// snapshot patched from the full one by rows only (which shares its log Θ
// and log Φ tables), through one patched by Delta.Words (whose log Φ is the
// shared table with those words' runs recomputed) and through what a
// delta-Gibbs publish hands the engine — every global block re-estimated,
// so both tables rebuilt — and holds each result to the reference kernel's,
// which takes every logarithm where it needs it. The models cover a positive
// and a negative FriendScale (which swaps the end of a friend's row that
// bounds its term), a tiny ρ (logits hundreds apart) and ρ = 0 (−Inf
// logits for empty communities), and peaked friend rows, whose wide range
// is what makes the bounds loose. The friend term at a row's minimum is
// taken once per draw and reused for every entry with the same bits, so
// rows with no repeated value, a minimum that occurs once and rows
// holding both +0 and −0 are covered as well.
func TestFoldInTablesMatchLogKernel(t *testing.T) {
	for _, tc := range []struct {
		name        string
		friendScale float64
		rho         float64
		minDocs     int
		trials      int
		// row, when set, rewrites the rows of users 1, 4, 7, …; users
		// 0, 3, 6, … always hold peaked rows.
		row func(u int, row []float64)
	}{
		{"default", 0, -1, 1, 300, nil},
		{"negative-friend-scale", -6, -1, 1, 150, nil},
		{"tiny-rho", 9, 1e-200, 1, 150, nil},
		// With ρ = 0 a lone document leaves every community empty while it
		// is resampled: every logit is −Inf and the draw panics, before and
		// after. Two documents always leave one community.
		{"zero-rho", 3, 0, 2, 150, nil},
		// Every entry distinct: the term kept at the row's minimum is
		// reused at one candidate only.
		{"distinct-rows", 0, -1, 1, 150, func(u int, row []float64) {
			for c := range row {
				row[c] = float64(1+(c*37+u)%len(row)) / 1000
			}
		}},
		// The minimum occurs once, at a peak below the base, next to a peak
		// above it.
		{"lone-minimum", -6, -1, 1, 150, func(u int, row []float64) {
			for c := range row {
				row[c] = 1e-2
			}
			row[u%len(row)] = 1e-6
			row[(u+3)%len(row)] = 0.5
		}},
		// +0 and −0 are equal under == but not in their bits, and the term
		// is reused on equal bits only: which zero is the minimum depends
		// on the row.
		{"signed-zeros", 3, 0, 2, 150, func(u int, row []float64) {
			zero, other := 0.0, math.Copysign(0, -1)
			if u%2 == 0 {
				zero, other = other, zero
			}
			for c := range row {
				row[c] = zero
			}
			row[u%len(row)] = other
			row[(u+2)%len(row)] = other
			row[(u+1)%len(row)] = 0.75
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := SyntheticModel(90, 7, 5, 120, 11)
			if tc.friendScale != 0 {
				m.Cfg.FriendScale = tc.friendScale
			}
			if tc.rho >= 0 {
				m.Cfg.Rho = tc.rho
			}
			// A zero in Θ exercises the 1e-300 floor inside the table.
			m.Theta.Set(2, 3, 0)
			// Peaked rows: one community holds nearly all of the mass.
			for u := 0; u < m.NumUsers; u += 3 {
				row := m.Pi.Row(u)
				for c := range row {
					row[c] = 1e-4
				}
				row[u%len(row)] = 1 - 1e-4*float64(len(row)-1)
			}
			for u := 1; tc.row != nil && u < m.NumUsers; u += 3 {
				tc.row(u, m.Pi.Row(u))
			}
			testFoldInAgainstReference(t, m, tc.minDocs, tc.trials)
		})
	}
}

func testFoldInAgainstReference(t *testing.T, m *core.Model, minDocs, trials int) {
	C := m.Cfg.NumCommunities
	opts := Options{}.withDefaults()
	full := newSnapshot(m, nil, "full", 1, opts)
	lo, hi := 30, 60
	owned := newSnapshot(m.WithPi(sparse.NewDenseView(hi-lo, C, m.Pi.Data[lo*C:hi*C])), nil, "shard", 1, opts)
	owned.Shard = &shard.Info{Index: 1, Count: 3, UserLo: lo, UserHi: hi, TotalUsers: m.NumUsers}
	moved := m.WithPi(m.Pi.Clone())
	moved.Pi.Row(4)[1] += 0.125
	patched := PatchFrom(full, moved, nil, Delta{Users: []int32{4}})
	if &patched.logTheta[0] != &full.logTheta[0] || &patched.logPhi[0] != &full.logPhi[0] {
		t.Fatal("a user-only patch rebuilt the log Θ or log Φ table instead of sharing it")
	}
	// Every third word's column moves, one entry to zero (the 1e-300 floor).
	reworded := *m
	reworded.Phi = m.Phi.Clone()
	var words []int32
	for w := 0; w < m.NumWords; w += 3 {
		words = append(words, int32(w))
		for z := 0; z < reworded.Phi.Rows; z++ {
			reworded.Phi.Set(z, w, reworded.Phi.At(z, w)*float64(2+z))
		}
		reworded.Phi.Set(w%reworded.Phi.Rows, w, 0)
	}
	rewordedSnap := PatchFrom(full, &reworded, nil, Delta{Words: words})
	if rewordedSnap.Build().Kind != BuildPatched || &rewordedSnap.logPhi[0] == &full.logPhi[0] {
		t.Fatal("a Delta.Words patch must patch, into a log Φ table of its own")
	}
	if !reflect.DeepEqual(rewordedSnap.logPhi, logPhiTable(&reworded)) {
		t.Fatal("a Delta.Words patch left a log Φ table other than the one a full build makes")
	}
	// A delta-Gibbs publish: the engine is handed a model whose Θ and Φ were
	// re-estimated, finds that out from the bytes and builds from scratch.
	e := New(m, nil, Options{})
	defer e.Close()
	refined := *m
	refined.Theta, refined.Phi = m.Theta.Clone(), m.Phi.Clone()
	for i := range refined.Theta.Data {
		refined.Theta.Data[i] *= 1 + float64(i%5)/8
	}
	for i := range refined.Phi.Data {
		refined.Phi.Data[i] *= 1 + float64(i%7)/8
	}
	refined.Rehydrate()
	refinedSnap := e.BuildSnapshot(DefaultSnapshot, &refined, nil, nil)
	if b := refinedSnap.Build(); b.Kind != BuildFull || b.Reason != reasonGlobals {
		t.Fatalf("the re-estimated model was adopted as %+v, want a full build", b)
	}

	r := rng.New(2024)
	var lazy, total rng.LazyStats
	for trial := 0; trial < trials; trial++ {
		req := &FoldInRequest{Seed: r.Uint64(), Sweeps: 1 + r.Intn(12), TopK: 1 + r.Intn(C)}
		for d := minDocs + r.Intn(7-minDocs); d > 0; d-- {
			doc := make([]int32, 1+r.Intn(9))
			for i := range doc {
				doc[i] = int32(r.Intn(m.NumWords))
			}
			req.Docs = append(req.Docs, doc)
		}
		var rows, movedRows [][]float64
		for f := r.Intn(7); f > 0; f-- {
			v := r.Intn(m.NumUsers)
			req.Friends = append(req.Friends, int32(v))
			rows = append(rows, m.Pi.Row(v))
			movedRows = append(movedRows, moved.Pi.Row(v))
			if v < lo || v >= hi {
				req.FriendRows = append(req.FriendRows, FriendRow{User: int32(v), Row: m.Pi.Row(v)})
			}
		}
		want := foldInLogReference(m, 1, req.Docs, rows, req.Seed, req.Sweeps, req.TopK)
		for _, s := range []*Snapshot{full, owned} {
			got, err := foldIn(s, req, &lazy)
			if err != nil {
				t.Fatalf("trial %d on %s: %v", trial, s.Name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d on %s: production fold-in\n%+v\nreference kernel\n%+v", trial, s.Name, got, want)
			}
			total.Add(lazy)
		}
		for _, alt := range []struct {
			snap *Snapshot
			m    *core.Model
			rows [][]float64
		}{
			{patched, moved, movedRows},
			{rewordedSnap, &reworded, rows},
			{refinedSnap, &refined, rows},
		} {
			got, err := foldIn(alt.snap, req, &lazy)
			if err != nil {
				t.Fatalf("trial %d on a %s snapshot: %v", trial, alt.snap.Build().Kind, err)
			}
			if want := foldInLogReference(alt.m, alt.snap.Version, req.Docs, alt.rows, req.Seed, req.Sweeps, req.TopK); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d on a %s snapshot (%d words re-indexed): production fold-in\n%+v\nreference kernel\n%+v",
					trial, alt.snap.Build().Kind, alt.snap.Build().Words, got, want)
			}
		}
	}
	if total.Evaluated == 0 || total.Evaluated >= total.Considered {
		t.Fatalf("lazy draws evaluated %d of %d candidates; the bounds pruned nothing", total.Evaluated, total.Considered)
	}
}

// TestFoldInLazyShare pins, without a clock, how much of a fold-in the
// lazy draws actually compute on the shape cpd-bench sends (2 documents of
// 8 words, 10 sweeps, 3 friends a third of the id space apart, |C| = 64,
// |Z| = 32): every step offers 32 topic and 64 community candidates, and
// fewer than one in five may be evaluated. A bound that stops pruning — a
// looser friend-term bound, a coarser Gumbel cap — shows here first.
func TestFoldInLazyShare(t *testing.T) {
	const users, C, Z, words = 3000, 64, 32, 20000
	const requests, docs, docLen, sweeps, friends = 2000, 2, 8, 10, 3
	s := newSnapshot(SyntheticModel(users, C, Z, words, 2017), nil, "bench", 1, Options{}.withDefaults())
	r := rng.New(1)
	var lazy, total rng.LazyStats
	for i := 0; i < requests; i++ {
		req := &FoldInRequest{Seed: r.Uint64(), Sweeps: sweeps}
		for d := 0; d < docs; d++ {
			doc := make([]int32, docLen)
			for j := range doc {
				doc[j] = int32(r.Intn(words))
			}
			req.Docs = append(req.Docs, doc)
		}
		first := r.Intn(users)
		for f := 0; f < friends; f++ {
			req.Friends = append(req.Friends, int32((first+f*users/friends)%users))
		}
		if _, err := foldIn(s, req, &lazy); err != nil {
			t.Fatal(err)
		}
		total.Add(lazy)
	}
	if want := uint64(requests * docs * sweeps * (C + Z)); total.Considered != want {
		t.Fatalf("considered %d candidates, want %d", total.Considered, want)
	}
	t.Logf("evaluated %.1f %% of %d candidates", 100*total.Share(), total.Considered)
	if total.Share() >= 0.20 {
		t.Fatalf("fold-in evaluated %.1f %% of its candidates, want under 20 %%", 100*total.Share())
	}
}

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

// foldInLogReference is the fold-in Gibbs kernel as it was before the
// snapshot carried log Θ and the request log(k+ρ): every logarithm is
// taken where it is needed, per document and sweep. friendPi holds the
// friends' membership rows in request order. The tabulated kernel must
// reproduce its draws, and so its result, bit for bit.
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
			z := r.CategoricalLog(lw)
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
			cNew := r.CategoricalLog(lw)
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

// TestFoldInTablesMatchLogKernel drives random requests (1–5 documents,
// 0–3 friends) through a full snapshot, through a shard snapshot that owns
// a third of the users and is handed the other friends' rows, and through
// a snapshot patched from the full one (which shares its log Θ table), and
// holds each result to the reference kernel's.
func TestFoldInTablesMatchLogKernel(t *testing.T) {
	m := SyntheticModel(90, 7, 5, 120, 11)
	// A zero in Θ exercises the 1e-300 floor inside the table.
	m.Theta.Set(2, 3, 0)
	C := m.Cfg.NumCommunities
	opts := Options{}.withDefaults()
	full := newSnapshot(m, nil, "full", 1, opts)
	lo, hi := 30, 60
	owned := newSnapshot(m.WithPi(sparse.NewDenseView(hi-lo, C, m.Pi.Data[lo*C:hi*C])), nil, "shard", 1, opts)
	owned.Shard = &shard.Info{Index: 1, Count: 3, UserLo: lo, UserHi: hi, TotalUsers: m.NumUsers}
	moved := m.WithPi(m.Pi.Clone())
	moved.Pi.Row(4)[1] += 0.125
	patched := PatchFrom(full, moved, nil, Delta{Users: []int32{4}})
	if &patched.logTheta[0] != &full.logTheta[0] {
		t.Fatal("a user-only patch rebuilt the log Θ table instead of sharing it")
	}

	r := rng.New(2024)
	for trial := 0; trial < 300; trial++ {
		req := &FoldInRequest{Seed: r.Uint64(), Sweeps: 1 + r.Intn(12), TopK: 1 + r.Intn(C)}
		for d := 1 + r.Intn(5); d > 0; d-- {
			doc := make([]int32, 1+r.Intn(9))
			for i := range doc {
				doc[i] = int32(r.Intn(m.NumWords))
			}
			req.Docs = append(req.Docs, doc)
		}
		var rows, movedRows [][]float64
		for f := r.Intn(4); f > 0; f-- {
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
			got, err := foldIn(s, req)
			if err != nil {
				t.Fatalf("trial %d on %s: %v", trial, s.Name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d on %s: tabulated fold-in\n%+v\nreference kernel\n%+v", trial, s.Name, got, want)
			}
		}
		got, err := foldIn(patched, req)
		if err != nil {
			t.Fatalf("trial %d on the patched snapshot: %v", trial, err)
		}
		if want := foldInLogReference(moved, patched.Version, req.Docs, movedRows, req.Seed, req.Sweeps, req.TopK); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d on the patched snapshot: tabulated fold-in\n%+v\nreference kernel\n%+v", trial, got, want)
		}
	}
}

package serve

import (
	"repro/internal/core"
	"repro/internal/mathx"
	"repro/internal/sparse"
)

// RankIndex is the inverted index behind Engine.RankIn. It decomposes the
// Eq. 19 community score into per-word contributions:
//
//	score(c, q) = Σ_z rankTable[c][z] · p(z|q)
//
// with the per-word topic posterior mixture p(z|q) = 1/|q| Σ_{w∈q} p(z|w),
// p(z|w) ∝ φ_z,w. Under that (standard inverted-index) decomposition the
// score is a plain sum of word-community weights
//
//	S[c][w] = Σ_z rankTable[c][z] · p(z|w),
//
// so a query costs a walk over |q| posting lists instead of the full
// per-query K×|Z| scan (plus |q|×|Z| log-likelihood evaluations) of
// core.Model.RankCommunities. For single-word queries the decomposition is
// exact: softmax over log φ_z,w IS p(z|w). For multi-word queries it
// replaces the paper's product-of-words posterior with the word mixture —
// the usual bag-of-words relaxation that makes the score distributive.
//
// Posting lists keep only each word's perWord highest-scoring communities
// (perWord >= |C| keeps them all and makes single-word ranking exact);
// entries are stored descending by score. The lists of all words sit in
// one flat table: word w's list is comms[offsets[w]:offsets[w+1]] with
// the matching scores. The index depends on Θ, η and Φ only, so a snapshot
// patch — which changes membership rows and nothing else — shares its
// predecessor's index whole, and any other change rebuilds it.
type RankIndex struct {
	offsets []int32 // len |W|+1
	comms   []int32
	scores  []float64
}

// rankBlockLen is the word-block width of the index builder: transient
// buffers stay O(block·(|Z|+|C|)) even for 50k-word vocabularies, and φ
// rows are walked contiguously.
const rankBlockLen = 256

// rankScratch holds the block scorer's transient buffers, reused across
// word blocks.
type rankScratch struct {
	pz     []float64 // pz[z*block+j] = p(z | w0+j)
	colSum []float64 // Σ_z φ_z,w per block column
	wordSc []float64 // wordSc[c*block+j] = S[c][w0+j]
	sel    []float64 // one word's dense score vector, len |C|
	nz     []int     // topics with a non-zero rank-table entry, one community at a time
}

func newRankScratch(C, Z int) *rankScratch {
	return &rankScratch{
		pz:     make([]float64, Z*rankBlockLen),
		colSum: make([]float64, rankBlockLen),
		wordSc: make([]float64, C*rankBlockLen),
		sel:    make([]float64, C),
		nz:     make([]int, 0, Z),
	}
}

// scoreWordBlock computes S[·][w] for words [w0, w0+n) and hands each
// word's dense score vector to emit (empty=true for words that never
// occur under any topic).
func scoreWordBlock(m *core.Model, rt *sparse.Dense, w0, n int, sc *rankScratch, emit func(j int, sel []float64, empty bool)) {
	Z, C := len(sc.pz)/rankBlockLen, len(sc.sel)
	for j := 0; j < n; j++ {
		sc.colSum[j] = 0
	}
	for z := 0; z < Z; z++ {
		phi := m.Phi.Row(z)[w0 : w0+n]
		dst := sc.pz[z*rankBlockLen : z*rankBlockLen+n]
		for j, v := range phi {
			dst[j] = v
			sc.colSum[j] += v
		}
	}
	for z := 0; z < Z; z++ {
		dst := sc.pz[z*rankBlockLen : z*rankBlockLen+n]
		for j := range dst {
			if sc.colSum[j] > 0 {
				dst[j] /= sc.colSum[j]
			}
		}
	}
	for c := 0; c < C; c++ {
		dst := sc.wordSc[c*rankBlockLen : c*rankBlockLen+n]
		for j := range dst {
			dst[j] = 0
		}
		// Each dst[j] is the sum over the topics with a non-zero rank-table
		// entry, added in ascending z. Four topics a pass keep the running
		// sum in a register between them — same additions, same order, a
		// quarter of the loads and stores of dst.
		row := rt.Row(c)
		nz := sc.nz[:0]
		for z, rv := range row {
			if rv != 0 {
				nz = append(nz, z)
			}
		}
		col := func(z int) []float64 { return sc.pz[z*rankBlockLen:][:len(dst)] }
		for ; len(nz) >= 4; nz = nz[4:] {
			r0, r1, r2, r3 := row[nz[0]], row[nz[1]], row[nz[2]], row[nz[3]]
			s0, s1, s2, s3 := col(nz[0]), col(nz[1]), col(nz[2]), col(nz[3])
			for j, d := range dst {
				d += r0 * s0[j]
				d += r1 * s1[j]
				d += r2 * s2[j]
				d += r3 * s3[j]
				dst[j] = d
			}
		}
		for _, z := range nz {
			rv, src := row[z], col(z)
			for j := range dst {
				dst[j] += rv * src[j]
			}
		}
	}
	for j := 0; j < n; j++ {
		if sc.colSum[j] <= 0 {
			emit(j, nil, true)
			continue
		}
		for c := 0; c < C; c++ {
			sc.sel[c] = sc.wordSc[c*rankBlockLen+j]
		}
		emit(j, sc.sel, false)
	}
}

// buildRankIndex precomputes every word's posting list from the model's
// rank table and topic-word distributions, into one flat table.
func buildRankIndex(m *core.Model, perWord int) *RankIndex {
	C, Z, V := m.Cfg.NumCommunities, m.Cfg.NumTopics, m.NumWords
	if perWord <= 0 || perWord > C {
		perWord = C
	}
	rt := m.RankTable()
	sc := newRankScratch(C, Z)
	offsets := make([]int32, V+1)
	comms := make([]int32, 0, V*perWord)
	scores := make([]float64, 0, V*perWord)
	for w0 := 0; w0 < V; w0 += rankBlockLen {
		n := V - w0
		if n > rankBlockLen {
			n = rankBlockLen
		}
		scoreWordBlock(m, rt, w0, n, sc, func(j int, sel []float64, empty bool) {
			if !empty {
				for _, c := range mathx.TopKIndices(sel, perWord) {
					comms = append(comms, int32(c))
					scores = append(scores, sel[c])
				}
			}
			offsets[w0+j+1] = int32(len(comms))
		})
	}
	return &RankIndex{offsets: offsets, comms: comms, scores: scores}
}

// Postings returns word w's posting list views (communities and scores,
// descending by score). The slices are owned by the index.
func (ix *RankIndex) Postings(w int32) ([]int32, []float64) {
	lo, hi := ix.offsets[w], ix.offsets[w+1]
	return ix.comms[lo:hi:hi], ix.scores[lo:hi:hi]
}

// Accumulate adds each query word's posting list into the dense score
// accumulator (len |C|). The caller zeroes scores beforehand; ranking is
// invariant to the 1/|q| normalization, which is therefore skipped.
func (ix *RankIndex) Accumulate(scores []float64, query []int32) {
	for _, w := range query {
		lo, hi := ix.offsets[w], ix.offsets[w+1]
		ws := ix.scores[lo:hi]
		for i, c := range ix.comms[lo:hi] {
			scores[c] += ws[i]
		}
	}
}

// Bytes is the index's heap footprint. An index shared with other
// snapshots is counted here too — it is a per-snapshot working-set
// estimate, not exclusive ownership.
func (ix *RankIndex) Bytes() int64 {
	return 4*int64(len(ix.offsets)+len(ix.comms)) + 8*int64(len(ix.scores))
}

// PostingsPerWord reports the index's effective posting-list bound (the
// longest stored list).
func (ix *RankIndex) PostingsPerWord() int {
	maxLen := 0
	for w := 1; w < len(ix.offsets); w++ {
		maxLen = max(maxLen, int(ix.offsets[w]-ix.offsets[w-1]))
	}
	return maxLen
}

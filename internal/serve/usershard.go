package serve

import (
	"runtime"
	"slices"
	"sync"

	"repro/internal/core"
)

// userIndex is the per-snapshot user index: every user's top-K community
// memberships in one flat table, row u at u*topK, and per community the
// number of rows holding it (its member count).
//
// Membership queries for k <= topK read the precomputed entries; the
// prefix of a top-K list is exactly the top-k list (mathx.TopKIndices
// equals its selection-sort reference for every input, whose k-th round
// does not depend on how many follow, so the prefix property is
// inherited), and served results are bit-identical to the model scan.
// A community's members are the users whose row holds it; members scans
// the table in ascending user order, the ordering contract of
// core.Model.CommunityMembers.
//
// The table and the counts are immutable once built; patchUserIndex
// derives a successor by copying both and rewriting only changed and
// appended rows.
type userIndex struct {
	topK   int     // entries stored per user: min(memberTopK, |C|)
	users  int     // users indexed
	comms  []int32 // [u*topK + j] = j-th top community of user u
	counts []int   // community -> rows holding it
}

// buildUserIndex precomputes every user's top memberships.
func buildUserIndex(m *core.Model) *userIndex {
	topK := min(memberTopK, m.Cfg.NumCommunities)
	ix := &userIndex{
		topK:   topK,
		users:  m.NumUsers,
		comms:  make([]int32, m.NumUsers*topK),
		counts: make([]int, m.Cfg.NumCommunities),
	}
	ix.fillRows(m, 0, m.NumUsers)
	for _, c := range ix.comms {
		ix.counts[c]++
	}
	return ix
}

// patchUserIndex derives model m's user index from prev: the table is
// copied, the dirty rows and the appended rows [prev.users, m.NumUsers)
// are recomputed, and each rewritten row moves the counts by its old and
// new entries.
//
// dirty must be ascending, duplicate-free, and < prev.users (patchFrom
// normalizes it). prev must have the same topK and community count and at
// most m.NumUsers users — callers fall back to buildUserIndex otherwise.
// The result is bit-identical to buildUserIndex(m) provided dirty
// covers every user whose Pi row changed.
func patchUserIndex(prev *userIndex, m *core.Model, dirty []int32) *userIndex {
	ix := &userIndex{
		topK:   prev.topK,
		users:  m.NumUsers,
		comms:  make([]int32, m.NumUsers*prev.topK),
		counts: slices.Clone(prev.counts),
	}
	copy(ix.comms, prev.comms)
	for _, u := range dirty {
		for _, c := range ix.row(int(u)) {
			ix.counts[c]--
		}
		ix.setRow(m, int(u))
		for _, c := range ix.row(int(u)) {
			ix.counts[c]++
		}
	}
	ix.fillRows(m, prev.users, m.NumUsers)
	for _, c := range ix.comms[prev.users*ix.topK:] {
		ix.counts[c]++
	}
	return ix
}

// fillRows computes the rows of users [lo, hi), in parallel over
// GOMAXPROCS contiguous blocks. Every row is a pure function of its Π
// row, so the table does not depend on the block count.
func (ix *userIndex) fillRows(m *core.Model, lo, hi int) {
	blocks := min(runtime.GOMAXPROCS(0), hi-lo)
	var wg sync.WaitGroup
	for b := 0; b < blocks; b++ {
		wg.Add(1)
		go func(from, to int) {
			defer wg.Done()
			for u := from; u < to; u++ {
				ix.setRow(m, u)
			}
		}(lo+(hi-lo)*b/blocks, lo+(hi-lo)*(b+1)/blocks)
	}
	wg.Wait()
}

func (ix *userIndex) setRow(m *core.Model, u int) {
	row := ix.row(u)
	for j, c := range m.TopCommunities(u, ix.topK) {
		row[j] = int32(c)
	}
}

// row returns user u's stored top communities (a view into the table).
func (ix *userIndex) row(u int) []int32 {
	return ix.comms[u*ix.topK : (u+1)*ix.topK]
}

// top returns user u's top-k communities when k is within the precomputed
// depth (ok=false sends the caller to the model scan).
func (ix *userIndex) top(u, k int) ([]int32, bool) {
	if k > ix.topK {
		return nil, false
	}
	return ix.row(u)[:k], true
}

// members returns the first n users, ascending, having community c among
// their top-K memberships (nil when there are none).
func (ix *userIndex) members(c, n int) []int {
	n = min(n, ix.counts[c])
	if n <= 0 {
		return nil
	}
	out := make([]int, 0, n)
	for u := 0; len(out) < n && u < ix.users; u++ {
		if slices.Contains(ix.row(u), int32(c)) {
			out = append(out, u)
		}
	}
	return out
}

// memberCount returns how many users have community c among their top-K
// memberships.
func (ix *userIndex) memberCount(c int) int { return ix.counts[c] }

// bytes is the index's heap footprint. A patched successor copies both
// arrays, so nothing is shared with other snapshots.
func (ix *userIndex) bytes() int64 {
	return 4*int64(len(ix.comms)) + 8*int64(len(ix.counts))
}

package serve

import (
	"sync"

	"repro/internal/core"
)

// userIndex is the per-snapshot sharded user index: users partition by id
// modulo the shard count, and each shard stores its users' top-K
// community memberships in one flat buffer. Sharding buys two things:
// the index builds shard-parallel (snapshot construction is on the
// hot-swap path), and user-scoped state stays partitioned — a layout the
// fold-in registry and per-shard eviction can grow into without a global
// lock or a resize of one giant array.
//
// Membership queries for k <= topK read the precomputed entries; the
// prefix of a top-K list is exactly the top-k list (mathx.TopKIndices
// equals its selection-sort reference for every input, whose k-th round
// does not depend on how many follow, so the prefix property is
// inherited), and served results are bit-identical to the model scan.
// Community member lists are derived from the same entries in ascending
// user order, preserving the ordering contract of
// core.Model.CommunityMembers.
//
// Shard buffers and member lists are immutable once built, so a derived
// index can share them with its predecessor: patchUserIndex copies only
// shards holding changed or appended users and only the member lists
// those users actually moved in or out of.
type userIndex struct {
	shardCount int
	topK       int // entries actually stored per user: min(MemberTopK, |C|)
	users      int // total users indexed
	shards     []userShard

	memberLists [][]int // community -> member users, ascending
}

type userShard struct {
	users int     // users in this shard
	comms []int32 // [slot*topK + j] = j-th top community of the slot's user
}

// buildUserIndex precomputes every user's top memberships, one goroutine
// per shard.
func buildUserIndex(m *core.Model, shardCount, topK int) *userIndex {
	if shardCount < 1 {
		shardCount = 1
	}
	C := m.Cfg.NumCommunities
	if topK > C {
		topK = C
	}
	ix := &userIndex{
		shardCount: shardCount,
		topK:       topK,
		users:      m.NumUsers,
		shards:     make([]userShard, shardCount),
	}
	var wg sync.WaitGroup
	for sh := 0; sh < shardCount; sh++ {
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			n := (m.NumUsers - sh + shardCount - 1) / shardCount
			shard := &ix.shards[sh]
			shard.users = n
			shard.comms = make([]int32, n*topK)
			for slot := 0; slot < n; slot++ {
				u := sh + slot*shardCount
				for j, c := range m.TopCommunities(u, topK) {
					shard.comms[slot*topK+j] = int32(c)
				}
			}
		}(sh)
	}
	wg.Wait()

	// Member lists are sized by a counting pass and carved out of one
	// arena (capacity clipped: a patched successor never appends in place).
	counts := make([]int, C)
	for sh := range ix.shards {
		for _, c := range ix.shards[sh].comms {
			counts[c]++
		}
	}
	arena := make([]int, m.NumUsers*topK)
	ix.memberLists = make([][]int, C)
	off := 0
	for c, n := range counts {
		if n > 0 { // a community nobody is in keeps its nil list
			ix.memberLists[c] = arena[off : off : off+n]
			off += n
		}
	}
	for u := 0; u < m.NumUsers; u++ {
		for _, c := range ix.userTop(u) {
			ix.memberLists[c] = append(ix.memberLists[c], u)
		}
	}
	return ix
}

// patchUserIndex derives model m's user index from prev. Shards holding
// no changed or appended users share their predecessor's flat buffer;
// the rest copy it and recompute only the changed slots (plus appended
// slots). Member lists are copy-on-write per community: each changed
// user's old and new top-K are diffed into remove/add edit sets, and
// only communities with a non-empty edit set rebuild their list.
//
// dirty must be ascending, duplicate-free, and < prev.users (PatchFrom
// normalizes it); users with ids in [prev.users, m.NumUsers) are
// implicitly new. prev must have the same shard count, topK, and
// community count and at most m.NumUsers users — callers fall back to
// buildUserIndex otherwise. The result is bit-identical to
// buildUserIndex(m, ...) provided dirty covers every user whose Pi row
// changed.
func patchUserIndex(prev *userIndex, m *core.Model, dirty []int32) *userIndex {
	shardCount, topK := prev.shardCount, prev.topK
	newN := m.NumUsers
	ix := &userIndex{
		shardCount: shardCount,
		topK:       topK,
		users:      newN,
		shards:     make([]userShard, shardCount),
	}
	perShard := make([][]int32, shardCount)
	for _, u := range dirty {
		sh := int(u) % shardCount
		perShard[sh] = append(perShard[sh], u)
	}
	var wg sync.WaitGroup
	for sh := 0; sh < shardCount; sh++ {
		oldCount := prev.shards[sh].users
		newCount := (newN - sh + shardCount - 1) / shardCount
		if newCount == oldCount && len(perShard[sh]) == 0 {
			ix.shards[sh] = prev.shards[sh] // immutable: safe to share
			continue
		}
		wg.Add(1)
		go func(sh, oldCount, newCount int) {
			defer wg.Done()
			shard := &ix.shards[sh]
			shard.users = newCount
			shard.comms = make([]int32, newCount*topK)
			copy(shard.comms, prev.shards[sh].comms)
			for _, u := range perShard[sh] {
				slot := int(u) / shardCount
				for j, c := range m.TopCommunities(int(u), topK) {
					shard.comms[slot*topK+j] = int32(c)
				}
			}
			for slot := oldCount; slot < newCount; slot++ {
				u := sh + slot*shardCount
				for j, c := range m.TopCommunities(u, topK) {
					shard.comms[slot*topK+j] = int32(c)
				}
			}
		}(sh, oldCount, newCount)
	}
	wg.Wait()

	// Member-list edit sets stay ascending per community because explicit
	// dirty users (ascending, < prev.users) precede appended users
	// (ascending, >= prev.users).
	C := len(prev.memberLists)
	removes := make([][]int, C)
	adds := make([][]int, C)
	for _, u32 := range dirty {
		u := int(u32)
		oldTop, newTop := prev.userTop(u), ix.userTop(u)
		for _, c := range oldTop {
			if !topContains(newTop, c) {
				removes[c] = append(removes[c], u)
			}
		}
		for _, c := range newTop {
			if !topContains(oldTop, c) {
				adds[c] = append(adds[c], u)
			}
		}
	}
	for u := prev.users; u < newN; u++ {
		for _, c := range ix.userTop(u) {
			adds[c] = append(adds[c], u)
		}
	}
	ix.memberLists = make([][]int, C)
	copy(ix.memberLists, prev.memberLists)
	for c := 0; c < C; c++ {
		if len(removes[c]) == 0 && len(adds[c]) == 0 {
			continue
		}
		ix.memberLists[c] = applyMemberEdits(prev.memberLists[c], removes[c], adds[c])
	}
	return ix
}

func topContains(top []int32, c int32) bool {
	for _, x := range top {
		if x == c {
			return true
		}
	}
	return false
}

// applyMemberEdits rebuilds one community's member list from its
// predecessor plus ascending remove/add user sets. The sets are disjoint
// from each other, removes ⊆ list, and adds ∩ list = ∅ (a user whose
// membership persists appears in neither).
func applyMemberEdits(list, removes, adds []int) []int {
	out := make([]int, 0, len(list)-len(removes)+len(adds))
	ri, ai := 0, 0
	for _, u := range list {
		for ai < len(adds) && adds[ai] < u {
			out = append(out, adds[ai])
			ai++
		}
		if ri < len(removes) && removes[ri] == u {
			ri++
			continue
		}
		out = append(out, u)
	}
	out = append(out, adds[ai:]...)
	return out
}

// userTop returns user u's stored top communities (a view into the
// shard's flat buffer).
func (ix *userIndex) userTop(u int) []int32 {
	shard := &ix.shards[u%ix.shardCount]
	slot := u / ix.shardCount
	return shard.comms[slot*ix.topK : (slot+1)*ix.topK]
}

// top returns user u's top-k communities when k is within the precomputed
// depth (ok=false sends the caller to the model scan).
func (ix *userIndex) top(u, k int) ([]int32, bool) {
	if k > ix.topK {
		return nil, false
	}
	return ix.userTop(u)[:k], true
}

// members returns community c's member list (users having c among their
// top-K memberships, ascending user id).
func (ix *userIndex) members(c int) []int { return ix.memberLists[c] }

// memberCount returns community c's member-list length.
func (ix *userIndex) memberCount(c int) int { return len(ix.memberLists[c]) }

// bytes estimates the index's heap footprint. Buffers shared with other
// snapshots are counted in each — a working-set estimate, not exclusive
// ownership.
func (ix *userIndex) bytes() int64 {
	var n int64
	for i := range ix.shards {
		n += 4 * int64(len(ix.shards[i].comms))
	}
	for _, l := range ix.memberLists {
		n += 8 * int64(len(l))
	}
	return n
}

// Package socialgraph implements the paper's Definition 1: a social graph
// G = (U, D, F, E) of users, user-published documents, directed friendship
// links between users and time-stamped diffusion links between documents
// (tweet→retweet in Twitter, citing→cited paper in DBLP). It provides the
// adjacency indexes the Gibbs sampler iterates over (Λ_u, Λ_i), the
// individual-preference features of Sect. 3.1 (user popularity and
// activeness), dataset statistics (Table 3) and (de)serialisation.
package socialgraph

import (
	"fmt"
	"sort"
)

// Doc is a user-published document: a tweet or a paper title, reduced to
// vocabulary ids, with the publication timestamp used by the
// topic-popularity diffusion factor.
type Doc struct {
	User  int32
	Time  int64
	Words []int32
}

// FriendLink is a directed friendship link F_uv: u follows v (Twitter) or
// u co-authors with v (DBLP; stored in both directions).
type FriendLink struct {
	U, V int32
}

// DiffLink is a directed diffusion link E_ij at time T: document I diffuses
// (retweets / cites) document J.
type DiffLink struct {
	I, J int32
	T    int64
}

// Graph is the full social graph. NumWords is the vocabulary size |W|; the
// synthetic generator produces anonymous word ids, while real-text loaders
// carry a corpus.Vocabulary alongside.
//
// Attrs optionally carries categorical attribute tokens per user (the
// paper's future-work "other types of X" — e.g. Facebook profile
// attributes); NumAttrs is the attribute vocabulary size. Both are zero on
// attribute-free graphs.
type Graph struct {
	NumUsers int
	NumWords int
	NumAttrs int
	Docs     []Doc
	Friends  []FriendLink
	Diffs    []DiffLink
	Attrs    [][]int32 // per-user attribute tokens (nil when unused)

	// Lazily built indexes (see BuildIndexes).
	userDocs   [][]int32
	friendAdj  [][]int32
	docDiffs   [][]int32
	indexesOK  bool
	featsOK    bool
	popularity []float64
	activeness []float64
}

// Stats summarizes a graph in the shape of the paper's Table 3.
type Stats struct {
	Users, FriendLinks, DiffLinks, Docs, Words int
}

// Stats returns the Table-3 statistics of g.
func (g *Graph) Stats() Stats {
	return Stats{
		Users:       g.NumUsers,
		FriendLinks: len(g.Friends),
		DiffLinks:   len(g.Diffs),
		Docs:        len(g.Docs),
		Words:       g.NumWords,
	}
}

// Validate checks referential integrity: every link endpoint and document
// field must be in range, and no document may be empty. It returns the
// first problem found.
func (g *Graph) Validate() error {
	if g.NumUsers < 0 || g.NumWords < 0 {
		return fmt.Errorf("socialgraph: negative dimensions (users=%d words=%d)", g.NumUsers, g.NumWords)
	}
	for i, d := range g.Docs {
		if d.User < 0 || int(d.User) >= g.NumUsers {
			return fmt.Errorf("socialgraph: doc %d has out-of-range user %d", i, d.User)
		}
		if len(d.Words) == 0 {
			return fmt.Errorf("socialgraph: doc %d is empty", i)
		}
		for _, w := range d.Words {
			if w < 0 || int(w) >= g.NumWords {
				return fmt.Errorf("socialgraph: doc %d has out-of-range word %d", i, w)
			}
		}
	}
	for i, f := range g.Friends {
		if f.U < 0 || int(f.U) >= g.NumUsers || f.V < 0 || int(f.V) >= g.NumUsers {
			return fmt.Errorf("socialgraph: friendship link %d (%d->%d) out of range", i, f.U, f.V)
		}
		if f.U == f.V {
			return fmt.Errorf("socialgraph: friendship link %d is a self-loop on user %d", i, f.U)
		}
	}
	for i, e := range g.Diffs {
		if e.I < 0 || int(e.I) >= len(g.Docs) || e.J < 0 || int(e.J) >= len(g.Docs) {
			return fmt.Errorf("socialgraph: diffusion link %d (%d->%d) out of range", i, e.I, e.J)
		}
		if e.I == e.J {
			return fmt.Errorf("socialgraph: diffusion link %d is a self-loop on doc %d", i, e.I)
		}
	}
	if g.Attrs != nil {
		if len(g.Attrs) != g.NumUsers {
			return fmt.Errorf("socialgraph: Attrs has %d entries for %d users", len(g.Attrs), g.NumUsers)
		}
		for u, as := range g.Attrs {
			for _, a := range as {
				if a < 0 || int(a) >= g.NumAttrs {
					return fmt.Errorf("socialgraph: user %d has out-of-range attribute %d", u, a)
				}
			}
		}
	}
	return nil
}

// BuildIndexes constructs the adjacency indexes; it is idempotent and is
// called automatically by the accessors below.
func (g *Graph) BuildIndexes() {
	if g.indexesOK {
		return
	}
	g.userDocs = make([][]int32, g.NumUsers)
	for i, d := range g.Docs {
		g.userDocs[d.User] = append(g.userDocs[d.User], int32(i))
	}
	// Friendship neighborhood Λ_u: users v with (u,v) or (v,u) in F,
	// deduplicated.
	g.friendAdj = make([][]int32, g.NumUsers)
	for _, f := range g.Friends {
		g.friendAdj[f.U] = append(g.friendAdj[f.U], f.V)
		g.friendAdj[f.V] = append(g.friendAdj[f.V], f.U)
	}
	for u := range g.friendAdj {
		g.friendAdj[u] = dedupSorted(g.friendAdj[u])
	}
	// Diffusion neighborhood Λ_i: ids of diffusion links incident to doc i
	// (either side).
	g.docDiffs = make([][]int32, len(g.Docs))
	for k, e := range g.Diffs {
		g.docDiffs[e.I] = append(g.docDiffs[e.I], int32(k))
		if e.J != e.I {
			g.docDiffs[e.J] = append(g.docDiffs[e.J], int32(k))
		}
	}
	g.indexesOK = true
}

func dedupSorted(xs []int32) []int32 {
	if len(xs) < 2 {
		return xs
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	out := xs[:1]
	for _, x := range xs[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

// UserDocs returns the document ids published by user u.
func (g *Graph) UserDocs(u int) []int32 {
	g.BuildIndexes()
	return g.userDocs[u]
}

// FriendNeighbors returns Λ_u: the deduplicated friendship neighborhood of
// user u (both link directions).
func (g *Graph) FriendNeighbors(u int) []int32 {
	g.BuildIndexes()
	return g.friendAdj[u]
}

// DocDiffLinks returns Λ_i: the ids (into Diffs) of diffusion links
// incident to document i.
func (g *Graph) DocDiffLinks(i int) []int32 {
	g.BuildIndexes()
	return g.docDiffs[i]
}

// InvalidateIndexes must be called after mutating Docs/Friends/Diffs so the
// lazily built indexes are rebuilt.
func (g *Graph) InvalidateIndexes() {
	g.indexesOK = false
	g.featsOK = false
}

// DropUsersWithoutDocs removes users that have no documents (the paper's
// final preprocessing step), remapping user ids densely and dropping
// friendship links that lose an endpoint. It returns the number of users
// removed.
func (g *Graph) DropUsersWithoutDocs() int {
	hasDoc := make([]bool, g.NumUsers)
	for _, d := range g.Docs {
		hasDoc[d.User] = true
	}
	remap := make([]int32, g.NumUsers)
	next := int32(0)
	removed := 0
	for u := 0; u < g.NumUsers; u++ {
		if hasDoc[u] {
			remap[u] = next
			next++
		} else {
			remap[u] = -1
			removed++
		}
	}
	if removed == 0 {
		return 0
	}
	for i := range g.Docs {
		g.Docs[i].User = remap[g.Docs[i].User]
	}
	kept := g.Friends[:0]
	for _, f := range g.Friends {
		if remap[f.U] >= 0 && remap[f.V] >= 0 {
			kept = append(kept, FriendLink{remap[f.U], remap[f.V]})
		}
	}
	g.Friends = kept
	if g.Attrs != nil {
		newAttrs := make([][]int32, next)
		for u, as := range g.Attrs {
			if remap[u] >= 0 {
				newAttrs[remap[u]] = as
			}
		}
		g.Attrs = newAttrs
	}
	g.NumUsers = int(next)
	g.InvalidateIndexes()
	return removed
}

package baselines

import (
	"runtime"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/socialgraph"
	"repro/internal/sparse"
)

// PLPOptions tunes the parallel label-propagation baseline.
type PLPOptions struct {
	// Seed drives the tie-break hash. Two runs with the same seed and
	// graph produce bit-identical labels for ANY shard count.
	Seed uint64
	// Shards is the number of contiguous node ranges swept in parallel
	// (0 = GOMAXPROCS). Purely a throughput knob: the sweep is
	// synchronous (Jacobi-style), so shard boundaries never change the
	// result.
	Shards int
}

// plpMaxSweeps caps the propagation. Synchronous updates can oscillate on
// bipartite-ish structure; the keep-current damping handles most of it,
// the cap handles the rest.
const plpMaxSweeps = 64

// PLPResult is the propagation outcome: one dense community label per
// node, labels numbered by first appearance in node order.
type PLPResult struct {
	Labels      []int32 `json:"labels"`
	Communities int     `json:"communities"`
	Sweeps      int     `json:"sweeps"`
	Converged   bool    `json:"converged"`
}

// PLP is the parallel label-propagation community detector — the cheap
// structural baseline the quality layer scores against the trained model,
// and an optional warm start for fresh training runs. Every node starts
// in its own community; each sweep reassigns every node to the label the
// plurality of its neighbors held at the START of the sweep (synchronous
// update), keeping the current label when it ties for the plurality and
// breaking remaining ties by a seeded hash. Convergence is zero moves.
//
// The synchronous update is what makes the decomposition deterministic:
// a node's new label depends only on the previous sweep's labels, never
// on whether a shard-mate was updated first, so any Shards value — and
// any goroutine schedule — yields bit-identical labels per seed.
func PLP(numUsers int, friends []socialgraph.FriendLink, opts PLPOptions) *PLPResult {
	shards := opts.Shards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if shards > numUsers {
		shards = numUsers
	}
	res := &PLPResult{Labels: make([]int32, numUsers)}
	if numUsers == 0 {
		return res
	}

	// CSR adjacency over the undirected view; self-loops dropped,
	// duplicate links kept (they just weight the edge, deterministically).
	deg := make([]int32, numUsers+1)
	for _, f := range friends {
		if f.U == f.V || f.U < 0 || f.V < 0 || int(f.U) >= numUsers || int(f.V) >= numUsers {
			continue
		}
		deg[f.U+1]++
		deg[f.V+1]++
	}
	for i := 1; i <= numUsers; i++ {
		deg[i] += deg[i-1]
	}
	adj := make([]int32, deg[numUsers])
	fill := make([]int32, numUsers)
	for _, f := range friends {
		if f.U == f.V || f.U < 0 || f.V < 0 || int(f.U) >= numUsers || int(f.V) >= numUsers {
			continue
		}
		adj[deg[f.U]+fill[f.U]] = f.V
		fill[f.U]++
		adj[deg[f.V]+fill[f.V]] = f.U
		fill[f.V]++
	}

	cur := make([]int32, numUsers)
	next := make([]int32, numUsers)
	for i := range cur {
		cur[i] = int32(i)
	}
	// Per-shard scratch: label counts keyed by label id with a stamp
	// array, so clearing between nodes is O(neighbors), not O(n).
	type scratch struct {
		count []int32
		stamp []uint32
		clock uint32
	}
	pool := make([]scratch, shards)
	for s := range pool {
		pool[s] = scratch{count: make([]int32, numUsers), stamp: make([]uint32, numUsers)}
	}

	moves := make([]uint64, shards)
	per := (numUsers + shards - 1) / shards
	for sweep := 0; sweep < plpMaxSweeps; sweep++ {
		var wg sync.WaitGroup
		for s := 0; s < shards; s++ {
			lo, hi := s*per, (s+1)*per
			if hi > numUsers {
				hi = numUsers
			}
			if lo >= hi {
				moves[s] = 0
				continue
			}
			wg.Add(1)
			go func(s, lo, hi, sweep int) {
				defer wg.Done()
				sc := &pool[s]
				var m uint64
				for u := lo; u < hi; u++ {
					sc.clock++
					bestLabel := cur[u]
					bestCount := int32(0)
					bestHash := plpHash(opts.Seed, uint64(sweep), uint64(u), uint64(uint32(bestLabel)))
					curCount := int32(0)
					for _, v := range adj[deg[u]:deg[u+1]] {
						l := cur[v]
						if sc.stamp[l] != sc.clock {
							sc.stamp[l] = sc.clock
							sc.count[l] = 0
						}
						sc.count[l]++
						c := sc.count[l]
						if l == cur[u] {
							curCount = c
						}
						h := plpHash(opts.Seed, uint64(sweep), uint64(u), uint64(uint32(l)))
						if c > bestCount || (c == bestCount && h < bestHash) {
							bestLabel, bestCount, bestHash = l, c, h
						}
					}
					// Keep-current damping: staying put when the current
					// label ties the plurality kills 2-cycles.
					if curCount == bestCount && bestLabel != cur[u] {
						bestLabel = cur[u]
					}
					next[u] = bestLabel
					if bestLabel != cur[u] {
						m++
					}
				}
				moves[s] = m
			}(s, lo, hi, sweep)
		}
		wg.Wait()
		cur, next = next, cur
		res.Sweeps = sweep + 1
		var total uint64
		for _, m := range moves {
			total += m
		}
		if total == 0 {
			res.Converged = true
			break
		}
	}

	// Compress labels to dense community ids by first appearance in node
	// order — stable, and independent of how propagation numbered them.
	remap := make(map[int32]int32, 64)
	for i, l := range cur {
		id, ok := remap[l]
		if !ok {
			id = int32(len(remap))
			remap[l] = id
		}
		res.Labels[i] = id
	}
	res.Communities = len(remap)
	return res
}

// PLPGraph runs PLP over a social graph's friendship edges.
func PLPGraph(g *socialgraph.Graph, opts PLPOptions) *PLPResult {
	return PLP(g.NumUsers, g.Friends, opts)
}

// plpHash is a murmur3-finalizer mix over (seed, sweep, node, label) —
// the deterministic tie-break source.
func plpHash(seed, sweep, node, label uint64) uint64 {
	x := seed ^ sweep*0x9E3779B97F4A7C15 ^ node*0xC2B2AE3D27D4EB4F ^ label*0x165667B19E3779F9
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	x *= 0xC4CEB9FE1A85EC53
	x ^= x >> 33
	return x
}

// WarmStartModel assembles the minimal model core.NewEngineFromModel
// needs to resume training from a PLP decomposition — the
// `cpd-train -init plp` path. PLP communities are ranked by size
// (descending, ties by label) and mapped onto the model's |C| community
// slots; labels beyond |C| fold back round-robin. Document topics start
// at seeded random exactly as in a fresh run, η uniform, ν zero: the
// structural prior is the only thing warm about it.
func WarmStartModel(g *socialgraph.Graph, cfg core.Config, labels []int32) *core.Model {
	cfg = cfg.WithDefaults()
	C, Z := cfg.NumCommunities, cfg.NumTopics

	// Rank PLP communities by size so the largest structures land on
	// distinct community ids before any folding starts.
	sizes := make(map[int32]int)
	for _, l := range labels {
		sizes[l]++
	}
	order := make([]int32, 0, len(sizes))
	for l := range sizes {
		order = append(order, l)
	}
	sort.Slice(order, func(i, j int) bool {
		if sizes[order[i]] != sizes[order[j]] {
			return sizes[order[i]] > sizes[order[j]]
		}
		return order[i] < order[j]
	})
	toComm := make(map[int32]int32, len(order))
	for rank, l := range order {
		toComm[l] = int32(rank % C)
	}
	userComm := func(u int32) int32 {
		if int(u) < len(labels) {
			return toComm[labels[u]]
		}
		return u % int32(C)
	}

	r := rng.New(cfg.Seed ^ 0x9E3779B9)
	m := &core.Model{
		Cfg:          cfg,
		NumUsers:     g.NumUsers,
		NumWords:     g.NumWords,
		DocCommunity: make([]int32, len(g.Docs)),
		DocTopic:     make([]int32, len(g.Docs)),
		Eta:          sparse.NewTensor3(C, C, Z),
		Nu:           make([]float64, socialgraph.FeatureDim),
	}
	for i, d := range g.Docs {
		m.DocCommunity[i] = userComm(d.User)
		m.DocTopic[i] = int32(r.Intn(Z))
	}
	uniform := 1 / float64(C*Z)
	for i := range m.Eta.Data {
		m.Eta.Data[i] = uniform
	}
	return m
}

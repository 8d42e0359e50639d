// Package router is the distributed serving tier: a stateless front over
// N cpd-serve replicas that all pull the same publisher's generation
// snapshots (serve.Fetcher). It partitions users across processes by
// range (internal/shard) — the step the paper's profiling queries need
// at the network scales the source corpora have, where one process
// cannot hold the whole fleet's page-cache working set.
//
// There is one topology: every replica owns a user range (shard.Info),
// advertised on /api/generation. A replica that advertises none — a
// full-snapshot replica — owns every user as shard 0 of 1, so full
// replication is one shard with R owners and a sharded fleet is N shards
// with R owners each, served by the same code.
//
// Routing policy per endpoint class:
//
//   - Membership (/api/user, /api/pirow) and fold-in (/api/foldin)
//     route to the OWNING replica by weighted rendezvous user-hash, with
//     failover down the preference list. Only the replicas whose range
//     contains the user are candidates; within a shard, ownership
//     concentrates each user's Pi rows (and fold-in locality) on one
//     replica's page cache. A 421 answer counts as a misroute and fails
//     over, and fold-in friend rows the target does not own are hydrated
//     from their owners before the request is forwarded.
//   - Diffusion (/api/diffusion) goes to the owner of u, v's row
//     hydrated by the same protocol as fold-in friends' when another
//     shard owns v: the row travels with its rowsGeneration, a scorer
//     serving another generation answers 409, and the router hydrates
//     again. A pair the owner holds in full is forwarded unchanged.
//   - Rank (/api/rank) SCATTERS to all replicas and gathers: every shard
//     scores the same entries, each counts Members over its own users,
//     and the merge sums one answer per shard from the newest generation
//     every shard answered at — the single-node answer bit-for-bit.
//   - Community browsing and quality (/api/communities, /api/community,
//     /api/quality) proxy to the freshest healthy replica, failing over.
//
// Rendezvous (highest-random-weight) hashing keeps routing stable across
// replica-count changes: removing a replica remaps only the users it
// owned; adding one steals ~1/N of each survivor — no global reshuffle.
//
// The router tracks per-replica health and generation (a background poll
// of /api/generation plus inline observation of every scatter response)
// and degrades gracefully: replicas that lag the fleet maximum are
// marked lagging but keep serving — a scatter that loses its freshest
// replica mid-flight falls back to the stale group rather than failing.
// Per-replica health/generation/lag surface on /api/stats and /metrics.
//
// Every reply carries the publisher generation it was answered from;
// `version` is a different thing, a counter local to one replica process
// (it moves on every swap, reload or restart). The rule for it: an
// answer ONE replica scored — membership, a membership row, fold-in,
// diffusion, where the owner of u scores the pair — is relayed verbatim,
// that replica's version included; rank, the only answer the router
// assembles, belongs to no one process and carries version 0.
package router

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hist"
	"repro/internal/serve"
	"repro/internal/shard"
)

// Replica names one backend cpd-serve process.
type Replica struct {
	// Name is the stable identity rendezvous hashing keys on — keep it
	// constant across restarts and address changes or the user mapping
	// reshuffles.
	Name string
	// Base is the replica's HTTP base URL (e.g. http://10.0.0.3:8080).
	Base string
	// Weight scales this replica's share of owner-routed keys (weighted
	// rendezvous hashing; default 1). A replica at weight 2 owns twice
	// the keys of one at weight 1; weight changes remap only the keys
	// that move, like adding or removing a replica does.
	Weight float64
}

// Options configures a Router.
type Options struct {
	// Client performs all backend requests (default: 10s timeout).
	Client *http.Client
	// PollInterval is the health/generation poll period (default 1s).
	PollInterval time.Duration
	// MaxLag is how many generations a replica may trail the fleet
	// maximum before it is marked lagging on stats/metrics (default 1;
	// lagging replicas keep serving — stale answers beat no answers).
	MaxLag uint64
}

// endpoint classes the router accounts latency for.
const (
	opRoute   = iota // owner-routed: membership, fold-in
	opScatter        // rank's scatter-gather, and diffusion
	opProxy          // freshest-replica proxy: communities, quality
	opCount
)

var opNames = [opCount]string{"route", "scatter", "proxy"}

// replica is the router's per-backend state.
type replica struct {
	name   string
	base   string
	url    url.URL // base, parsed once; every backend request is built on a copy
	weight float64

	healthy    atomic.Bool
	generation atomic.Uint64
	requests   atomic.Uint64
	errors     atomic.Uint64
	// draining mirrors the replica's own drain latch (it advertised
	// draining on /api/generation): the router stops sending it new
	// owner-routed work while any non-draining candidate remains, so an
	// operator can empty a replica before taking it down.
	draining atomic.Bool
	// shard is the user range the replica advertises owning, as polled:
	// nil on full-snapshot replicas. Routing reads it through owned.
	shard atomic.Pointer[shard.Info]
	// misroutes counts 421 (Misdirected Request) answers — the replica
	// disowned a user the router sent it, usually a topology change
	// racing the poll; the router retries down the chain.
	misroutes atomic.Uint64

	mu      sync.Mutex
	lastErr string
}

// allUsers is the range a replica advertising none serves: every user,
// as shard 0 of 1.
var allUsers = shard.Info{Index: 0, Count: 1, UserLo: 0, UserHi: math.MaxInt}

// owned is the user range r serves — its advertised shard, else
// allUsers. Callers must not modify the result.
func (r *replica) owned() *shard.Info {
	if in := r.shard.Load(); in != nil {
		return in
	}
	return &allUsers
}

func (r *replica) fail(err error) {
	r.errors.Add(1)
	r.healthy.Store(false)
	r.mu.Lock()
	r.lastErr = err.Error()
	r.mu.Unlock()
}

func (r *replica) ok() {
	r.healthy.Store(true)
}

// Router scatter-gathers over a fixed replica set.
type Router struct {
	opts     Options
	replicas []*replica
	lat      [opCount]hist.Atomic

	// Scatter singleflight: identical concurrent rank queries collapse
	// onto one in-flight fleet fan-out (see shared).
	sfMu           sync.Mutex
	sfCalls        map[string]*flight
	sharedScatters atomic.Uint64
	// partialRanks counts rank merges no generation had every shard's
	// answer for (see mergeRankSharded).
	partialRanks atomic.Uint64
}

// New builds a router over the given replicas. Replica names must be
// unique and non-empty (they are the rendezvous identities).
func New(replicas []Replica, opts Options) (*Router, error) {
	if len(replicas) == 0 {
		return nil, fmt.Errorf("router: no replicas")
	}
	if opts.Client == nil {
		opts.Client = &http.Client{Timeout: 10 * time.Second}
	}
	if opts.PollInterval <= 0 {
		opts.PollInterval = time.Second
	}
	if opts.MaxLag == 0 {
		opts.MaxLag = 1
	}
	rt := &Router{opts: opts, sfCalls: map[string]*flight{}}
	seen := map[string]bool{}
	for _, r := range replicas {
		if r.Name == "" || r.Base == "" {
			return nil, fmt.Errorf("router: replica needs a name and a base URL: %+v", r)
		}
		if seen[r.Name] {
			return nil, fmt.Errorf("router: duplicate replica name %q", r.Name)
		}
		seen[r.Name] = true
		w := r.Weight
		if w == 0 {
			w = 1
		}
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("router: replica %q has invalid weight %v", r.Name, r.Weight)
		}
		base := strings.TrimRight(r.Base, "/")
		u, err := url.Parse(base)
		if err != nil || u.Host == "" {
			return nil, fmt.Errorf("router: replica %q has an unusable base URL %q", r.Name, r.Base)
		}
		rep := &replica{name: r.Name, base: base, url: *u, weight: w}
		rep.healthy.Store(true) // optimistic until a request says otherwise
		rt.replicas = append(rt.replicas, rep)
	}
	sort.Slice(rt.replicas, func(i, j int) bool { return rt.replicas[i].name < rt.replicas[j].name })
	return rt, nil
}

// Run polls replica health and generation until the context is
// cancelled. The router serves without it (inline observations keep the
// state fresh under traffic), but the poll detects recovered replicas
// and generation rollouts on an idle fleet.
func (rt *Router) Run(ctx context.Context) {
	t := time.NewTicker(rt.opts.PollInterval)
	defer t.Stop()
	for {
		rt.PollReplicas()
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// PollReplicas refreshes every replica's health and generation once,
// concurrently. Exported so harnesses can force a refresh instead of
// waiting out the poll interval.
func (rt *Router) PollReplicas() {
	var wg sync.WaitGroup
	for _, r := range rt.replicas {
		wg.Add(1)
		go func(r *replica) {
			defer wg.Done()
			var rep serve.GenerationReport
			if err := rt.getJSON(r, "/api/generation", &rep); err != nil {
				r.fail(err)
				return
			}
			r.ok()
			r.generation.Store(rep.Generation)
			r.draining.Store(rep.Draining)
			r.shard.Store(rep.Shard) // nil on full-snapshot replicas
		}(r)
	}
	wg.Wait()
}

// maxGeneration is the fleet-wide newest generation observed.
func (rt *Router) maxGeneration() uint64 {
	var max uint64
	for _, r := range rt.replicas {
		if g := r.generation.Load(); g > max {
			max = g
		}
	}
	return max
}

// rendezvousScore is FNV-1a over the replica name and the key's eight
// little-endian bytes — deterministic across processes and releases,
// which is what makes the ownership mapping stable fleet-wide.
func rendezvousScore(name string, key uint64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	for i := 0; i < 8; i++ {
		h ^= key & 0xFF
		h *= prime64
		key >>= 8
	}
	return h
}

// owners returns the replicas in preference order for key: descending
// weighted rendezvous score, name-ascending on the (astronomically
// unlikely) score tie. The first entry is the owner; the rest are the
// failover chain — which is exactly the owner order of the fleet without
// the preceding entries, so failover agrees with what a smaller fleet
// would have chosen (the property the stability test pins).
//
// The weighted score is the standard logarithmic form −w/ln(u) with
// u = (h+0.5)/2^64 ∈ (0,1): a replica at weight 2w wins twice as many
// keys as one at weight w. At uniform weights −w/ln(u) is monotone in h,
// so the ordering — and every existing ownership mapping — is identical
// to the unweighted raw-hash comparison.
func (rt *Router) owners(key uint64) []*replica {
	out := make([]*replica, len(rt.replicas))
	scores := make([]float64, len(rt.replicas))
	for n, r := range rt.replicas {
		h := rendezvousScore(r.name, key)
		u := (float64(h) + 0.5) / float64(1<<63) / 2
		s := -r.weight / math.Log(u)
		// Insertion sort: fleets are a handful of replicas and this runs on
		// every owner-routed request. rt.replicas is name-ascending, so
		// moving past strictly smaller scores only keeps ties in name order.
		i := n
		for ; i > 0 && scores[i-1] < s; i-- {
			out[i], scores[i] = out[i-1], scores[i-1]
		}
		out[i], scores[i] = r, s
	}
	return out
}

// userChain is the failover chain for user-addressed work: the owners
// chain for the user's key, filtered to the replicas whose range
// contains the user. A fleet where no range contains the user falls back
// to the whole chain — the backends then answer 421/400 and the client
// sees the truth rather than a routing dead-end.
func (rt *Router) userChain(user int64) []*replica {
	chain := rt.owners(uint64(user))
	// Compact the owning replicas to the front, in place; with none, not
	// one element has moved.
	n := 0
	for _, r := range chain {
		if r.owned().Owns(int(user)) {
			chain[n] = r
			n++
		}
	}
	if n == 0 {
		return chain
	}
	return chain[:n]
}

// Owner returns the name of the replica owning key — the unit the
// hash-stability test (and operators debugging placement) talk about.
func (rt *Router) Owner(key uint64) string {
	return rt.owners(key)[0].name
}
